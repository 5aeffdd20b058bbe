"""Tests for the command-line front end and its config handling."""

import argparse
import hashlib
import json
import random
import re
import subprocess
import sys

import numpy as np
import pytest

from ddiqkd import bsm, cli, rates, session, verify
from ddiqkd.cli import Config, ConfigError, _build_parser, load_config, main
from ddiqkd.qstate import DensityMatrix
from ddiqkd.verify import check_flip_table

# sha256 of the default keyrate-curve CSV and of its stdout summary line
PINNED_CURVE_CSV = "b713048a5b852a9e06ada306551b110e1eea7a3bcda91a3bec570b20b5267343"
PINNED_CURVE_SUMMARY = "65e2e47f8bcad249021142d78f4fa29fa2906e947bec5600272c8025e8d3e172"
# (CSV, summary line) sha256 of three other curves; see test_other_curve_bytes_are_pinned
PINNED_EXTENDED_CURVE = ("23788f50d940185cdd3ea3ee2e00bbab4a8a115d0c95e233154006d170b027bd",
                         "7bb9a3cec7281f1bd51277e85edbdf6245e863a3929ee2f5784ccbc9d6695c8b")
PINNED_FAR_CURVE = ("a7bb029d16a3aaf9482748fd374048bde0ff1df2bbe65e51fff84f3a9b625846",
                    "263ab94d0a5d14d95d0099c8537304f639436033644fa10674e12beed743cbca")
PINNED_EDGE_CURVE = ("57ee8533740c6a7a7f5ef7ea2636b0d313195946a9d775ccc4f49e66bc953c21",
                     "5f3ed93a7483d8bc4b3ae1ffea6bf56ed1865304a5c7b63f0164aba8f6d86107")
# sha256 of the stdout of verify-appendix --samples 1000 --seed 7, plain and
# with --self-test-corrupt
PINNED_APPENDIX = "71acdf04fae37bed6fbf3229346c467f7fd4f4911b8d21e7e270517fd34320c9"
PINNED_APPENDIX_CORRUPT = "c0ffe26dd7a6e1e2fa76dda8595749559d91676c2ebce2e0f6c3b766d6fcf205"
# sha256 of the theory-table CSV at the default visibility and at --visibility 1
PINNED_THEORY_TABLE = "8b18c80cef86f9d85dcfa3ffe92ff96daeee7bbd790aec25770b1c20f0c4999d"
PINNED_THEORY_TABLE_IDEAL = "62ed6119ceab4cf1939d712cef1f64887358c94c762ff7da9b8298572ea487e2"


@pytest.fixture
def parse_config(tmp_path):
    """load_config of a file holding ``text``, without flags."""
    def parse(text: str) -> Config:
        path = tmp_path / "parsed.cfg"
        path.write_text(text)
        return load_config(str(path), {})
    return parse


class TestConfig:
    def test_defaults_are_reference_values(self):
        cfg = Config()
        assert cfg.alpha_db_per_km == 0.2
        assert cfg.eta_det == 0.145
        assert cfg.p_dark == 6.02e-6
        assert cfg.e_mis == 0.015
        assert cfg.f_ec == 1.16

    def test_per_detector_dark_is_half_the_background(self):
        assert Config().rate_params().p_dark == pytest.approx(3.01e-6)

    def test_comments_and_blanks_ignored(self, parse_config):
        cfg = parse_config("# comment\n\n  e_mis = 0.02  # inline\n")
        assert cfg.e_mis == 0.02

    def test_unknown_key_rejected(self, parse_config):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("wavelength = 1550\n")

    @pytest.mark.parametrize("command, text, line", [
        ("session", "mu = 0.5\n# again\nmu = 0.9\n", "line 3: duplicate key 'mu'"),
        ("keyrate-curve", "distances = 0,10\ndistances = 20\n",
         "line 2: duplicate key 'distances'"),
    ], ids=["scalar", "distances"])
    def test_repeated_key_is_usage_error(self, command, text, line, tmp_path, capsys):
        # a key set twice is an error, not a silent last-one-wins
        cfg = tmp_path / "twice.cfg"
        cfg.write_text(text)
        assert main([command, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {line}\n"

    def test_removed_q_key_is_usage_error(self, tmp_path, capsys):
        # q was a pure scale factor of the key rate and is no longer a key
        cfg = tmp_path / "q.cfg"
        cfg.write_text("q = 1.0\n")
        assert main(["keyrate-curve", "--config", str(cfg)]) == 2
        assert "unknown key 'q'" in capsys.readouterr().err

    def test_bad_value_rejected(self, parse_config):
        with pytest.raises(ConfigError, match="bad value"):
            parse_config("eta_det = fast\n")

    @pytest.mark.parametrize("key, value", [("n_pulses", "1.5"), ("seed", "2.0")])
    def test_integer_keys_reject_floats(self, key, value, tmp_path, capsys):
        # a key's type is that of its Config default
        cfg = tmp_path / "float.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main(["session", "--config", str(cfg)]) == 2
        assert f"bad value for {key}" in capsys.readouterr().err

    def test_float_key_takes_an_integer_literal(self, parse_config):
        mu = parse_config("mu = 1\n").mu
        assert type(mu) is float and mu == 1.0

    def test_range_validation(self, parse_config):
        with pytest.raises(ConfigError):
            parse_config("mu = 0\n")
        with pytest.raises(ConfigError):
            parse_config("visibility = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config("distances = 50,10\n")

    @pytest.mark.parametrize("key, value", [
        ("alpha_db_per_km", "-1"), ("eta_det", "1.5"), ("p_dark", "-0.1"), ("p_dark", "1"),
        ("e_mis", "0.6"), ("f_ec", "0.9"), ("mu", "-1"), ("n_pulses", "0"),
    ])
    def test_out_of_range_values_name_their_key(self, key, value, tmp_path, capsys,
                                                parse_config):
        # the model's own checks reject these; the CLI re-raises them as usage errors
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = {value}\n")
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main(["keyrate-curve", "--config", str(cfg)]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["alpha_db_per_km", "eta_det", "p_dark", "e_mis",
                                     "f_ec", "mu", "visibility"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_values_rejected(self, key, value, parse_config):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = {value}\n")

    @pytest.mark.parametrize("value", ["0,nan", "inf", "10,inf"])
    def test_non_finite_distances_rejected(self, value, parse_config):
        with pytest.raises(ConfigError, match="distances"):
            parse_config(f"distances = {value}\n")
        with pytest.raises(ConfigError, match="distances"):
            load_config(None, {"distances": value})

    def test_overrides_win(self):
        cfg = load_config(None, {"mu": 0.5, "seed": 4, "distances": "5,15"})
        assert cfg.mu == 0.5
        assert cfg.seed == 4
        assert cfg.distances == (5.0, 15.0)

    def test_config_file_and_flag_build_one_model(self, tmp_path, monkeypatch):
        # the file's keys and the flags make one Config, validated once
        built = []
        init = session.SessionParams.__init__

        def counted(self, **fields):
            built.append(self)
            init(self, **fields)

        monkeypatch.setattr(session.SessionParams, "__init__", counted)
        path = tmp_path / "c.cfg"
        path.write_text("mu = 0.4\nseed = 3\n")
        cfg = load_config(str(path), {"mu": 0.5, "n_pulses": 1000, "seed": None})
        assert (cfg.mu, cfg.n_pulses, cfg.seed) == (0.5, 1000, 3)
        assert len(built) == 1
        # a flag replaces the file's value before anything is validated
        path.write_text("mu = 0\n")
        assert load_config(str(path), {"mu": 0.5}).mu == 0.5


class TestSessionCommand:
    def test_deterministic_report_files(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["session", "--pulses", "50000", "--seed", "42", "--distances", "0"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_report_is_json_with_tallies(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["session", "--pulses", "20000", "--seed", "7",
                     "--distances", "0", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["config"]["n_pulses"] == 20000
        assert len(report["per_detector"]["gains"]) == 4

    def test_zero_mu_is_usage_error(self, capsys):
        assert main(["session", "--mu", "0", "--pulses", "10"]) == 2
        assert "mu" in capsys.readouterr().err

    def test_nan_mu_is_usage_error(self, capsys):
        assert main(["session", "--mu", "nan", "--pulses", "10"]) == 2
        assert "mu" in capsys.readouterr().err

    def test_too_many_pulses_is_usage_error(self, capsys, parse_config):
        # 2**63 - 1 is the largest count one multinomial draw takes
        assert main(["session", "--pulses", str(2**63)]) == 2
        assert "n_pulses" in capsys.readouterr().err
        with pytest.raises(ConfigError, match="n_pulses"):
            parse_config("n_pulses = 10000000000000000000\n")

    def test_unreadable_config_is_usage_error(self, capsys):
        assert main(["session", "--config", "/nonexistent/x.cfg"]) == 2

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        # a UTF-16 byte-order mark used to end in a UnicodeDecodeError traceback
        cfg = tmp_path / "utf16.cfg"
        cfg.write_bytes(b"\xff\xfem\x00u\x00 \x00=\x00 \x001\x00\n\x00")
        assert main(["session", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot read config {cfg}: ")

    def test_several_distance_flags_are_usage_error(self, capsys):
        # a session runs at one length; the flag must not drop the others
        assert main(["session", "--pulses", "10", "--distances", "0,100"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and "--distances" in captured.err

    def test_config_distances_list_runs_its_first_entry(self, tmp_path, capsys):
        # config files are shared with keyrate-curve, so a list stays valid there
        cfg = tmp_path / "curve.cfg"
        cfg.write_text("distances = 50,100\n")
        out = tmp_path / "r.json"
        assert main(["session", "--config", str(cfg), "--pulses", "10", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["length_km"] == 50.0


class TestVerifyAppendixCommand:
    def test_all_checks_pass(self, capsys):
        assert main(["verify-appendix", "--samples", "100"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "all checks passed" in out

    def test_one_sample_passes(self, capsys):
        # the smallest stack through the pure-state inputs
        assert main(["verify-appendix", "--samples", "1"]) == 0
        assert capsys.readouterr().out.count("PASS") == 4

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_rejected(self, samples, capsys):
        assert main(["verify-appendix", "--samples", samples]) == 2
        assert "--samples must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("n_samples", [0, -3, True, 2.0])
    def test_library_rejects_no_samples(self, n_samples):
        # 0 used to raise IndexError and -3 numpy's "negative dimensions"
        with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
            verify.appendix_checks(n_samples=n_samples)

    @pytest.mark.parametrize("seed", [True, 1.5, -1])
    def test_library_rejects_a_bad_seed(self, seed):
        # True ran as seed 1, 1.5 raised numpy's TypeError, -1 its "expected non-negative integer"
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            verify.appendix_checks(n_samples=10, seed=seed)

    def test_library_takes_a_numpy_integer_seed(self):
        assert verify.appendix_checks(10, seed=np.int64(7)) == verify.appendix_checks(10, seed=7)

    def test_one_run_validates_three_density_stacks(self, monkeypatch):
        # the sender and the two rho_bob outputs; the Haar inputs are pure
        # states, and the reference pair restates two validated matrices
        shapes = []
        init = DensityMatrix.__init__

        def counting(self, mat):
            shapes.append(np.shape(mat))
            init(self, mat)

        monkeypatch.setattr(DensityMatrix, "__init__", counting)
        verify.appendix_checks(1000, 7)
        assert len(shapes) == 3, shapes
        assert all(shape[-2:] != (2, 2) for shape in shapes), shapes

    def test_injected_sign_error_fails_named_checks(self, capsys):
        assert main(["verify-appendix", "--samples", "50", "--self-test-corrupt"]) == 1
        out = capsys.readouterr().out
        assert "FAIL receiver-state-fixed" in out
        assert "FAIL register-basis-independence" in out
        # the models the sign error does not touch keep passing
        assert "PASS bsm-model-equivalence" in out
        assert "PASS flip-table-correlations" in out

    @pytest.mark.parametrize("flags, rc, digest", [
        ((), 0, PINNED_APPENDIX), (("--self-test-corrupt",), 1, PINNED_APPENDIX_CORRUPT)])
    def test_output_bytes_are_pinned(self, flags, rc, digest, capsys):
        # the checks may be reorganized only in ways that keep every byte
        assert main(["verify-appendix", "--samples", "1000", "--seed", "7", *flags]) == rc
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_reversed_flip_table_fails(self, monkeypatch, capsys):
        # the check must read the sift table: swapping the rectilinear and
        # diagonal flip rows hands Bob wrong bits on the agreement detectors
        monkeypatch.setattr(bsm, "_FLIP", bsm._FLIP[::-1].copy())
        result = check_flip_table()
        assert not result.passed
        assert result.max_deviation == 0.5
        assert main(["verify-appendix", "--samples", "50"]) == 1
        assert "FAIL flip-table-correlations" in capsys.readouterr().out

    def test_swapped_routes_fail(self, monkeypatch, capsys):
        # the check must read the routes that produce the reports: swapping
        # the agreement and error roles of rates.detector_routes wherever it is
        # bound moves the sessions' error cells and the curve's rates, and
        # the click table's sifted cells no longer hold the routes
        params = Config(distances=(0.0,)).session_params
        lengths = [0.0, 50.0, 100.0]
        cells = session._cell_probabilities(params)
        curve = rates.keyrate_curve(params.model, lengths).rate_proposal
        routes = rates.detector_routes
        for module in (rates, session, verify):
            monkeypatch.setattr(module, "detector_routes", lambda e_mis=0.0: routes(e_mis)[::-1])
        swapped_cells = session._cell_probabilities(params)
        swapped_curve = rates.keyrate_curve(params.model, lengths).rate_proposal

        def errors(cells):  # the error cells of one and more photons, by (class, detector)
            return cells[:27].reshape(3, 9)[1:, 4:8]  # a vacuum dark count has no role

        assert (errors(cells) != errors(swapped_cells)).all()
        assert (curve != swapped_curve).all()
        result = check_flip_table()
        assert not result.passed
        assert result.max_deviation == 0.5
        assert main(["verify-appendix", "--samples", "50"]) == 1
        assert "FAIL flip-table-correlations" in capsys.readouterr().out


class TestTheoryTableCommand:
    def test_table_covers_all_rows_at_both_visibilities(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["theory-table", "--visibility", "0.884", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "visibility,state,D1,D2,D3,D4"
        assert len(lines) == 1 + 16  # configured block plus ideal block
        labels = [line.split(",")[1] for line in lines[1:9]]
        assert labels == ["H|a", "V|a", "H|c", "V|c",
                          "+45|b0", "-45|b0", "+45|bpi", "-45|bpi"]
        # ideal block: dominant pair at 0.5, others 0 (exact-identity tolerance)
        ideal = [line for line in lines[1:] if line.startswith("1,")]
        assert len(ideal) == 8
        for line in ideal:
            probs = sorted(float(x) for x in line.split(",")[2:])
            assert probs == pytest.approx([0.0, 0.0, 0.5, 0.5], abs=1e-12)

    def test_single_block_when_visibility_is_one(self, capsys):
        assert main(["theory-table", "--visibility", "1.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 8

    @pytest.mark.parametrize("flags, digest", [
        ((), PINNED_THEORY_TABLE), (("--visibility", "1"), PINNED_THEORY_TABLE_IDEAL)])
    def test_output_bytes_are_pinned(self, flags, digest, capsys):
        # the click table behind it may be reorganized only in ways that keep every byte
        assert main(["theory-table", *flags]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestKeyrateCurveCommand:
    def test_blind_detectors_zero_everywhere(self, tmp_path, capsys):
        cfg = tmp_path / "blind.cfg"
        cfg.write_text("eta_det = 0\ndistances = 0,10,20\n")
        out = tmp_path / "curve.csv"
        assert main(["keyrate-curve", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "length_km,mu_opt,rate_proposal,rate_bb84"
        for line in lines[1:]:
            _, _, rp, rb = line.split(",")
            assert float(rp) == 0.0 and float(rb) == 0.0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["cutoff_proposal_km"] == 0.0
        assert summary["cutoff_bb84_km"] == 0.0

    def test_nan_distance_is_usage_error(self, capsys):
        assert main(["keyrate-curve", "--distances", "0,nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err and "distances" in captured.err

    def test_bad_distances_list_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# lengths\ndistances = 0,ten\n")
        assert main(["keyrate-curve", "--config", str(cfg)]) == 2
        assert "config error: line 2: bad distances list" in capsys.readouterr().err
        assert main(["keyrate-curve", "--distances", "0,ten"]) == 2
        assert "config error: bad --distances list" in capsys.readouterr().err

    def test_nan_loss_in_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "nan.cfg"
        cfg.write_text("alpha_db_per_km = nan\n")
        assert main(["keyrate-curve", "--config", str(cfg)]) == 2
        assert "alpha_db_per_km" in capsys.readouterr().err

    def test_default_curve_bytes_are_pinned(self, tmp_path, capsys):
        # the default 19-distance CSV and its summary line may be reorganized
        # only in ways that keep every byte
        out = tmp_path / "curve.csv"
        assert main(["keyrate-curve", "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert summary == '{"cutoff_bb84_km": 165.3125, "cutoff_proposal_km": 150.3125}\n'
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CURVE_CSV
        assert hashlib.sha256(summary.encode()).hexdigest() == PINNED_CURVE_SUMMARY

    @pytest.mark.parametrize("argv, config, digests", [
        # both cutoffs lie past the last length: found by extension
        (["--distances", "0,50,100"], None, PINNED_EXTENDED_CURVE),
        # every length lies past both cutoffs: bisected in [0, 2000]
        (["--distances", "2000"], None, PINNED_FAR_CURVE),
        # tests/test_rates.py's EDGE_PARAMS (p_dark is halved per detector):
        # the optimum lies on the low-mu edge
        ([], "p_dark = 1.2e-7\ne_mis = 0.097\n", PINNED_EDGE_CURVE),
    ], ids=["extension", "past-both-cutoffs", "low-mu-edge"])
    def test_other_curve_bytes_are_pinned(self, argv, config, digests, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        if config is not None:
            cfg = tmp_path / "curve.cfg"
            cfg.write_text(config)
            argv = argv + ["--config", str(cfg)]
        assert main(["keyrate-curve", *argv, "--out", str(out)]) == 0
        summary = capsys.readouterr().out
        assert (hashlib.sha256(out.read_bytes()).hexdigest(),
                hashlib.sha256(summary.encode()).hexdigest()) == digests

    def test_single_distance_row(self, tmp_path, capsys):
        out = tmp_path / "one.csv"
        assert main(["keyrate-curve", "--distances", "0", "--out", str(out)]) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 2
        _, mu_opt, rp, rb = rows[1].split(",")
        assert 0.55 <= float(mu_opt) <= 0.85
        assert float(rp) > 0 and float(rb) > 0


def _outcome(parse, argv, capsys):
    """(exit code, stdout, stderr) of a call that argparse ends."""
    with pytest.raises(SystemExit) as exc:
        parse(list(argv))
    return (exc.value.code, *capsys.readouterr())


class TestUsage:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["session", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, flags", [
        ("keyrate-curve", ["--config", "--out", "--distances"]),
        ("session", ["--config", "--out", "--seed", "--mu", "--pulses", "--distances"]),
        ("verify-appendix", ["--config", "--seed", "--samples", "--self-test-corrupt"]),
        ("theory-table", ["--config", "--out", "--visibility"]),
    ])
    def test_each_subcommand_accepts_only_the_flags_it_reads(self, command, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"(--[a-z-]+)", capsys.readouterr().out)) - {"--help"}
        assert listed == set(flags)
        others = {"--out", "--seed", "--mu", "--pulses", "--distances", "--visibility",
                   "--samples"} - set(flags)
        for flag in sorted(others):
            with pytest.raises(SystemExit) as exc:
                main([command, flag, "1"])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_ignored_flags_are_usage_errors(self, capsys):
        for argv in (["keyrate-curve", "--mu", "0.05"], ["session", "--visibility", "0.5"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["session", "--pulses", "1000"], ["keyrate-curve", "--distances", "0"], ["theory-table"],
    ])
    def test_unwritable_out_is_usage_error(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "x.out"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config error: cannot write output {out}: ")

    @pytest.mark.parametrize("argv", [
        [], ["--help"], ["-h"], ["bogus"], ["--seed", "1", "session"],
        *([command, "--help"] for command in
          ("keyrate-curve", "session", "verify-appendix", "theory-table")),
        # per subcommand: an unknown flag, a flag it does not take, a flag
        # missing its value and a value of the wrong type (keyrate-curve
        # takes no typed flag)
        ["keyrate-curve", "--frobnicate"], ["keyrate-curve", "--mu", "1"],
        ["keyrate-curve", "--distances"],
        ["session", "--frobnicate"], ["session", "--visibility", "1"], ["session", "--out"],
        ["session", "--seed", "x"],
        ["verify-appendix", "--frobnicate"], ["verify-appendix", "--out", "x"],
        ["verify-appendix", "--samples"], ["verify-appendix", "--samples", "1.5"],
        ["theory-table", "--frobnicate"], ["theory-table", "--seed", "1"],
        ["theory-table", "--visibility"], ["theory-table", "--visibility", "high"],
        # a stray argument, '--', help after an unknown flag, a repeated flag's
        # bad value and a flag missing its value
        ["session", "extra"], ["session", "--", "x"], ["session", "--frobnicate", "-h"],
        ["verify-appendix", "--samples", "5", "--samples", "x"], ["theory-table", "--out"],
    ], ids=" ".join)
    def test_help_and_usage_match_the_full_parser(self, argv, capsys):
        # main reads a well-formed call without argparse; what it prints for
        # every other call must be the full parser's
        assert _outcome(main, argv, capsys) == _outcome(_build_parser().parse_args, argv, capsys)

    @pytest.mark.parametrize("argv", [
        ["keyrate-curve"], ["keyrate-curve", "--distances", "0,10", "--out", "c.csv"],
        ["session"], ["session", "--seed", "3", "--mu", "0.5", "--pul", "10", "--distances", "0"],
        ["session", "--pulses", "1", "--pulses", "20", "--out", "r.json"],
        ["verify-appendix"], ["verify-appendix", "--samples", "5", "--self-test-corrupt", "--seed", "2"],
        ["theory-table"], ["theory-table", "--visibility", "0.5", "--out", "t.csv"],
    ], ids=" ".join)
    def test_command_flags_match_the_full_parser(self, argv, monkeypatch, tmp_path):
        # the arguments a handler gets equal the full parser's, whether main
        # reads the call itself or hands it on (the abbreviation --pul)
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("")
        argv = [*argv, "--config", str(cfg)]
        seen = []
        help_text, flags, _ = cli._COMMANDS[argv[0]]
        monkeypatch.setitem(cli._COMMANDS, argv[0],
                            (help_text, flags, lambda _, args: seen.append(vars(args)) or 0))
        assert main(argv) == 0
        full = vars(_build_parser().parse_args(argv))
        assert full.pop("command") == argv[0]
        assert seen == [full]

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_random_calls_match_the_full_parser(self, command, monkeypatch, capsys):
        # seeded argv over every flag, the spellings only argparse reads and a
        # few values: main either hands the handler the full parser's
        # namespace or ends exactly as the full parser does
        rng = random.Random(f"scan {command}")
        values = ["", "x", "1", "1.5", "nan"]
        alphabet = [*cli._FLAGS, "-h", "--help", "--", "--pul", "--seed=3", "-", "-0.5", *values]
        # each token is mostly one that fits where it stands: a flag of the
        # command, or a value its type converts
        typed = {int: ["1"], float: ["1", "1.5", "nan"]}
        fits = {flag: None if "action" in spec else typed.get(spec.get("type"), values)
                for flag, spec in cli._FLAGS.items()}
        own = list(cli._COMMANDS[command][1])
        seen = []
        help_text, flags, _ = cli._COMMANDS[command]
        monkeypatch.setitem(cli._COMMANDS, command,
                            (help_text, flags, lambda _, args: seen.append(vars(args)) or 0))
        monkeypatch.setattr(cli, "load_config", lambda path, overrides: None)
        full = _build_parser()
        for _ in range(200):
            argv, slot = [command], None
            for _ in range(rng.randrange(7)):
                argv.append(rng.choice((slot or own) if rng.random() < 0.8 else alphabet))
                slot = None if slot else fits.get(argv[-1])
            try:
                expected = vars(full.parse_args(argv))
            except SystemExit as exc:
                ended = (exc.code, *capsys.readouterr())
                assert _outcome(main, argv, capsys) == ended, argv
                continue
            assert expected.pop("command") == command
            assert main(argv) == 0, argv
            assert repr(seen.pop()) == repr(expected), argv  # repr: a NaN value equals itself

    def test_argv_defaults_to_sys_argv(self, monkeypatch, capsys):
        # the path entry() takes
        argv = ["session", "--frobnicate"]
        monkeypatch.setattr(sys, "argv", ["ddiqkd", *argv])
        assert (_outcome(lambda _: main(), argv, capsys)
                == _outcome(_build_parser().parse_args, argv, capsys))

    def test_command_usage_errors_name_the_argument(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
        usage = "usage: ddiqkd [-h] {keyrate-curve,session,verify-appendix,theory-table} ...\n"
        for argv, error in [
            ([], "the following arguments are required: command"),
            (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
                        "'keyrate-curve', 'session', 'verify-appendix', 'theory-table')"),
            (["session", "--frobnicate"], "unrecognized arguments: --frobnicate"),
        ]:
            with pytest.raises(SystemExit):
                main(argv)
            assert capsys.readouterr().err == f"{usage}ddiqkd: error: {error}\n"

    @pytest.mark.parametrize("argv, built", [
        (["theory-table", "--visibility", "1.0"], []),
        (["--help"], ["", "keyrate-curve", "session", "verify-appendix", "theory-table"]),
        (["session", "--frobnicate"],
         ["", "keyrate-curve", "session", "verify-appendix", "theory-table"]),
    ])
    def test_only_help_and_usage_errors_build_parsers(self, argv, built, monkeypatch, capsys):
        # every ArgumentParser a call constructs, by the command its prog names
        progs = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            progs.append(kwargs["prog"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        try:
            main(argv)
        except SystemExit:
            pass
        assert progs == [f"ddiqkd {name}".strip() for name in built]

    def test_well_formed_calls_load_neither_argparse_nor_dataclasses(self, tmp_path, monkeypatch,
                                                                      capsys):
        # in a fresh process, because pytest itself imports both modules; a
        # usage error there still ends as the full parser does.  Each call
        # also loads only the modules it runs: the package itself none, a
        # curve or session neither the optics (bsm, encoding, qstate) nor
        # verify, and theory-table not verify
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal
        out = str(tmp_path / "out")
        child = f"""
import json, sys
import ddiqkd
loaded = [sorted(name for name in sys.modules if name.startswith("ddiqkd."))]
from ddiqkd.cli import main
codes = [main(argv) for argv in (["keyrate-curve", "--distances", "0,50", "--out", {out!r}],
                                 ["session", "--pulses", "1000", "--out", {out!r}])]
loaded.append(sorted({{"ddiqkd.bsm", "ddiqkd.encoding", "ddiqkd.qstate", "ddiqkd.verify"}}
                     & set(sys.modules)))
codes.append(main(["theory-table", "--out", {out!r}]))
loaded.append(sorted({{"ddiqkd.verify"}} & set(sys.modules)))
codes.append(main(["verify-appendix", "--samples", "10"]))
print(json.dumps([codes, loaded, sorted({{"argparse", "dataclasses"}} & set(sys.modules))]))
main(["session", "--frobnicate"])
"""
        proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
        assert json.loads(proc.stdout.splitlines()[-1]) == [[0, 0, 0, 0], [[], [], []], []]
        assert ((proc.returncode, proc.stderr)
                == _outcome(_build_parser().parse_args, ["session", "--frobnicate"], capsys)[::2])

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ddiqkd.cli", "theory-table", "--visibility", "1.0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("visibility,state,")
