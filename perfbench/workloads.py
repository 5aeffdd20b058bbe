"""The benchmark's workloads: inputs drawn from a seed, one in-process CLI
call per operation, and the check that decides whether its output is right.

Each workload yields a *cycle* of operations; the benchmark repeats whole
cycles, so every run sees the same mix of inputs, and an operation that
comes round again must reproduce its first output byte for byte.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from ddiqkd import cli
from ddiqkd.channel import poisson_pn
from ddiqkd.rates import yield_table
from ddiqkd.verify import ALL_CHECKS

from hostspeed import large_numpy, python_floats, small_numpy

POOL_PATH = Path(__file__).with_name("curve_pool.json")

SESSION_PULSES = 10_000_000
SESSION_MU = 0.7            # the CLI's session default, left to the CLI
Z_BOUND = 8.0               # false alarm < 1e-9 per statistic, even at ~7 counts
CURVE_MU_ATOL = 1e-3        # optimizer tolerance is 1e-4
CURVE_RATE_RTOL = 1e-6      # rounding-level rewrites pass, formula changes fail
CURVE_RATE_ATOL = 1e-18
CURVE_CUTOFF_ATOL_KM = 1.0  # each cutoff is bisected to +-0.5 km


@dataclass(frozen=True)
class Op:
    """One CLI call; ``key`` names its (config, seed) for the determinism check."""

    key: str
    argv: tuple[str, ...]
    out: Path | None = None
    expect: dict | None = None


@dataclass(frozen=True)
class Result:
    rc: int
    stdout: str
    file: bytes = b""  # contents of --out after the call

    def output_bytes(self) -> bytes:
        return b"%d\n" % self.rc + self.stdout.encode() + b"\n" + self.file


def call_cli(argv, out: Path | None) -> tuple[float, Result]:
    """Run ``ddiqkd.cli.main(argv)`` in-process; (wall seconds, result)."""
    if out is not None and out.exists():
        out.unlink()
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects a flag
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed operation; keep its traceback
        traceback.print_exc(file=sys.stderr)
        rc = -1
    elapsed = time.perf_counter() - start
    data = out.read_bytes() if out is not None and out.exists() else b""
    return elapsed, Result(rc, buf.getvalue(), data)


class Workload:
    name: str
    probe = staticmethod(python_floats)  # see hostspeed

    def ops(self, seed: int, workdir: Path) -> list[Op]:
        """One cycle of operations, determined by ``seed`` alone."""
        raise NotImplementedError

    def warmup_argv(self, op: Op) -> tuple[str, ...]:
        return op.argv

    def check(self, op: Op, res: Result) -> str | None:
        """None if the output is right, else the reason it is not."""
        raise NotImplementedError

    def corrupted(self, op: Op, res: Result) -> tuple[str, Result]:
        """A wrong output for ``op`` that ``check`` must reject."""
        raise NotImplementedError


class SessionWorkload(Workload):
    probe = staticmethod(large_numpy)

    def __init__(self, name: str, length_km: float):
        self.name = name
        self.length_km = length_km
        self._yields = yield_table(cli.Config().rate_params(), length_km)

    def ops(self, seed, workdir):
        out = workdir / "report.json"
        seeds = random.Random(seed).sample(range(2**31), 2)
        return [
            Op(f"session-{s}", ("session", "--distances", f"{self.length_km:g}",
                                "--pulses", str(SESSION_PULSES), "--seed", str(s),
                                "--out", str(out)), out, {"seed": s})
            for s in seeds
        ]

    def warmup_argv(self, op):
        argv = list(op.argv)
        argv[argv.index("--pulses") + 1] = str(SESSION_PULSES // 100)
        return tuple(argv)

    def check(self, op, res):
        if res.rc != 0:
            return f"exit code {res.rc}"
        try:
            report = json.loads(res.file)
        except ValueError:
            return "report does not parse"
        try:
            return self._report_error(report, op.expect["seed"])
        except (KeyError, IndexError, TypeError) as exc:
            return f"report lacks a field: {exc!r}"

    def _report_error(self, rep: dict, seed: int) -> str | None:
        cfg = rep["config"]
        if (rep["seed"], cfg["n_pulses"], cfg["mu"], cfg["length_km"]) != (
                seed, SESSION_PULSES, SESSION_MU, self.length_km):
            return "report echoes the wrong configuration"
        det = rep["per_detector"]
        vac, single = det["vacuum"], det["single_photon"]
        matched = rep["matched_pulses"]
        if rep["sifted_length"] != sum(det["successes"]):
            return "sifted_length is not the sum of the successes"

        yt = self._yields
        q_true, e_true = yt.gains(SESSION_MU)[0], yt.qbers(SESSION_MU)[0]
        # (label, reported ratio, tally numerator, denominator, model value)
        stats = [
            ("matched share", None, matched, SESSION_PULSES, 0.5),
            ("vacuum share", None, vac["pulses"], matched, poisson_pn(SESSION_MU, 0)),
            ("single-photon share", None, single["pulses"], matched, poisson_pn(SESSION_MU, 1)),
        ]
        for i in range(4):
            d = f"D{i + 1}"
            stats += [
                (f"gain {d}", det["gains"][i], det["successes"][i], matched, q_true),
                (f"qber {d}", det["qbers"][i], det["errors"][i], det["successes"][i], e_true),
                (f"vacuum yield {d}", vac["yields"][i], vac["successes"][i], vac["pulses"], yt.y0[i]),
                (f"single-photon yield {d}", single["yields"][i], single["successes"][i],
                 single["pulses"], yt.y1[i]),
                (f"single-photon qber {d}", single["qbers"][i], single["errors"][i],
                 single["successes"][i], yt.e1[i]),
            ]
        for label, reported, count, n, true in stats:
            if n <= 0:
                return f"{label}: empty denominator"
            est = count / n
            if reported is not None and not math.isclose(reported, est, rel_tol=1e-12):
                return f"{label}: reported {reported!r} but tallies give {est!r}"
            z = (est - true) / math.sqrt(true * (1.0 - true) / n)
            if abs(z) > Z_BOUND:
                return f"{label}: z = {z:+.1f}, beyond +-{Z_BOUND:g} of the yield table"
        return None

    def corrupted(self, op, res):
        """Set detector 1's success tally 10 sigma above the model, consistently."""
        rep = json.loads(res.file)
        det = rep["per_detector"]
        n, q = rep["matched_pulses"], self._yields.gains(SESSION_MU)[0]
        det["successes"][0] = round(n * q + 10.0 * math.sqrt(n * q * (1.0 - q)))
        det["gains"][0] = det["successes"][0] / n
        det["qbers"][0] = det["errors"][0] / det["successes"][0]
        rep["sifted_length"] = sum(det["successes"])
        text = json.dumps(rep, sort_keys=True, indent=2) + "\n"
        return "session tally 10 sigma above the model", Result(res.rc, res.stdout, text.encode())


class CurveWorkload(Workload):
    """Default-distance curves at parameter points drawn from a stored pool.

    The pool (``curve_pool.json``, written by ``make_reference.py``) holds
    each point's reference output and is split into strata of similar cost;
    a seed picks one point per stratum, so runs share their cost mix.
    """

    name = "rate_curve"

    def __init__(self):
        self.pool = json.loads(POOL_PATH.read_text(encoding="utf-8"))

    def ops(self, seed, workdir):
        rng = random.Random(seed)
        by_stratum: dict[int, list[dict]] = {}
        for point in self.pool["points"]:
            by_stratum.setdefault(point["stratum"], []).append(point)
        chosen = [rng.choice(by_stratum[s]) for s in sorted(by_stratum)]
        rng.shuffle(chosen)
        out = workdir / "curve.csv"
        ops = []
        for point in chosen:
            cfg = workdir / f"point-{point['id']}.cfg"
            cfg.write_text(point_config(point), encoding="utf-8")
            ops.append(Op(f"curve-{point['id']}",
                          ("keyrate-curve", "--config", str(cfg), "--out", str(out)),
                          out, point))
        return ops

    def check(self, op, res):
        if res.rc != 0:
            return f"exit code {res.rc}"
        try:
            rows, cutoffs = parse_curve(res)
        except (ValueError, IndexError, KeyError) as exc:
            return f"output does not parse: {exc}"
        ref = op.expect
        if len(rows) != len(ref["rows"]):
            return f"{len(rows)} rows, reference has {len(ref['rows'])}"
        for row, want in zip(rows, ref["rows"]):
            length, mu, rate, rate_bb84 = row
            if length != want[0]:
                return f"row at {length} km, reference at {want[0]} km"
            if abs(mu - want[1]) > CURVE_MU_ATOL:
                return f"mu_opt {mu!r} at {length} km, reference {want[1]!r}"
            for label, got, ref_rate in (("rate_proposal", rate, want[2]),
                                         ("rate_bb84", rate_bb84, want[3])):
                if not math.isclose(got, ref_rate, rel_tol=CURVE_RATE_RTOL,
                                    abs_tol=CURVE_RATE_ATOL):
                    return f"{label} {got!r} at {length} km, reference {ref_rate!r}"
        for key in ("cutoff_proposal_km", "cutoff_bb84_km"):
            if abs(cutoffs[key] - ref[key]) > CURVE_CUTOFF_ATOL_KM:
                return f"{key} {cutoffs[key]!r}, reference {ref[key]!r}"
        return None

    def corrupted(self, op, res):
        """Scale one positive rate by 1 + 1e-5, well inside any plotted error."""
        lines = res.file.decode().splitlines()
        for i, line in enumerate(lines[1:], start=1):
            fields = line.split(",")
            if float(fields[2]) > 0.0:
                fields[2] = repr(float(fields[2]) * (1.0 + 1e-5))
                lines[i] = ",".join(fields)
                break
        text = "\n".join(lines) + "\n"
        return "curve row tampered by 1e-5", Result(res.rc, res.stdout, text.encode())


def point_config(point: dict) -> str:
    return "".join(f"{key} = {point[key]!r}\n"
                   for key in ("alpha_db_per_km", "e_mis", "p_dark"))


def parse_curve(res: Result) -> tuple[list[tuple[float, ...]], dict]:
    lines = res.file.decode().splitlines()
    if not lines or lines[0] != "length_km,mu_opt,rate_proposal,rate_bb84":
        raise ValueError("missing CSV header")
    rows = []
    for line in lines[1:]:
        fields = [float(x) for x in line.split(",")]
        if len(fields) != 4:
            raise ValueError(f"row {line!r}")
        rows.append(tuple(fields))
    summary = json.loads(res.stdout.strip().splitlines()[-1])
    return rows, {k: float(summary[k]) for k in ("cutoff_proposal_km", "cutoff_bb84_km")}


class AppendixWorkload(Workload):
    name = "appendix"
    probe = staticmethod(small_numpy)

    def ops(self, seed, workdir):
        seeds = random.Random(seed).sample(range(2**31), 8)
        return [Op(f"appendix-{s}", ("verify-appendix", "--samples", "1000", "--seed", str(s)))
                for s in seeds]

    def check(self, op, res):
        if res.rc != 0:
            return f"exit code {res.rc}"
        lines = res.stdout.splitlines()
        want = [f"PASS {name}:" for name in ALL_CHECKS]
        if len(lines) != 5 or lines[4] != "all checks passed" or not all(
                line.startswith(w) for line, w in zip(lines, want)):
            return f"expected four PASS lines, got {res.stdout!r}"
        return None

    def corrupted(self, op, res):
        _, bad = call_cli(op.argv + ("--self-test-corrupt",), None)
        return "verify-appendix --self-test-corrupt", bad


WORKLOADS = {
    "session_0km": lambda: SessionWorkload("session_0km", 0.0),
    "session_100km": lambda: SessionWorkload("session_100km", 100.0),
    "rate_curve": CurveWorkload,
    "appendix": AppendixWorkload,
}
