"""Tests for sifting, the Monte Carlo session, and its agreement with the
analytic model."""

import hashlib
import inspect
import itertools
import json
import math

import numpy as np
import pytest

from ddiqkd.bsm import click_table, sift_table
from ddiqkd.cli import Config, _report_json
from ddiqkd.encoding import (
    ALICE_SETTINGS,
    Basis,
    Bb84Setting,
    PathSetting,
)
from ddiqkd.rates import RateParams, detector_routes, yield_table
from ddiqkd.session import (
    SessionParams,
    SessionReport,
    _cell_probabilities,
    run_session,
)

from oracles import agreement_detectors, numpy_secret_key_length

PATHS = (PathSetting.A, PathSetting.C, PathSetting.B0, PathSetting.BPI)

FIG_MODEL = RateParams(eta_det=0.145, p_dark=3.01e-6)  # 0.2 dB/km, e_mis = 0.015, f_ec = 1.16
# A finite length whose transmittance at 0.2 dB/km, 10^-2000, underflows to
# 0: nothing survives the fiber, as at the infinite length SessionParams rejects
OPAQUE_KM = 1e5


def fig_session(n_pulses, length_km=0.0, mu=0.7):
    return SessionParams(
        n_pulses=n_pulses,
        mu=mu,
        length_km=length_km,
        model=FIG_MODEL,
    )


def _rebuilt(record, **changes):
    """A new record of ``record``'s class from its constructor fields, ``changes`` applied."""
    fields = inspect.signature(type(record)).parameters
    return type(record)(**{name: getattr(record, name) for name in fields} | changes)


def _assert_tallies_match_model(rep):
    """|z| <= 4 on every gain, QBER, vacuum and single-photon yield and
    single-photon QBER of a session against the yield table."""
    params = rep.params
    yt = yield_table(params.model, params.length_km)
    mu = params.mu

    def z(est, true, n):
        return (est - true) / np.sqrt(true * (1 - true) / n)

    zs = np.concatenate([
        z(rep.gains(), yt.gains(mu), rep.matched_pulses),
        z(rep.qbers(), yt.qbers(mu), rep.successes),
        z(rep.vacuum_yields(), yt.y0, rep.vacuum_pulses),
        z(rep.single_yields(), yt.y1, rep.single_pulses),
        z(rep.single_qbers(), yt.e1, rep.single_successes),
    ])
    assert np.all(np.abs(zs) <= 4.0), zs


def _assert_tally_invariants(rep):
    """The report serializes and its tallies nest as counts of one session."""
    json.dumps(rep.to_dict())
    assert rep.sifted_length == rep.successes.sum()
    assert rep.vacuum_pulses + rep.single_pulses <= rep.matched_pulses <= rep.params.n_pulses
    assert np.all(rep.errors <= rep.successes)
    assert np.all(rep.vacuum_successes + rep.single_successes <= rep.successes)
    assert np.all(rep.single_errors <= rep.single_successes)


def _code(alice, bob):
    """Setting code 4 * alice_state + bob_setting of one pulse."""
    return 4 * ALICE_SETTINGS.index(alice) + PATHS.index(bob)


def _sift_one(alice, bob, detector):
    """The sift table on one lone click on 1-based ``detector``: (kept, Bob's
    bit), the bit None where the click is not kept."""
    right, wrong = sift_table()[:, _code(alice, bob), detector - 1]
    if not (right or wrong):
        return False, None
    return True, alice.bit ^ int(wrong)


def _scalar_sift(alice, bob, detector):
    """Reference rule, one pulse at a time: discard a basis mismatch; in a
    matched basis Bob flips his path bit on D3/D4 (rectilinear) or D2/D4
    (diagonal).  Returns Bob's bit, or None if the pulse is discarded."""
    if alice.basis is not bob.basis:
        return None
    flips = (3, 4) if alice.basis is Basis.RECTILINEAR else (2, 4)
    return bob.bit ^ (detector in flips)


class TestSift:
    def test_matched_no_flip(self):
        matched, bob_bit = _sift_one(Bb84Setting(Basis.RECTILINEAR, 0), PathSetting.A, 1)
        assert matched
        assert bob_bit == 0

    def test_matched_with_flip(self):
        # H against path c clicking D3: Bob's raw bit 1 flips to 0
        matched, bob_bit = _sift_one(Bb84Setting(Basis.RECTILINEAR, 0), PathSetting.C, 3)
        assert matched
        assert bob_bit == 0

    def test_basis_mismatch_discarded(self):
        matched, _ = _sift_one(Bb84Setting(Basis.RECTILINEAR, 0), PathSetting.B0, 1)
        assert not matched

    def test_failure_discarded(self):
        # every detector fires in every gate: no lone click reaches the sift
        params = SessionParams(
            n_pulses=1000, mu=0.7,
            length_km=0.0,
            model=RateParams(eta_det=0.145, p_dark=1 - 1e-9),
        )
        rep = run_session(params, seed=0)
        assert rep.matched_pulses > 0
        assert rep.sifted_length == 0

    def test_agreement_detectors_always_agree(self):
        # exhaustively: every matched pair, both reachable detectors
        for alice in ALICE_SETTINGS:
            for path in PATHS:
                if alice.basis is not path.basis:
                    continue
                for det in agreement_detectors(alice, path):
                    matched, bob_bit = _sift_one(alice, path, det)
                    assert matched and bob_bit == alice.bit

    def test_vectorized_sift_matches_scalar(self):
        # the table on every (Alice state, Bob setting) code and every lone detector
        table = sift_table()
        assert table.shape == (2, 16, 4) and table.dtype == bool
        for code, detector in itertools.product(range(16), range(4)):
            alice = ALICE_SETTINGS[code >> 2]
            bit = _scalar_sift(alice, PATHS[code & 3], detector + 1)
            right, wrong = table[:, code, detector]
            assert right == (bit == alice.bit), (code, detector)
            assert wrong == (bit is not None and bit != alice.bit), (code, detector)

    def test_sift_table_keeps_the_agreement_detectors(self):
        # the sessions' and the flip-table check's weights: Bob's bit is right
        # exactly on the agreement detectors of a matched pair and wrong on
        # the other two; an unmatched pair keeps nothing
        right, wrong = sift_table()
        assert right.shape == wrong.shape == (16, 4)
        for code in range(16):
            alice, bob = ALICE_SETTINGS[code // 4], PATHS[code % 4]
            matched = alice.basis is bob.basis
            agree = np.zeros(4, dtype=bool)
            if matched:
                agree[np.array(agreement_detectors(alice, bob)) - 1] = True
            assert (right[code] == agree).all(), code
            assert (wrong[code] == (matched & ~agree)).all(), code


class TestVisibility:
    @pytest.mark.parametrize("visibility", [0.0, 0.5, 0.884, 1.0])
    def test_diagonal_rows_move_half_the_lost_visibility_to_wrong_bits(self, visibility):
        # the click mass on the detectors that hand Bob the wrong bit is
        # (1-V)/2 on the four diagonal matched rows and 0 on the rectilinear ones
        wrong = (click_table(0.0, visibility) * sift_table()[1]).sum(axis=1)
        for alice, bob in itertools.product(ALICE_SETTINGS, PATHS):
            if alice.basis is bob.basis is Basis.DIAGONAL:
                assert wrong[_code(alice, bob)] == pytest.approx((1 - visibility) / 2, abs=1e-15)
            elif alice.basis is bob.basis:
                assert wrong[_code(alice, bob)] == 0.0

    def test_domain(self):
        with pytest.raises(ValueError, match="visibility"):
            click_table(0.0, 1.1)


class TestProjectedQber:
    # the QBER a visibility projects onto the sifted key, read from the
    # click table as acceptance criterion 4 reads it: the largest wrong-bit
    # click mass over the matched rows of click_table(0, V)
    @staticmethod
    def _qber(visibility):
        return (click_table(0.0, visibility) * sift_table()[1]).sum(axis=1).max()

    def test_reference_visibility(self):
        assert self._qber(0.884) == pytest.approx(0.058, abs=1e-12)

    def test_no_interference(self):
        assert self._qber(0.0) == 0.5


class TestRunSession:
    def test_deterministic_given_seed(self):
        params = fig_session(200_000)
        a = run_session(params, seed=42).to_dict()
        b = run_session(params, seed=42).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        c = run_session(params, seed=43).to_dict()
        assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)

    @pytest.mark.parametrize("n_pulses", [25_000, 2_500_000])
    def test_session_is_one_multinomial_draw(self, n_pulses):
        # the whole session is one draw of its 28 cell counts from the stream [seed, 0]
        params = SessionParams(
            n_pulses=n_pulses, mu=0.7,
            length_km=0.0,
            model=RateParams(eta_det=0.145, p_dark=0.01),
        )
        rep = run_session(params, seed=5)
        counts = np.random.default_rng([5, 0]).multinomial(n_pulses, _cell_probabilities(params))
        classes = counts[:27].reshape(3, 9)
        tally = classes[:, :8].reshape(3, 2, 4)  # (photon class, error, detector)
        assert rep.sifted_length > 0
        np.testing.assert_array_equal(rep.counts, classes)
        assert rep.matched_pulses == classes.sum()
        assert (rep.vacuum_pulses, rep.single_pulses) == tuple(classes[:2].sum(axis=1))
        np.testing.assert_array_equal(rep.successes, tally.sum(axis=(0, 1)))
        np.testing.assert_array_equal(rep.errors, tally[:, 1].sum(axis=0))
        np.testing.assert_array_equal(rep.vacuum_successes, tally[0].sum(axis=0))
        np.testing.assert_array_equal(rep.single_successes, tally[1].sum(axis=0))
        np.testing.assert_array_equal(rep.single_errors, tally[1, 1])

    def test_report_is_immutable(self):
        rep = run_session(fig_session(10_000), seed=2)
        with pytest.raises(AttributeError, match="'counts'"):
            rep.counts = np.zeros((3, 9), dtype=np.int64)
        with pytest.raises(AttributeError, match="'successes'"):
            rep.successes = np.zeros(4, dtype=np.int64)
        for tally in (rep.counts, rep.successes, rep.errors, rep.vacuum_successes,
                      rep.single_successes, rep.single_errors):
            with pytest.raises(ValueError, match="read-only"):
                tally[0] += 1

    def test_dark_free_vacuum_never_clicks(self):
        params = SessionParams(
            n_pulses=50_000, mu=1e-9,
            length_km=0.0,
            model=RateParams(eta_det=1.0, p_dark=0.0, e_mis=0.0),
        )
        rep = run_session(params, seed=1)
        assert rep.sifted_length == 0
        assert rep.secret_key_length == 0.0

    def test_vacuum_yield_unbiased_at_high_dark_rate(self):
        # a vacuum pulse gives a lone click when exactly one detector
        # dark-fires, each with probability d per gate
        d = 0.1
        params = SessionParams(
            n_pulses=1_000_000, mu=0.05,
            length_km=0.0,
            model=RateParams(eta_det=0.145, p_dark=d),
        )
        rep = run_session(params, seed=17)
        y0 = d * (1 - d) ** 3
        se = math.sqrt(y0 * (1 - y0) / rep.vacuum_pulses)
        z = (rep.vacuum_yields() - y0) / se
        assert np.all(np.abs(z) <= 4.0), z

    def test_noiseless_sessions_have_zero_qber(self):
        params = SessionParams(
            n_pulses=200_000, mu=0.7,
            length_km=0.0,
            model=RateParams(eta_det=1.0, p_dark=0.0,
                             alpha_db_per_km=0.0, e_mis=0.0),
        )
        rep = run_session(params, seed=11)
        assert rep.sifted_length > 0
        assert rep.errors.sum() == 0
        # forced single photons: every matched one-photon pulse succeeds and
        # detectors share the traffic equally
        assert np.all(rep.single_successes > 0)
        np.testing.assert_allclose(rep.single_yields().sum(), 1.0, atol=1e-12)
        for i in range(4):
            p = rep.single_yields()[i]
            se = math.sqrt(0.25 * 0.75 / rep.single_pulses)
            assert p == pytest.approx(0.25, abs=3 * se)

    def test_multi_photon_rows_match_analytic_model(self):
        """Several registered photons per row, with coincident flips and dark
        counts, still reproduce the yield table.

        Seed and bound were fixed before the first run; do not re-pick them.
        """
        params = SessionParams(
            n_pulses=400_000, mu=3.0,
            length_km=0.0, model=RateParams(eta_det=1.0, p_dark=0.05, e_mis=0.25),
        )
        _assert_tallies_match_model(run_session(params, seed=2718))

    def test_unregistered_photons_count_in_photon_number(self):
        """With eta < 1 a pulse's photon number is its registered plus its
        unregistered photons, so single-photon pulses mostly stay dark.

        Seed and bound were fixed before the first run; do not re-pick them.
        """
        params = SessionParams(
            n_pulses=400_000, mu=3.0,
            length_km=10.0,
            model=RateParams(eta_det=0.5, p_dark=0.05, e_mis=0.25),
        )
        _assert_tallies_match_model(run_session(params, seed=2719))

    @pytest.mark.parametrize("eta_det, length_km, p_dark", [(0.5, 10.0, 0.3), (1.0, 0.0, 0.01)])
    def test_pulse_counts_follow_the_source(self, eta_det, length_km, p_dark):
        """Matched, vacuum and single-photon pulse counts are binomial in the
        session length with p = 1/2, e^-mu / 2 and mu e^-mu / 2.

        At p_dark = 0.3 most pulses carry a dark count; at eta_det = 1, 0 km
        every photon registers, so only vacuum pulses stay dark.  Seed and
        bound were fixed before the first run; do not re-pick them.
        """
        mu, n = 1.0, 400_000
        params = SessionParams(
            n_pulses=n, mu=mu,
            length_km=length_km,
            model=RateParams(eta_det=eta_det, p_dark=p_dark),
        )
        rep = run_session(params, seed=99)
        counts = np.array([rep.matched_pulses, rep.vacuum_pulses, rep.single_pulses])
        p = np.array([1.0, math.exp(-mu), mu * math.exp(-mu)]) / 2
        z = (counts - n * p) / np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(z) <= 4.0), z

    @pytest.mark.parametrize("eta_det, length_km, p_dark", [
        (0.0, 0.0, 0.01),           # nothing registers
        (0.145, OPAQUE_KM, 0.01),   # nothing survives the channel
        (1.0, 0.0, 0.01),           # every photon registers
        (0.145, 10.0, 1 - 1e-9),    # every detector dark-fires
    ])
    @pytest.mark.parametrize("n_pulses", [1, 1000])
    def test_edge_sessions_keep_tally_invariants(self, n_pulses, eta_det, length_km, p_dark):
        params = SessionParams(
            n_pulses=n_pulses, mu=0.7,
            length_km=length_km,
            model=RateParams(eta_det=eta_det, p_dark=p_dark),
        )
        for seed in range(5):
            _assert_tally_invariants(run_session(params, seed=seed))

    def test_sifted_fraction_matches_basis_probability(self):
        params = fig_session(1_000_000)
        rep = run_session(params, seed=21)
        n = params.n_pulses
        se = math.sqrt(0.25 / n)
        assert rep.matched_pulses / n == pytest.approx(0.5, abs=3 * se)
        q_total = yield_table(FIG_MODEL, 0.0).gains(0.7).sum()
        se_q = math.sqrt(q_total * (1 - q_total) / rep.matched_pulses)
        assert rep.sifted_length / rep.matched_pulses == pytest.approx(q_total, abs=3 * se_q)

    def test_tallies_match_analytic_model(self):
        params = fig_session(1_000_000)
        rep = run_session(params, seed=31)
        yt = yield_table(FIG_MODEL, 0.0)
        q = yt.gains(0.7)[0]
        for i in range(4):
            se = math.sqrt(q * (1 - q) / rep.matched_pulses)
            assert rep.gains()[i] == pytest.approx(q, abs=3 * se)
        y1 = yt.y1[0]
        for i in range(4):
            se = math.sqrt(y1 * (1 - y1) / rep.single_pulses)
            assert rep.single_yields()[i] == pytest.approx(y1, abs=3 * se)

    def test_report_echoes_config(self):
        params = fig_session(1000)
        d = run_session(params, seed=3).to_dict()
        assert d["config"]["mu"] == 0.7
        assert d["config"]["p_dark_per_detector"] == FIG_MODEL.p_dark
        assert d["seed"] == 3
        assert set(d["per_detector"]) >= {"gains", "qbers", "vacuum", "single_photon"}

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionParams(n_pulses=0, mu=0.7, length_km=0.0, model=FIG_MODEL)
        with pytest.raises(ValueError):
            SessionParams(n_pulses=10, mu=0.0, length_km=0.0, model=FIG_MODEL)
        with pytest.raises(ValueError):
            run_session(fig_session(10), seed=-1)
        with pytest.raises(ValueError, match="n_pulses"):
            fig_session(2**63)  # more than one multinomial draw takes

    def test_infinite_length_rejected(self):
        # with alpha > 0 it used to run and echo "length_km": Infinity, which is not JSON
        with pytest.raises(ValueError, match="length_km: .* must be finite"):
            SessionParams(1000, 0.5, math.inf, RateParams())

    def test_infinite_loss_coefficient_rejected(self):
        # it used to run and echo "alpha_db_per_km": Infinity, which is not JSON;
        # now no model holds it
        with pytest.raises(ValueError, match="alpha_db_per_km: .* must be finite"):
            SessionParams(1000, 0.5, 10.0, RateParams(alpha_db_per_km=math.inf))

    def test_largest_session_completes(self):
        rep = run_session(fig_session(2**63 - 1), seed=4)
        _assert_tally_invariants(rep)
        assert rep.q_sift_effective == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("n_pulses", [2.5, 1e7, True, "10"])
    def test_non_integer_n_pulses_rejected(self, n_pulses):
        # 2.5 used to draw 2 pulses and divide the key by 2.5
        with pytest.raises(ValueError, match="n_pulses must be an integer"):
            fig_session(n_pulses)

    def test_numpy_integer_n_pulses_echoed_as_int(self):
        d = run_session(fig_session(np.int64(1000)), seed=3).to_dict()
        assert json.dumps(d["config"]["n_pulses"]) == "1000"

    @pytest.mark.parametrize("seed", [True, 1.0])
    def test_non_integer_seed_rejected(self, seed):
        # True used to be echoed as JSON true, and 1.0 raised numpy's TypeError
        with pytest.raises(ValueError, match="seed must be a nonnegative integer"):
            run_session(fig_session(10), seed)

    def test_numpy_integer_seed_echoed_as_int(self):
        # np.int64 used to make json.dumps of the report raise TypeError
        d = run_session(fig_session(1000), seed=np.int64(3)).to_dict()
        assert json.dumps(d["seed"]) == "3"
        assert d == run_session(fig_session(1000), seed=3).to_dict()

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="positive and finite"):
            fig_session(10, mu=mu)

    @pytest.mark.parametrize("mu", [True, np.True_, "0.7", 0.7 + 0j],
                             ids=["True", "np.True_", "str", "complex"])
    def test_non_real_mu_rejected(self, mu):
        # True used to pass 0 < mu < inf and be echoed as JSON true
        with pytest.raises(ValueError, match="mu must be a real number"):
            fig_session(10, mu=mu)

    @pytest.mark.parametrize("field", ["eta_det", "p_dark", "alpha_db_per_km", "e_mis",
                                       "f_ec", "length_km"])
    @pytest.mark.parametrize("value", [True, False, np.True_], ids=["True", "False", "np.True_"])
    def test_bool_model_input_rejected(self, field, value):
        # length_km=True used to be echoed as JSON true
        build = {
            "eta_det": lambda v: _rebuilt(FIG_MODEL, eta_det=v),
            "p_dark": lambda v: _rebuilt(FIG_MODEL, p_dark=v),
            "alpha_db_per_km": lambda v: _rebuilt(FIG_MODEL, alpha_db_per_km=v),
            "e_mis": lambda v: _rebuilt(FIG_MODEL, e_mis=v),
            "f_ec": lambda v: _rebuilt(FIG_MODEL, f_ec=v),
            "length_km": lambda v: fig_session(10, length_km=v),
        }[field]
        with pytest.raises(ValueError, match=f"{field} must be a real number"):
            build(value)

    @pytest.mark.parametrize("mu", [1, np.int64(1), np.float32(0.5)],
                             ids=["int", "np.int64", "np.float32"])
    def test_real_mu_echoed_as_float(self, mu):
        d = run_session(fig_session(1000, mu=mu), seed=3).to_dict()
        assert json.dumps(d["config"]["mu"]) == repr(float(mu))

    @pytest.mark.parametrize("field, value", [("eta_det", 1), ("p_dark", 0), ("alpha_db_per_km", 0),
                                              ("e_mis", 0), ("f_ec", 2), ("length_km", 10)])
    @pytest.mark.parametrize("kind", [np.int64, np.float32], ids=["np.int64", "np.float32"])
    def test_numpy_model_input_echoed_as_json_number(self, field, value, kind):
        # a numpy scalar used to be stored as given, and json.dumps of the report raised TypeError
        params = fig_session(1000, length_km=kind(value)) if field == "length_km" else _rebuilt(
            fig_session(1000, length_km=10.0), model=_rebuilt(FIG_MODEL, **{field: kind(value)}))
        config = json.loads(json.dumps(run_session(params, seed=3).to_dict()))["config"]
        assert config["p_dark_per_detector" if field == "p_dark" else field] == value

    @pytest.mark.parametrize("f_ec", [0.9, math.inf, math.nan])
    def test_invalid_f_ec_rejected(self, f_ec):
        with pytest.raises(ValueError, match="f_ec"):
            _rebuilt(fig_session(10), model=_rebuilt(FIG_MODEL, f_ec=f_ec))

    def test_rate_per_pulse_is_key_length_per_pulse(self):
        rep = run_session(fig_session(200_000), seed=8)
        assert rep.secret_key_length > 0.0
        assert rep.rate_per_pulse * rep.params.n_pulses == pytest.approx(rep.secret_key_length, rel=1e-15)
        d = rep.to_dict()
        assert "q" not in d["config"] and "q_config" not in d["key"]


# chi^2 with 27 degrees of freedom exceeds this with probability 1e-6: the
# bisection of _chi2_survival(x, 27) = 1e-6 in double precision
CHI2_27_AT_1E_6 = 77.18817312479231


def _chi2_survival(x, k):
    """P(chi^2_k > x) for odd k (Abramowitz and Stegun 26.4.4):
    erfc(sqrt(x/2)) + sqrt(2x/pi) e^(-x/2) sum_{r=1}^{(k-1)/2} x^(r-1) / (1 3 ... (2r-1))."""
    total, term = 0.0, 1.0
    for r in range(1, (k + 1) // 2):
        total += term
        term *= x / (2 * r + 1)
    return math.erfc(math.sqrt(x / 2)) + math.sqrt(2 * x / math.pi) * math.exp(-x / 2) * total


def _g_statistic(rep, params):
    """G = 2 sum O ln(O / E) of a report's 28 counts (its 27 cells and the
    unmatched pulses) against the cell probabilities of ``params``."""
    observed = np.append(rep.counts.ravel(), params.n_pulses - rep.matched_pulses)
    expected = params.n_pulses * _cell_probabilities(params)
    seen = observed > 0
    return 2.0 * float(np.sum(observed[seen] * np.log(observed[seen] / expected[seen])))


class TestWholeVector:
    """One calibrated test of all 28 counts of a session against its cells.

    G is asymptotically chi^2 with 27 degrees of freedom.  At 10^9 pulses the
    smallest expected cell (a vacuum dark count) holds ~370 counts, so the
    asymptotic law applies; each session is compared with the 1e-6 quantile.
    """

    def test_quantile_constant(self):
        assert _chi2_survival(CHI2_27_AT_1E_6, 27) == pytest.approx(1e-6, rel=1e-9)
        assert _chi2_survival(40.1133, 27) == pytest.approx(0.05, abs=1e-5)  # tabulated 95 %
        assert _chi2_survival(1.0, 1) == pytest.approx(math.erfc(math.sqrt(0.5)), rel=1e-15)

    @pytest.mark.parametrize("length_km", [0.0, 100.0])
    def test_counts_fit_their_cells(self, length_km):
        params = fig_session(10**9, length_km)
        gs = np.array([_g_statistic(run_session(params, seed), params) for seed in range(200)])
        assert gs.max() <= CHI2_27_AT_1E_6, gs.max()  # false alarm 2e-4 over the 200
        # the mean of 200 draws of chi^2_27 is 27 with standard deviation 0.52
        assert abs(gs.mean() - 27.0) <= 2.0, gs.mean()

    def test_a_wrong_model_fails(self):
        params = fig_session(10**9)
        drawn = _rebuilt(params, model=_rebuilt(FIG_MODEL, e_mis=0.02))
        assert _g_statistic(run_session(drawn, 1), params) > CHI2_27_AT_1E_6


def _photon_by_photon(params, seed):
    """A session simulated pulse by pulse from the stated model, as a report:
    a setting code uniform over 16 and Poisson(mu) photons, each registered
    on detector j with probability eta T[c, j] (T = ``click_table(e_mis)``)
    and lost otherwise, Bernoulli(p_dark) dark counts ORed in, and a lone
    click kept where the bases match, Bob's bit right exactly on the pair
    of ``agreement_detectors``.  It reads neither the cells nor the sift table."""
    n, model, eta = params.n_pulses, params.model, params.eta
    agree = np.zeros((16, 4), dtype=bool)
    matched = np.zeros(16, dtype=bool)
    for alice, bob in itertools.product(ALICE_SETTINGS, PATHS):
        if alice.basis is bob.basis:
            matched[_code(alice, bob)] = True
            agree[_code(alice, bob), np.array(agreement_detectors(alice, bob)) - 1] = True
    rng = np.random.default_rng(seed)
    code = rng.integers(16, size=n)
    photons = rng.poisson(params.mu, size=n)
    routes = np.column_stack([eta * click_table(model.e_mis), np.full(16, 1.0 - eta)])
    fired = rng.multinomial(photons, routes[code])[:, :4] > 0
    fired |= rng.random((n, 4)) < model.p_dark
    detector = fired.argmax(axis=1)
    sifted = np.where(fired.sum(axis=1) == 1, 4 * ~agree[code, detector] + detector, 8)
    cell = np.where(matched[code], 9 * np.minimum(photons, 2) + sifted, 27)
    return SessionReport(params, seed, np.bincount(cell, minlength=28)[:27].reshape(3, 9))


class TestPhotonByPhoton:
    """The session's cells against an independent photon-by-photon sampler.

    At 5 * 10^5 pulses every expected cell of these points holds at least 36
    counts, so G is close to chi^2 with 27 degrees of freedom.  Seeds and
    bound were fixed before the first run; do not re-pick them.
    """

    POINTS = {
        "bright_misaligned": (0.7, 0.0, RateParams(eta_det=1.0, p_dark=0.3, e_mis=0.25)),
        "multi_photon_random_bits": (5.0, 0.0, RateParams(eta_det=1.0, p_dark=0.05, e_mis=0.5)),
        "lossy": (2.0, 10.0, RateParams(eta_det=0.5, p_dark=0.01)),
    }

    @staticmethod
    def _params(name, e_mis=None):
        mu, length_km, model = TestPhotonByPhoton.POINTS[name]
        if e_mis is not None:
            model = _rebuilt(model, e_mis=e_mis)
        return SessionParams(n_pulses=500_000, mu=mu, length_km=length_km, model=model)

    @pytest.mark.parametrize("seed, name", enumerate(POINTS, start=101))
    def test_sampler_fits_the_cells(self, seed, name):
        params = self._params(name)
        expected = params.n_pulses * _cell_probabilities(params)
        assert expected.min() >= 30.0, expected.min()
        g = _g_statistic(_photon_by_photon(params, seed), params)
        assert g <= CHI2_27_AT_1E_6, g

    def test_a_wrong_model_fails(self):
        # drawn at e_mis = 0.015, compared with the cells of e_mis = 0.03
        rep = _photon_by_photon(self._params("lossy"), 104)
        assert _g_statistic(rep, self._params("lossy", e_mis=0.03)) > CHI2_27_AT_1E_6


def _poisson_classes(y):
    """P(Y = 0), P(Y = 1) and P(Y >= 2) of Y ~ Poisson(y), stacked on a new first axis."""
    e = np.exp(-y)
    return np.stack([e, y * e, -np.expm1(-y) - y * e])


def _array_cells(params):
    """The 28 cells derived on arrays: the photon classes of both roles at
    once, (3, 2), spread over D1..D4 with np.repeat and summed by numpy."""
    d, x = params.model.p_dark, params.mu * params.eta
    click, others = np.array(detector_routes(params.model.e_mis)).T
    n0, n1, n2 = _poisson_classes(x * click)
    u0, u1, u2 = _poisson_classes(params.mu * (1.0 - params.eta))
    fired_dark = d * n0
    lone = np.stack([fired_dark * u0,
                     fired_dark * u1 + n1 * u0,
                     fired_dark * u2 + n1 * (u1 + u2) + n2])
    lone *= (1.0 - d) ** 3 * np.exp(-x * others)
    sifted = np.repeat(lone / 4.0, 4, axis=1)
    share = _poisson_classes(params.mu) / 2.0
    rest = np.maximum(share - sifted.sum(axis=1), 0.0)
    return np.append(np.column_stack([sifted, rest]), 0.5)


class TestCellProbabilities:
    def test_cells_are_the_array_derivation_bit_for_bit(self):
        """On 2400 seeded points, each parameter at one of its edges a
        quarter of the time each, the cells equal _array_cells byte for
        byte; at mu = 1e300 they are finite, nonnegative and sum to 1."""
        rng = np.random.default_rng(29)
        edges_and_draws = {
            "mu": ((1e-3, 1e300), lambda: 10.0 ** rng.uniform(-3.0, 1.5)),
            "eta_det": ((0.0, 1.0), rng.uniform),
            "p_dark": ((0.0, 1.0 - 1e-9), lambda: 10.0 ** rng.uniform(-9.0, 0.0) * (1.0 - 1e-9)),
            "e_mis": ((0.0, 0.5), lambda: rng.uniform(0.0, 0.5)),
            "length_km": ((0.0, OPAQUE_KM), lambda: rng.uniform(0.0, 200.0)),
        }
        bright = 0
        for _ in range(2400):
            point = {}
            for name, (edges, draw) in edges_and_draws.items():
                k = int(rng.integers(4))
                point[name] = float(edges[k] if k < 2 else draw())
            model = RateParams(eta_det=point["eta_det"], p_dark=point["p_dark"], e_mis=point["e_mis"])
            params = SessionParams(n_pulses=1, mu=point["mu"], length_km=point["length_km"], model=model)
            cells = _cell_probabilities(params)
            assert cells.tobytes() == _array_cells(params).tobytes(), point
            if point["mu"] == 1e300:
                bright += 1
                assert np.isfinite(cells).all() and (cells >= 0.0).all(), point
                assert abs(cells.sum() - 1.0) <= 1e-15, point
        assert bright > 400

    def test_cells_reproduce_yield_table(self):
        """Summed per photon class and detector, the 28 cell probabilities
        give the yield table's Q, E Q, Y0, Y1 and e1 Y1, and per class the
        matched shares 1/2, e^-mu / 2 and mu e^-mu / 2, to 1e-12 relative."""
        points = list(itertools.product((1e-6, 0.05, 0.7, 5.0, 30.0), (0.0, 3e-6, 0.01, 0.5, 0.9),
                                        (0.0, 0.015, 0.25, 0.5), (0.0, 50.0, 200.0, OPAQUE_KM),
                                        (0.0, 0.145, 1.0)))
        cells, gain, err_gain, y0, y1, e1y1, shares = [], [], [], [], [], [], []
        for mu, p_dark, e_mis, length_km, eta_det in points:
            model = RateParams(eta_det=eta_det, p_dark=p_dark, e_mis=e_mis)
            cells.append(_cell_probabilities(SessionParams(
                n_pulses=1, mu=mu, length_km=length_km, model=model)))
            yt = yield_table(model, length_km)
            vacuum, single = math.exp(-mu) / 2, mu * math.exp(-mu) / 2
            gain.append(yt.gains(mu))
            err_gain.append(yt.gains(mu) * yt.qbers(mu))
            y0.append(vacuum * yt.y0)
            y1.append(single * yt.y1)
            e1y1.append(single * yt.e1 * yt.y1)
            shares.append([vacuum, single])
        cells = np.array(cells)
        classes = cells[:, :27].reshape(-1, 3, 9)
        sifted = classes[:, :, :8].reshape(-1, 3, 2, 4)  # (point, photon class, error, detector)

        def close(what, got, want):
            """assert_allclose over the grid, naming the points that fail."""
            ok = np.isclose(got, want, rtol=1e-12, atol=0.0).reshape(len(points), -1).all(axis=1)
            bad = [points[i] for i in np.flatnonzero(~ok)]
            assert not bad, (f"{what} off at {len(bad)} (mu, p_dark, e_mis, length_km, eta_det)"
                             f" points, first {bad[:5]}")

        negative = [points[i] for i in np.flatnonzero((cells < 0.0).any(axis=1))]
        assert not negative, f"negative cells at {negative[:5]}"
        close("Q", 2 * sifted.sum(axis=(1, 2)), gain)
        close("E Q", 2 * sifted[:, :, 1].sum(axis=1), err_gain)
        close("Y0", sifted[:, 0].sum(axis=1), y0)
        close("Y1", sifted[:, 1].sum(axis=1), y1)
        close("e1 Y1", sifted[:, 1, 1], e1y1)
        close("class shares", classes[:, :2].sum(axis=2), shares)
        halves = np.column_stack([classes.sum(axis=(1, 2)), cells[:, 27]])
        close("matched and unmatched halves", halves, 0.5)

    @pytest.mark.parametrize("mu", [1.0, 710.0, 1420.0, 1e4])
    @pytest.mark.parametrize("e_mis", [0.0, 0.015, 0.5])
    def test_bright_cells_stay_finite(self, mu, e_mis):
        cells = _cell_probabilities(SessionParams(
            n_pulses=1, mu=mu, length_km=0.0,
            model=RateParams(eta_det=1.0, p_dark=3.01e-6, e_mis=e_mis)))
        assert np.all(np.isfinite(cells)) and np.all(cells >= 0.0)
        assert cells.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bright_session_completes(self):
        """mu eta = 1e4: 10^7 pulses run with RuntimeWarnings raised as errors
        (the pytest configuration), and every pulse lights several detectors."""
        params = SessionParams(
            n_pulses=10_000_000, mu=1e4,
            length_km=0.0,
            model=RateParams(eta_det=1.0, p_dark=3.01e-6),
        )
        rep = run_session(params, seed=6)
        json.dumps(rep.to_dict())
        assert rep.matched_pulses > 0
        assert rep.vacuum_pulses == rep.single_pulses == rep.sifted_length == 0


def _pinned(n_pulses, mu=0.7, length_km=0.0, e_mis=0.015, eta_det=0.145, p_dark=0.01):
    return SessionParams(
        n_pulses=n_pulses, mu=mu,
        length_km=length_km,
        model=RateParams(eta_det=eta_det, p_dark=p_dark, e_mis=e_mis),
    )


# (params, seed, sha256 of the report's sorted-key JSON).  Recorded with
# numpy 2.4; the stream [seed, 0] and the cell order of the session module
# docstring fix them, so a change to either has to update them on purpose.
PINNED_REPORTS = {
    "cli_defaults_0km": (
        Config(distances=(0.0,)).session_params, 1,
        "59b61b8edf7a2be8596153a6ce2f681f7fab68921a172f1893551169f4d0885a"),
    "cli_defaults_100km": (
        Config(distances=(100.0,)).session_params, 1,
        "f02f6eb91244c6f9789885a9523b953b5fc9d760ef5f8774be9fd45b137af4df"),
    # perfbench's 10^7-pulse session workloads (session_0km, session_100km) at seed 1
    "benchmark_0km": (
        Config(distances=(0.0,), n_pulses=10**7).session_params, 1,
        "e1bb7bd4666485d0e80a0defe198bbfec01d75aa2489b003b6e3d5a4dbc9f216"),
    "benchmark_100km": (
        Config(distances=(100.0,), n_pulses=10**7).session_params, 1,
        "cd19b2c8688f3175687f21498b8f12decfb707bd603549af70060e151c8c8d49"),
    "bright_noisy": (
        _pinned(50_000, mu=5.0, e_mis=0.5, p_dark=0.9), 2,
        "da06d7c8a50b1584798ce4c31fcb555a07b7fabece43cafd831e5495d06ace24"),
    "saturated_dark": (
        _pinned(3000, length_km=10.0, p_dark=1 - 1e-9), 3,
        "c9d8523bca437feeb8430ba9db481081267e4f6542ab2db907e11bd17c9750c5"),
    "blind_detectors": (
        _pinned(100_000, eta_det=0.0), 4,
        "c695ad630e1bb9df216136ec9039e057ff127afb1b91ffd5eb7e9e8f0f85a86a"),
    "opaque_fiber": (
        _pinned(100_000, length_km=OPAQUE_KM), 5,
        "87e50fc9bd814e979b91002c023ead581e5afa7bf84ba77c334acc333c5da0b2"),
    "one_pulse": (
        _pinned(1, mu=3.0, eta_det=1.0, p_dark=0.3), 18,
        "345c45b3a00e3b2099af95f1f651264836d4f4a9d6441c8a30a13d7dc5df6186"),
}


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_report_bytes_are_pinned(name):
    """Same (config, seed), same report bytes: the session's draw and tallies
    may be reorganized only in ways that keep every report identical."""
    params, seed, digest = PINNED_REPORTS[name]
    text = json.dumps(run_session(params, seed).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# Session configurations drawn over the edges of the model's domain, for the
# report writer's oracle test: (n_pulses, mu, length_km, eta_det, p_dark, e_mis, f_ec)
_EDGE_CHOICES = ([1, 7, 1000, 100_000], [5e-324, 1e-3, 0.7, 9.5, 1e6], [0.0, 5e-324, 37.25, 250.0, OPAQUE_KM],
                 [0.0, 0.145, 1.0], [0.0, 1e-7, 0.5, 1 - 1e-16], [0.0, 0.015, 0.5], [1.0, 1.16, 1e300])
_edge_rng = np.random.default_rng(34)
EDGE_SESSIONS = [tuple(choices[_edge_rng.integers(len(choices))] for choices in _EDGE_CHOICES)
                 for _ in range(40)]


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_report_writer_matches_json(name):
    """The CLI writes a report as json.dumps(..., sort_keys=True, indent=2), byte for byte."""
    params, seed, _ = PINNED_REPORTS[name]
    report = run_session(params, seed).to_dict()
    assert _report_json(report) == json.dumps(report, sort_keys=True, indent=2)


def test_report_writer_matches_json_over_the_domain_edges():
    for i, (n, mu, length, eta_det, p_dark, e_mis, f_ec) in enumerate(EDGE_SESSIONS):
        model = RateParams(eta_det=eta_det, p_dark=p_dark, e_mis=e_mis, f_ec=f_ec)
        report = run_session(SessionParams(n, mu, length, model), i).to_dict()
        assert _report_json(report) == json.dumps(report, sort_keys=True, indent=2), EDGE_SESSIONS[i]


@pytest.mark.parametrize("leaf", [math.nan, math.inf, -math.inf])
def test_report_writer_rejects_non_finite_floats(leaf):
    report = run_session(*PINNED_REPORTS["one_pulse"][:2]).to_dict()
    for value in (leaf, [0.5, leaf], {"key": {"q_sift_effective": leaf}}):
        with pytest.raises(ValueError, match="finite"):
            _report_json(report | {"seed": value})


@pytest.mark.parametrize("leaf", [True, None, "0.5", np.float64(0.5), np.int64(1), (1, 2)],
                         ids=["bool", "None", "str", "float64", "int64", "tuple"])
def test_report_writer_rejects_other_types(leaf):
    """json would write a numpy float or a tuple too, but a report holds neither."""
    report = run_session(*PINNED_REPORTS["one_pulse"][:2]).to_dict()
    for value in (leaf, [0.5, leaf], [[leaf]]):
        with pytest.raises(TypeError):
            _report_json(report | {"seed": value})


def test_ratios_are_numpys_quotients():
    """Each ratio method gives the float64 quotient of the tallies that numpy
    divides, 0.0 where the denominator is 0, for counts up to 2**53."""
    rng = np.random.default_rng(53)
    for high in (1, 3, 10**6, 2**50):
        counts = rng.integers(0, high, size=(3, 9), endpoint=True)
        counts[rng.random((3, 9)) < 0.3] = 0
        rep = SessionReport(fig_session(10**6), 0, counts)
        expected = {
            "gains": rep.successes / max(rep.matched_pulses, 1),
            "qbers": np.where(rep.successes > 0, rep.errors / np.maximum(rep.successes, 1), 0.0),
            "vacuum_yields": rep.vacuum_successes / max(rep.vacuum_pulses, 1),
            "single_yields": rep.single_successes / max(rep.single_pulses, 1),
            "single_qbers": np.where(rep.single_successes > 0,
                                     rep.single_errors / np.maximum(rep.single_successes, 1), 0.0),
        }
        for method, want in expected.items():
            got = getattr(rep, method)()
            assert got.dtype == np.float64 and got.shape == (4,)
            assert got.tobytes() == want.tobytes(), (high, method)
        per_detector = rep.to_dict()["per_detector"]
        assert per_detector["gains"] == rep.gains().tolist()
        assert per_detector["single_photon"]["qbers"] == rep.single_qbers().tolist()


def _rate_terms_from(gains, err_gains, yt, params, mu):
    """Per-detector unclamped rate terms from (possibly tallied) gains."""
    p0, p1 = math.exp(-mu), mu * math.exp(-mu)

    def h(x):
        return 0.0 if x <= 0.0 or x >= 1.0 else -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    out = np.zeros(4)
    for i in range(4):
        qber = err_gains[i] / gains[i] if gains[i] > 0 else 0.0
        out[i] = (
            p0 * yt.y0[i]
            + p1 * yt.y1[i] * (1 - h(yt.e1[i]))
            - gains[i] * params.f_ec * h(qber)
        )
    return out


def test_key_length_is_the_numpy_oracles_bit_for_bit():
    """secret_key_length, in Python floats, has the repr of the numpy-array
    oracle's on 10^4 seeded sessions over the model's domain: random models,
    mu in [1e-3, 30], up to 2**60 pulses (past 2**53 a count's conversion to
    float before dividing matters), detectors without successes, p_dark near 1
    and e_mis = 0.5."""
    rng = np.random.default_rng(38)
    seen = {"past 2**53": 0, "a detector without successes": 0, "positive": 0}
    for seed in range(10_000):
        model = RateParams(
            eta_det=rng.choice([rng.random(), 1.0, 1e-3 * rng.random()]),
            p_dark=rng.choice([0.0, 1e-5 * rng.random(), rng.random(), 1.0 - 10.0 ** -rng.uniform(1, 15)]),
            alpha_db_per_km=rng.uniform(0.0, 0.5), e_mis=rng.choice([0.0, 0.5, 0.5 * rng.random()]),
            f_ec=rng.uniform(1.0, 1.5))
        params = SessionParams(n_pulses=int(2.0 ** rng.uniform(0.0, 60.0)), mu=10.0 ** rng.uniform(-3.0, 1.477),
                               length_km=rng.uniform(0.0, 100.0), model=model)
        counts = rng.multinomial(params.n_pulses, _cell_probabilities(params))[:27].reshape(3, 9)
        if seed % 3 == 0:
            detector = rng.integers(4)
            counts[:, [detector, detector + 4]] = 0
        rep = SessionReport(params, seed, counts)
        assert repr(rep.secret_key_length) == repr(numpy_secret_key_length(rep)), (seed, params)
        seen["past 2**53"] += rep.matched_pulses > 2**53
        seen["a detector without successes"] += 0 in rep.successes
        seen["positive"] += rep.secret_key_length > 0.0
    assert min(seen.values()) >= 500, seen


class TestAnalyticRateAgreesWithSessions:
    def test_key_length_from_hand_set_tallies(self):
        """The report's key is matched x sum of the clamped per-detector terms;
        D2 has no successes and gives nothing, D3's QBER is too high for key."""
        params = fig_session(1_000_000, length_km=25.0)
        counts = np.zeros((3, 9), dtype=np.int64)
        counts[1, :8] = [3940, 0, 2500, 4030, 60, 0, 1400, 70]  # error 0, then error 1
        counts[:, 8] = [300_000, 100_000, 88_000]  # matched pulses that are not sifted
        rep = SessionReport(params=params, seed=0, counts=counts)
        assert rep.matched_pulses == 500_000
        np.testing.assert_array_equal(rep.successes, [4000, 0, 3900, 4100])
        np.testing.assert_array_equal(rep.errors, [60, 0, 1400, 70])
        terms = _rate_terms_from(rep.gains(), rep.errors / rep.matched_pulses,
                                 yield_table(FIG_MODEL, 25.0), FIG_MODEL, params.mu)
        assert terms[1] > 0.0 and terms[2] < 0.0 < min(terms[0], terms[3])
        expected = rep.matched_pulses * (terms[0] + terms[3])
        assert rep.secret_key_length == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_rate_from_tallies_matches_analytic_on_grid(self):
        """Key rate recomputed from session tallies tracks the analytic rate.

        A 20x20 (length, mu) grid of 1e5-pulse sessions; per detector the
        deviation is compared against the delta-method standard error of the
        tally-substituted rate (binomial variances of the gain and of the
        error-weighted gain, with their covariance).  A fixed seed keeps the
        run reproducible; a small budget of >3 sigma excursions is allowed
        because 1600 comparisons are made.
        """
        params = FIG_MODEL
        lengths = np.linspace(0.0, 60.0, 20)
        mus = np.linspace(0.1, 1.5, 20)
        n_pulses = 100_000
        zs = []
        for li, length in enumerate(lengths):
            yt = yield_table(params, length)
            for mi, mu in enumerate(mus):
                rep = run_session(
                    SessionParams(
                        n_pulses=n_pulses, mu=mu,
                        length_km=length,
                        model=FIG_MODEL,
                    ),
                    seed=1000 + 20 * li + mi,
                )
                nm = rep.matched_pulses
                gains = yt.gains(mu)
                err_gains = gains * yt.qbers(mu)
                analytic = _rate_terms_from(gains, err_gains, yt, params, mu)
                tallied = _rate_terms_from(
                    rep.gains(), rep.errors / max(nm, 1), yt, params, mu
                )
                for i in range(4):
                    q_, w_ = gains[i], err_gains[i]
                    e_ = w_ / q_
                    hp = math.log2((1 - e_) / e_)
                    h_ = -e_ * math.log2(e_) - (1 - e_) * math.log2(1 - e_)
                    var = params.f_ec ** 2 * (
                        (h_ - e_ * hp) ** 2 * q_ * (1 - q_)
                        + hp**2 * w_ * (1 - w_)
                        + 2 * (h_ - e_ * hp) * hp * w_ * (1 - q_)
                    ) / nm
                    zs.append((tallied[i] - analytic[i]) / math.sqrt(var))
        zs = np.abs(np.array(zs))
        assert np.mean(zs > 3.0) < 0.015
        assert np.max(zs) < 5.0
