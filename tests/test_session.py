"""Tests for sifting, the Monte Carlo session, and its agreement with the
analytic model."""

import dataclasses
import json
import math

import numpy as np
import pytest

from ddiqkd.bsm import DetectorParams, click_table
from ddiqkd.channel import ChannelParams
from ddiqkd.encoding import (
    ALICE_SETTINGS,
    Basis,
    Bb84Setting,
    PathSetting,
    agreement_detectors,
)
from ddiqkd.rates import RateParams, yield_table
from ddiqkd.session import (
    SessionParams,
    SessionReport,
    _run_shard,
    projected_qber_from_visibility,
    run_session,
    sift,
)

PATHS = (PathSetting.A, PathSetting.C, PathSetting.B0, PathSetting.BPI)
TALLIES = tuple(f.name for f in dataclasses.fields(SessionReport) if f.name not in ("params", "seed"))

FIG_DETECTOR = DetectorParams(eta_det=0.145, p_dark=3.01e-6)


def fig_session(n_pulses, length_km=0.0, mu=0.7):
    return SessionParams(
        n_pulses=n_pulses,
        mu=mu,
        channel=ChannelParams(0.2, length_km, 0.015),
        detector=FIG_DETECTOR,
    )


def _assert_tallies_match_model(rep):
    """|z| <= 4 on every gain, QBER, vacuum and single-photon yield and
    single-photon QBER of a session against the yield table."""
    params = rep.params
    rate_params = RateParams(detector=params.detector, alpha_db_per_km=params.channel.alpha_db_per_km,
                             e_mis=params.channel.e_mis)
    yt = yield_table(rate_params, params.channel.length_km)
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


def _code(alice, bob):
    """Setting code 4 * alice_state + bob_setting of one pulse."""
    return 4 * ALICE_SETTINGS.index(alice) + PATHS.index(bob)


def _sift_one(alice, bob, detector):
    """`sift` of one lone click on 1-based ``detector``: (matched, Bob's bit)."""
    matched, bob_bit = sift(np.array([_code(alice, bob)]), np.array([detector - 1]))
    return bool(matched[0]), int(bob_bit[0])


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
            channel=ChannelParams(0.2, 0.0, 0.015),
            detector=DetectorParams(eta_det=0.145, p_dark=1 - 1e-9),
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
        # every (Alice state, Bob setting) code against every lone detector
        code, detector = np.divmod(np.arange(64), 4)
        matched, bob_bit = sift(code, detector)
        for c, d, m, b in zip(code, detector, matched, bob_bit):
            bit = _scalar_sift(ALICE_SETTINGS[c >> 2], PATHS[c & 3], int(d) + 1)
            assert m == (bit is not None), (c, d)
            if bit is not None:
                assert b == bit, (c, d)


class TestProjectedQber:
    def test_perfect_interference(self):
        assert projected_qber_from_visibility(1.0) == 0.0

    def test_reference_visibility(self):
        assert projected_qber_from_visibility(0.884) == pytest.approx(0.058, abs=1e-12)

    def test_no_interference(self):
        assert projected_qber_from_visibility(0.0) == 0.5

    def test_domain(self):
        with pytest.raises(ValueError):
            projected_qber_from_visibility(1.1)


class TestRunSession:
    def test_deterministic_given_seed(self):
        params = fig_session(200_000)
        a = run_session(params, seed=42).to_dict()
        b = run_session(params, seed=42).to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
        c = run_session(params, seed=43).to_dict()
        assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)

    def test_sharding_does_not_change_totals(self):
        # a session is the field-wise sum of its shards, each drawn from the
        # stream [seed, shard], including a short last shard
        params = SessionParams(
            n_pulses=25_000, mu=0.7,
            channel=ChannelParams(0.2, 0.0, 0.015),
            detector=DetectorParams(eta_det=0.145, p_dark=0.01),
            shard_size=10_000,
        )
        rep = run_session(params, seed=5)
        total = {name: 0 for name in TALLIES}
        for shard, n in enumerate((10_000, 10_000, 5_000)):
            part = SessionReport(params=params, seed=5)
            _run_shard(part, n, np.random.default_rng([5, shard]), click_table(0.015))
            for name in TALLIES:
                total[name] = total[name] + getattr(part, name)
        assert rep.sifted_length > 0
        for name in TALLIES:
            np.testing.assert_array_equal(getattr(rep, name), total[name], err_msg=name)

    def test_dark_free_vacuum_never_clicks(self):
        params = SessionParams(
            n_pulses=50_000, mu=1e-9,
            channel=ChannelParams(0.2, 0.0, 0.0),
            detector=DetectorParams(eta_det=1.0, p_dark=0.0),
        )
        rep = run_session(params, seed=1)
        assert rep.sifted_length == 0
        assert rep.secret_key_length == 0.0

    def test_vacuum_yield_unbiased_at_high_dark_rate(self):
        # each detector must dark-fire with probability d per gate; scattering
        # its dark counts with replacement fires it with about 1 - exp(-d)
        d = 0.1
        params = SessionParams(
            n_pulses=1_000_000, mu=0.05,
            channel=ChannelParams(0.2, 0.0, 0.015),
            detector=DetectorParams(eta_det=0.145, p_dark=d),
        )
        rep = run_session(params, seed=17)
        y0 = d * (1 - d) ** 3
        se = math.sqrt(y0 * (1 - y0) / rep.vacuum_pulses)
        z = (rep.vacuum_yields() - y0) / se
        assert np.all(np.abs(z) <= 4.0), z

    def test_noiseless_sessions_have_zero_qber(self):
        params = SessionParams(
            n_pulses=200_000, mu=0.7,
            channel=ChannelParams(0.0, 0.0, 0.0),
            detector=DetectorParams(eta_det=1.0, p_dark=0.0),
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
        detector = DetectorParams(eta_det=1.0, p_dark=0.05)
        params = SessionParams(
            n_pulses=400_000, mu=3.0,
            channel=ChannelParams(0.2, 0.0, 0.25), detector=detector,
        )
        _assert_tallies_match_model(run_session(params, seed=2718))

    def test_unregistered_photons_count_in_photon_number(self):
        """With eta < 1 a pulse's photon number is its registered plus its
        unregistered photons, so single-photon pulses mostly stay dark.

        Seed and bound were fixed before the first run; do not re-pick them.
        """
        params = SessionParams(
            n_pulses=400_000, mu=3.0,
            channel=ChannelParams(0.2, 10.0, 0.25),
            detector=DetectorParams(eta_det=0.5, p_dark=0.05),
        )
        _assert_tallies_match_model(run_session(params, seed=2719))

    @pytest.mark.parametrize("eta_det, length_km, p_dark", [(0.5, 10.0, 0.3), (1.0, 0.0, 0.01)])
    def test_pulse_counts_follow_the_source(self, eta_det, length_km, p_dark):
        """Matched, vacuum and single-photon pulse counts are binomial in the
        session length with p = 1/2, e^-mu / 2 and mu e^-mu / 2.

        At p_dark = 0.3 most pulses carry a dark count and are drawn one by
        one; at eta_det = 1, 0 km every photon registers, so the pulses drawn
        as a block are all vacuum.  Seed and bound were fixed before the
        first run; do not re-pick them.
        """
        mu, n = 1.0, 400_000
        params = SessionParams(
            n_pulses=n, mu=mu,
            channel=ChannelParams(0.2, length_km, 0.015),
            detector=DetectorParams(eta_det=eta_det, p_dark=p_dark),
        )
        rep = run_session(params, seed=99)
        counts = np.array([rep.matched_pulses, rep.vacuum_pulses, rep.single_pulses])
        p = np.array([1.0, math.exp(-mu), mu * math.exp(-mu)]) / 2
        z = (counts - n * p) / np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(z) <= 4.0), z

    @pytest.mark.parametrize("n_pulses", [1, 1000])
    @pytest.mark.parametrize("eta_det, length_km, p_dark", [
        (0.0, 0.0, 0.01),           # nothing registers
        (0.145, math.inf, 0.01),    # nothing survives the channel
        (1.0, 0.0, 0.01),           # every photon registers
        (0.145, 10.0, 1 - 1e-9),    # every detector dark-fires
    ])
    def test_edge_shards_keep_tally_invariants(self, n_pulses, eta_det, length_km, p_dark):
        params = SessionParams(
            n_pulses=n_pulses, mu=0.7,
            channel=ChannelParams(0.2, length_km, 0.015),
            detector=DetectorParams(eta_det=eta_det, p_dark=p_dark),
        )
        for seed in range(5):
            rep = run_session(params, seed=seed)
            json.dumps(rep.to_dict())
            assert rep.sifted_length == rep.successes.sum()
            assert rep.vacuum_pulses + rep.single_pulses <= rep.matched_pulses <= n_pulses
            assert np.all(rep.errors <= rep.successes)
            assert np.all(rep.vacuum_successes + rep.single_successes <= rep.successes)
            assert np.all(rep.single_errors <= rep.single_successes)

    def test_sifted_fraction_matches_basis_probability(self):
        params = fig_session(1_000_000)
        rep = run_session(params, seed=21)
        n = params.n_pulses
        se = math.sqrt(0.25 / n)
        assert rep.matched_pulses / n == pytest.approx(0.5, abs=3 * se)
        q_total = yield_table(RateParams(detector=FIG_DETECTOR), 0.0).gains(0.7).sum()
        se_q = math.sqrt(q_total * (1 - q_total) / rep.matched_pulses)
        assert rep.sifted_length / rep.matched_pulses == pytest.approx(q_total, abs=3 * se_q)

    def test_tallies_match_analytic_model(self):
        params = fig_session(1_000_000)
        rep = run_session(params, seed=31)
        yt = yield_table(RateParams(detector=FIG_DETECTOR), 0.0)
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
        assert d["config"]["p_dark_per_detector"] == FIG_DETECTOR.p_dark
        assert d["seed"] == 3
        assert set(d["per_detector"]) >= {"gains", "qbers", "vacuum", "single_photon"}

    def test_validation(self):
        with pytest.raises(ValueError):
            SessionParams(n_pulses=0, mu=0.7,
                          channel=ChannelParams(), detector=FIG_DETECTOR)
        with pytest.raises(ValueError):
            SessionParams(n_pulses=10, mu=0.0,
                          channel=ChannelParams(), detector=FIG_DETECTOR)
        with pytest.raises(ValueError):
            run_session(fig_session(10), seed=-1)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_non_finite_mu_rejected(self, mu):
        with pytest.raises(ValueError, match="positive and finite"):
            fig_session(10, mu=mu)

    @pytest.mark.parametrize("f_ec", [0.9, math.inf, math.nan])
    def test_invalid_f_ec_rejected(self, f_ec):
        with pytest.raises(ValueError, match="f_ec"):
            dataclasses.replace(fig_session(10), f_ec=f_ec)

    def test_rate_per_pulse_is_key_length_per_pulse(self):
        rep = run_session(fig_session(200_000), seed=8)
        assert rep.secret_key_length > 0.0
        assert rep.rate_per_pulse * rep.params.n_pulses == pytest.approx(rep.secret_key_length, rel=1e-15)
        d = rep.to_dict()
        assert "q" not in d["config"] and "q_config" not in d["key"]


def _rate_terms_from(gains, err_gains, yt, params, mu):
    """Per-detector unclamped rate terms from (possibly tallied) gains."""
    p0, p1 = math.exp(-mu), mu * math.exp(-mu)

    def h(x):
        return 0.0 if x <= 0.0 or x >= 1.0 else -x * math.log2(x) - (1 - x) * math.log2(1 - x)

    out = np.zeros(4)
    for i in range(4):
        qber = err_gains[i] / gains[i] if gains[i] > 0 else 0.0
        out[i] = params.q * (
            p0 * yt.y0[i]
            + p1 * yt.y1[i] * (1 - h(yt.e1[i]))
            - gains[i] * params.f_ec * h(qber)
        )
    return out


class TestAnalyticRateAgreesWithSessions:
    def test_key_length_from_hand_set_tallies(self):
        """The report's key is matched x sum of the clamped per-detector terms;
        D2 has no successes and gives nothing, D3's QBER is too high for key."""
        params = fig_session(1_000_000, length_km=25.0)
        rep = SessionReport(params=params, seed=0, matched_pulses=500_000,
                            successes=np.array([4000, 0, 3900, 4100]),
                            errors=np.array([60, 0, 1400, 70]))
        rate_params = RateParams(detector=FIG_DETECTOR)
        terms = _rate_terms_from(rep.gains(), rep.errors / rep.matched_pulses,
                                 yield_table(rate_params, 25.0), rate_params, params.mu)
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
        params = RateParams(detector=FIG_DETECTOR)
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
                        channel=ChannelParams(0.2, length, 0.015),
                        detector=FIG_DETECTOR,
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
                    var = (params.q * params.f_ec) ** 2 * (
                        (h_ - e_ * hp) ** 2 * q_ * (1 - q_)
                        + hp**2 * w_ * (1 - w_)
                        + 2 * (h_ - e_ * hp) * hp * w_ * (1 - q_)
                    ) / nm
                    zs.append((tallied[i] - analytic[i]) / math.sqrt(var))
        zs = np.abs(np.array(zs))
        assert np.mean(zs > 3.0) < 0.015
        assert np.max(zs) < 5.0
