"""Tests for the Bell measurement models and the detector layer."""

import numpy as np
import pytest

from ddiqkd.bsm import (
    THEORY_ROWS,
    DetectorParams,
    click_table,
    ideal_bsm_distribution,
    mode_network_distribution,
    mode_network_matrix,
    theory_table,
)
from ddiqkd.channel import ChannelParams
from ddiqkd.encoding import (
    ALICE_SETTINGS,
    Basis,
    Bb84Setting,
    PathSetting,
    agreement_detectors,
    apply_lon,
    bb84_state,
)
from ddiqkd.qstate import PureState, haar_amplitudes
from ddiqkd.rates import RateParams, yield_table
from ddiqkd.session import _LONE_CLICK, SessionParams, run_session, sift

PATHS = (PathSetting.A, PathSetting.C, PathSetting.B0, PathSetting.BPI)


class TestIdealDistribution:
    def test_h_through_a(self):
        state = apply_lon(PathSetting.A, bb84_state(Bb84Setting(Basis.RECTILINEAR, 0)))
        np.testing.assert_allclose(ideal_bsm_distribution(state), [0.5, 0.5, 0, 0], atol=1e-14)

    def test_plus45_through_b0(self):
        state = apply_lon(PathSetting.B0, bb84_state(Bb84Setting(Basis.DIAGONAL, 0)))
        np.testing.assert_allclose(ideal_bsm_distribution(state), [0.5, 0, 0.5, 0], atol=1e-14)

    def test_plus45_through_bpi(self):
        state = apply_lon(PathSetting.BPI, bb84_state(Bb84Setting(Basis.DIAGONAL, 0)))
        np.testing.assert_allclose(ideal_bsm_distribution(state), [0, 0.5, 0, 0.5], atol=1e-14)

    def test_matched_settings_hit_a_single_pair(self):
        pairs = set()
        for alice in ALICE_SETTINGS:
            for path in PATHS:
                if alice.basis is not path.basis:
                    continue
                dist = ideal_bsm_distribution(apply_lon(path, bb84_state(alice)))
                support = tuple(np.flatnonzero(dist > 1e-12) + 1)
                assert support == agreement_detectors(alice, path)
                pairs.add(support)
        assert pairs == {(1, 2), (3, 4), (1, 3), (2, 4)}


class TestModeNetwork:
    def test_network_is_unitary(self):
        m = mode_network_matrix()
        np.testing.assert_allclose(m @ m.conj().T, np.eye(4), atol=1e-14)

    def test_matches_projector_model_on_settings(self):
        for alice in ALICE_SETTINGS:
            for path in PATHS:
                state = apply_lon(path, bb84_state(alice))
                np.testing.assert_allclose(
                    mode_network_distribution(state),
                    ideal_bsm_distribution(state),
                    atol=1e-12,
                )

    def test_matches_projector_model_on_haar_states(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(300):
            state = PureState(haar_amplitudes(4, rng), ("pol", "path"))
            worst = max(worst, np.max(np.abs(
                mode_network_distribution(state) - ideal_bsm_distribution(state))))
        assert worst < 1e-12

    def test_v_through_c(self):
        state = apply_lon(PathSetting.C, bb84_state(Bb84Setting(Basis.RECTILINEAR, 1)))
        np.testing.assert_allclose(mode_network_distribution(state), [0.5, 0.5, 0, 0], atol=1e-14)


class TestClickPattern:
    """The session's 4-bit click masks: bit d set means detector D(d+1) fired."""

    def test_success_requires_exactly_one(self):
        for pattern in range(16):
            clicks = bin(pattern).count("1")
            assert (_LONE_CLICK[pattern] >= 0) == (clicks == 1), pattern

    def test_outcome_detector_index(self):
        for detector in range(4):
            assert _LONE_CLICK[1 << detector] == detector
        assert _LONE_CLICK[0b0100] == 2
        assert _LONE_CLICK[0b0011] == -1
        assert _LONE_CLICK[0] == -1


def _session(n_pulses, mu, eta_det, p_dark):
    """A lossless, perfectly aligned session at the given detector settings."""
    return SessionParams(
        n_pulses=n_pulses, mu=mu,
        channel=ChannelParams(0.2, 0.0, 0.0),
        detector=DetectorParams(eta_det=eta_det, p_dark=p_dark),
    )


class TestDetect:
    """Threshold detection as the session simulates it: each photon registers
    with probability eta_det, each detector dark-fires with probability
    p_dark, and only a lone click counts."""

    def test_vacuum_noiseless_never_clicks(self):
        rep = run_session(_session(100_000, 0.7, eta_det=1.0, p_dark=0.0), seed=0)
        assert rep.vacuum_pulses > 0
        assert rep.vacuum_successes.sum() == 0

    def test_perfect_detector_single_photon(self):
        # every basis-matched one-photon pulse gives a lone click on its pair
        rep = run_session(_session(100_000, 0.7, eta_det=1.0, p_dark=0.0), seed=0)
        assert rep.single_pulses > 0
        assert rep.single_successes.sum() == rep.single_pulses
        assert rep.single_errors.sum() == 0

    def test_invalid_detector_index(self):
        # photons are routed over D1..D4 only, lone clicks name one of them,
        # and the sift rejects an index outside D1..D4 on either side
        route = click_table()
        assert route.shape == (16, 4)
        assert np.all(route >= 0.0)
        np.testing.assert_allclose(route.sum(axis=1), 1.0, atol=1e-15)
        assert set(_LONE_CLICK.tolist()) == {-1, 0, 1, 2, 3}
        for bad in (-1, 4):
            with pytest.raises(ValueError, match="detector index"):
                sift(np.array([0, 0]), np.array([0, bad]))

    def test_dark_only_single_click_rate(self):
        # P(exactly one click) = 4 p (1-p)^3 for independent dark counts;
        # nothing registers, so every sifted bit is a lone dark count
        p = 6.02e-6
        rep = run_session(_session(2_000_000, 0.7, eta_det=0.0, p_dark=p), seed=2024)
        trials = rep.matched_pulses
        assert trials >= 1_000_000
        hits = rep.sifted_length
        expected = 4 * p * (1 - p) ** 3
        se = np.sqrt(trials * expected * (1 - expected))
        assert abs(hits - trials * expected) <= 3 * se

    def test_inefficiency_drops_photons(self):
        # a lone photon registers with probability eta_det, on one detector
        rep = run_session(_session(200_000, 1.0, eta_det=0.3, p_dark=0.0), seed=9)
        trials = rep.single_pulses
        assert trials >= 20_000
        hits = rep.single_successes.sum()
        se = np.sqrt(trials * 0.3 * 0.7)
        assert abs(hits - 0.3 * trials) <= 3 * se

    def test_success_monotone_in_dark_rate_with_signal_present(self):
        # a photon detected at D1 succeeds iff no other detector dark-fires;
        # enumerate the dark patterns exactly and cross-check one point
        # against the analytic yield and by Monte Carlo
        def success_prob(p):
            total = 0.0
            for pattern in range(16):
                darks = [(pattern >> i) & 1 for i in range(4)]
                weight = np.prod([p if d else 1 - p for d in darks])
                clicks = [bool(d) for d in darks]
                clicks[0] = True  # the signal photon, eta_det = 1
                total += weight * (sum(clicks) == 1)
            return total

        probs = [success_prob(p) for p in (0.0, 1e-4, 0.05, 0.3, 0.7)]
        assert all(a >= b for a, b in zip(probs, probs[1:]))
        assert probs[0] == 1.0

        params = _session(300_000, 1.0, eta_det=1.0, p_dark=0.05)
        expected = success_prob(0.05)
        yt = yield_table(RateParams(detector=params.detector, e_mis=0.0), 0.0)
        assert yt.y1.sum() == pytest.approx(expected, rel=1e-12)
        rep = run_session(params, seed=77)
        trials = rep.single_pulses
        assert trials >= 50_000
        hits = rep.single_successes.sum()
        se = np.sqrt(trials * expected * (1 - expected))
        assert abs(hits - trials * expected) <= 3 * se

    def test_param_validation(self):
        with pytest.raises(ValueError):
            DetectorParams(eta_det=1.5, p_dark=0.0)
        with pytest.raises(ValueError):
            DetectorParams(eta_det=0.5, p_dark=1.0)


class TestTheoryTable:
    def test_ideal_visibility_reduces_to_projector_model(self):
        table = theory_table(1.0)
        for row, (alice, bob) in zip(table, THEORY_ROWS):
            expected = ideal_bsm_distribution(apply_lon(bob, bb84_state(alice)))
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_rows_sum_to_one_for_any_visibility(self):
        for vis in (0.0, 0.3, 0.884, 1.0):
            np.testing.assert_allclose(theory_table(vis).sum(axis=1), np.ones(8), atol=1e-12)

    def test_rectilinear_rows_visibility_independent(self):
        full = theory_table(1.0)
        degraded = theory_table(0.5)
        np.testing.assert_allclose(full[:4], degraded[:4], atol=1e-12)

    def test_diagonal_rows_leak_wrong_pair_mass(self):
        vis = 0.884
        table = theory_table(vis)
        ideal = theory_table(1.0)
        for r in range(4, 8):
            wrong = ideal[r] < 1e-12
            assert table[r][wrong].sum() == pytest.approx((1 - vis) / 2, abs=1e-12)
            np.testing.assert_allclose(table[r][wrong], (1 - vis) / 4, atol=1e-12)
            np.testing.assert_allclose(table[r][~wrong], (1 + vis) / 4, atol=1e-12)

    def test_visibility_range_checked(self):
        with pytest.raises(ValueError):
            theory_table(1.2)
