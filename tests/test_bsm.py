"""Tests for the Bell measurement models and the detector layer."""

import numpy as np
import pytest

from ddiqkd import bsm
from ddiqkd.bsm import (
    THEORY_ROWS,
    click_table,
    ideal_bsm_distribution,
    mode_network_distribution,
    mode_network_matrix,
    sift_table,
    theory_table,
)
from ddiqkd.cli import main
from ddiqkd.encoding import (
    ALICE_SETTINGS,
    PATH_SETTINGS,
    Basis,
    Bb84Setting,
    PathSetting,
    lon_states,
)
from ddiqkd.qstate import PureState, haar_amplitudes
from ddiqkd.rates import RateParams, detector_routes, yield_table
from ddiqkd.session import SessionParams, run_session

from oracles import agreement_detectors

PATHS = (PathSetting.A, PathSetting.C, PathSetting.B0, PathSetting.BPI)


def photon(alice, path):
    """Alice's BB84 photon through Bob's LON at ``path``: its row of lon_states()."""
    code = 4 * alice.index + PATH_SETTINGS.index(path)
    return PureState(lon_states().amps[code], ("pol", "path"))


class TestIdealDistribution:
    def test_h_through_a(self):
        state = photon(Bb84Setting(Basis.RECTILINEAR, 0), PathSetting.A)
        np.testing.assert_allclose(ideal_bsm_distribution(state), [0.5, 0.5, 0, 0], atol=1e-14)

    def test_plus45_through_b0(self):
        state = photon(Bb84Setting(Basis.DIAGONAL, 0), PathSetting.B0)
        np.testing.assert_allclose(ideal_bsm_distribution(state), [0.5, 0, 0.5, 0], atol=1e-14)

    def test_plus45_through_bpi(self):
        state = photon(Bb84Setting(Basis.DIAGONAL, 0), PathSetting.BPI)
        np.testing.assert_allclose(ideal_bsm_distribution(state), [0, 0.5, 0, 0.5], atol=1e-14)

    def test_matched_settings_hit_a_single_pair(self):
        pairs = set()
        for alice in ALICE_SETTINGS:
            for path in PATHS:
                if alice.basis is not path.basis:
                    continue
                dist = ideal_bsm_distribution(photon(alice, path))
                support = tuple(np.flatnonzero(dist > 1e-12) + 1)
                assert support == agreement_detectors(alice, path)
                pairs.add(support)
        assert pairs == {(1, 2), (3, 4), (1, 3), (2, 4)}


class TestModeNetwork:
    def test_network_is_unitary(self):
        m = mode_network_matrix()
        np.testing.assert_allclose(m @ m.conj().T, np.eye(4), atol=1e-14)

    def test_table_is_the_optical_layout(self):
        # recombining PBS (rows (H,arm1), (V,arm1), (H,arm2), (V,arm2)), then
        # the H -> +45, V -> -45 rotator in each arm; the final PBS per arm
        # maps (H,arm1), (V,arm1), (H,arm2), (V,arm2) to D1..D4
        pbs = np.array([[1, 0, 0, 0], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]], dtype=complex)
        had = np.array([[1, 1], [1, -1]]) / np.sqrt(2.0)
        rotators = np.kron(np.eye(2), had)
        assert mode_network_matrix().tobytes() == (rotators @ pbs).tobytes()

    def test_a_swapped_rotator_row_fails_the_check(self, monkeypatch, capsys):
        # the check compares the reports' Bell table with the network built
        # from its optical elements, so a wrong element fails it
        network = np.zeros((4, 4), dtype=complex)
        network[:, bsm._PBS_ORDER] = np.array(bsm._ROTATORS)[[1, 0, 2, 3]]  # arm 1's rows
        monkeypatch.setattr(bsm, "_NETWORK", network)
        assert main(["verify-appendix", "--samples", "100", "--seed", "7"]) == 1
        failed = [line.split() for line in capsys.readouterr().out.splitlines()
                  if line.startswith("FAIL")]
        assert [words[1] for words in failed] == ["bsm-model-equivalence:"]
        assert float(failed[0][4]) >= 0.5  # +45 through b0 alone moves half its mass

    def test_matrix_is_a_writable_copy(self):
        m = mode_network_matrix()
        m[0, 0] = 0.0
        assert mode_network_matrix()[0, 0] == 1.0 / np.sqrt(2.0)

    def test_matches_projector_model_on_settings(self):
        for alice in ALICE_SETTINGS:
            for path in PATHS:
                state = photon(alice, path)
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
        state = photon(Bb84Setting(Basis.RECTILINEAR, 1), PathSetting.C)
        np.testing.assert_allclose(mode_network_distribution(state), [0.5, 0.5, 0, 0], atol=1e-14)


def _session(n_pulses, mu, eta_det, p_dark):
    """A lossless, perfectly aligned session at the given detector settings."""
    return SessionParams(
        n_pulses=n_pulses, mu=mu,
        length_km=0.0,
        model=RateParams(eta_det=eta_det, p_dark=p_dark, e_mis=0.0),
    )


class TestDetectorRoutes:
    # the sessions weight each role 1/4 on every detector, and the rate
    # engine averages the two roles, so both rest on this reduction
    def test_sifted_cells_are_the_routes_bit_for_bit(self):
        sifted = sift_table()
        assert (sifted.sum(axis=1) == 4).all()  # 4 codes per detector per role
        grid = [0.0, 5e-324, 1 / 3, 0.49999999999999994, 0.5, *np.linspace(0.0, 0.5, 101).tolist()]
        for e_mis in grid:
            routes = detector_routes(e_mis)
            assert all(type(value) is float for route in routes for value in route)
            table = click_table(e_mis)
            for cells, (click, rest) in zip(sifted, routes):
                assert (table[cells] == click).all(), (e_mis, table[cells], click)
                assert rest == pytest.approx(1.0 - click, abs=1e-15)

    @pytest.mark.parametrize("e_mis", [-1.0, -5e-324, 0.5000000000000001, 0.7, np.nan])
    def test_outside_the_model_rejected(self, e_mis):
        # -1 gave a negative T
        with pytest.raises(ValueError, match=r"e_mis must be in \[0, 0.5\]"):
            detector_routes(e_mis)


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
        # every photon's clicks fall on D1..D4, and the sift has a column
        # for D1..D4 alone
        route = click_table()
        assert route.shape == (16, 4)
        assert np.all(route >= 0.0)
        np.testing.assert_allclose(route.sum(axis=1), 1.0, atol=1e-15)
        assert sift_table().shape == (2, 16, 4)

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
        yt = yield_table(params.model, 0.0)
        assert yt.y1.sum() == pytest.approx(expected, rel=1e-12)
        rep = run_session(params, seed=77)
        trials = rep.single_pulses
        assert trials >= 50_000
        hits = rep.single_successes.sum()
        se = np.sqrt(trials * expected * (1 - expected))
        assert abs(hits - trials * expected) <= 3 * se

    def test_param_validation(self):
        with pytest.raises(ValueError, match=r"^eta_det must be in \[0, 1\]$"):
            RateParams(eta_det=1.5, p_dark=0.0)
        with pytest.raises(ValueError, match=r"^p_dark must be in \[0, 1\)$"):
            RateParams(eta_det=0.5, p_dark=1.0)


class TestTheoryTable:
    def test_ideal_visibility_reduces_to_projector_model(self):
        table = theory_table(1.0)
        for row, (alice, bob) in zip(table, THEORY_ROWS):
            expected = ideal_bsm_distribution(photon(alice, bob))
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

    @pytest.mark.parametrize("e_mis", [0.0, 0.015, 0.1, 0.5])
    @pytest.mark.parametrize("visibility", [0.0, 0.3, 0.884, 1.0])
    def test_visibility_is_an_effective_diagonal_misalignment(self, e_mis, visibility):
        # the basis-matched diagonal rows at V are those of full visibility at
        # misalignment e_d (worst difference 5.6e-17 over these points); every
        # other row ignores V bit for bit
        v = (1 - visibility) / 2
        e_d = e_mis * (1 - v) + v * (1 - e_mis)
        diagonal = [4 * a + b for a, alice in enumerate(ALICE_SETTINGS)
                    for b, bob in enumerate(PATH_SETTINGS) if alice.basis is bob.basis is Basis.DIAGONAL]
        others = np.setdiff1d(np.arange(16), diagonal)
        assert diagonal == [10, 11, 14, 15]
        table = click_table(e_mis, visibility)
        np.testing.assert_allclose(table[diagonal], click_table(e_d)[diagonal], rtol=0, atol=1e-15)
        assert table[others].tobytes() == click_table(e_mis)[others].tobytes()
