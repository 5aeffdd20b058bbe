"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
measured margins.  Every tolerance is pinned here; nothing is deferred to
later calibration.
"""

import math
import time

import numpy as np
import pytest

from ddiqkd.bsm import THEORY_ROWS, click_table, sift_table, theory_table
from ddiqkd.encoding import (
    ALICE_SETTINGS,
    Basis,
    PathSetting,
    VirtualSource,
    hybrid_bell_expand,
    lon_states,
    rho_alice,
    rho_bob,
)
from ddiqkd.bsm import ideal_bsm_distribution, mode_network_distribution
from ddiqkd.qstate import DensityMatrix, PureState, haar_amplitudes, random_unitary, trace_distance
from ddiqkd.rates import (
    RateParams,
    SecurityRegime,
    keyrate_curve,
    security_regime,
    yield_table,
)
from ddiqkd.session import SessionParams, run_session

from oracles import agreement_detectors

PATHS = (PathSetting.A, PathSetting.C, PathSetting.B0, PathSetting.BPI)


def _pure_qubits(amps) -> DensityMatrix:
    """A stack of pure polarization states as density matrices."""
    return DensityMatrix(amps[:, :, None] * amps[:, None, :].conj())


# reference simulation parameters; the configured background count rate
# 6.02e-6 is a two-detector-receiver figure, i.e. 3.01e-6 per detector
FIG_PARAMS = RateParams(
    eta_det=0.145,
    p_dark=3.01e-6,
    alpha_db_per_km=0.2,
    e_mis=0.015,
    f_ec=1.16,
)


def test_criterion_1_receiver_state_identity():
    """rho_B = rho_A for 1000 Haar inputs; spectrum basis independent."""
    t0 = time.monotonic()
    source = VirtualSource()
    target = rho_alice(source)
    rng = np.random.default_rng(2024)
    rho = rho_bob(_pure_qubits(haar_amplitudes(2, rng, (1000,))), source)
    worst_td = max(float(trace_distance(rho, target).max()),
                   float(trace_distance(rho, DensityMatrix(rho.mat[0])).max()))
    rotated = rho_bob(
        _pure_qubits(haar_amplitudes(2, rng, (100,))),
        source,
        register_basis=random_unitary(4, rng, (100,)),
    )
    worst_spec = float(np.max(np.abs(rotated.eigenvalues() - target.eigenvalues())))
    elapsed = time.monotonic() - t0
    assert worst_td < 1e-12
    assert worst_spec < 1e-12
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 1 PASS: receiver-state identity, max trace distance "
          f"{worst_td:.2e}, spectrum drift {worst_spec:.2e}, {elapsed:.2f}s")


def test_criterion_2_bsm_model_equivalence():
    """Mode network equals Bell projection on 1000 random hybrid states."""
    t0 = time.monotonic()
    rng = np.random.default_rng(99)
    states = PureState(haar_amplitudes(4, rng, (1000,)), ("pol", "path"))
    worst = float(np.max(np.abs(
        mode_network_distribution(states) - ideal_bsm_distribution(states))))
    elapsed = time.monotonic() - t0
    assert worst < 1e-12
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 PASS: BSM model equivalence, max deviation "
          f"{worst:.2e}, {elapsed:.2f}s")


def test_criterion_3_flip_table_structure():
    """Ideal single photons stay on the bit-restoring pair; QBER exactly 0."""
    t0 = time.monotonic()
    checked = 0
    # the photons and the sift table that the reports are built from
    dists = np.abs(hybrid_bell_expand(lon_states())) ** 2
    right, _ = sift_table()
    for s, alice in enumerate(ALICE_SETTINGS):
        for p, path in enumerate(PATHS):
            if alice.basis is not path.basis:
                continue
            dist = dists[4 * s + p]
            pair = agreement_detectors(alice, path)
            off = sum(dist[i - 1] for i in range(1, 5) if i not in pair)
            assert off < 1e-12
            # the pair's two lone clicks are kept with Alice's bit: QBER = 0, exactly
            assert right[4 * s + p, np.array(pair) - 1].all()
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 8
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 3 PASS: flip-table structure on all 8 matched pairs, "
          f"post-sift QBER 0, {elapsed:.2f}s")


def test_criterion_4_visibility_to_qber():
    """(1-V)/2 at the measured visibility lands on 5.8% within 0.1%: the
    largest click mass that the sift hands Bob as a wrong bit, read off the
    click table that the reports and theory-table run."""
    value = float((click_table(0.0, 0.884) * sift_table()[1]).sum(axis=1).max())
    assert value == pytest.approx(0.058, abs=1e-3)
    assert value == pytest.approx((1 - 0.884) / 2, abs=1e-15)
    print(f"\nACCEPTANCE 4 PASS: projected QBER at V=0.884 is {value:.4f} "
          f"(target 0.058 +- 0.001)")


def test_criterion_5_analytic_vs_monte_carlo():
    """Yield table matches 1e7-pulse sessions to 3 sigma at 0/50/100 km."""
    t0 = time.monotonic()
    mu = 0.7
    worst_z = 0.0
    for length in (0.0, 50.0, 100.0):
        yt = yield_table(FIG_PARAMS, length)
        rep = run_session(
            SessionParams(
                n_pulses=10_000_000,
                mu=mu,
                length_km=length,
                model=FIG_PARAMS,
            ),
            seed=int(7000 + length),
        )

        def check(est, true, n_den, label):
            nonlocal worst_z
            se = math.sqrt(true * (1.0 - true) / n_den)
            z = abs(est - true) / se
            worst_z = max(worst_z, z)
            assert z <= 3.0, f"{label} at {length} km: z={z:.2f}"

        q_true = yt.gains(mu)[0]
        e_true = yt.qbers(mu)[0]
        for i in range(4):
            check(rep.gains()[i], q_true, rep.matched_pulses, f"Q_{i+1}")
            check(rep.vacuum_yields()[i], yt.y0[i], rep.vacuum_pulses, f"Y0_{i+1}")
            check(rep.single_yields()[i], yt.y1[i], rep.single_pulses, f"Y1_{i+1}")
            check(rep.single_qbers()[i], yt.e1[i], rep.single_successes[i], f"e1_{i+1}")
            check(rep.qbers()[i], e_true, rep.successes[i], f"E_{i+1}")
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 5 PASS: analytic yields vs Monte Carlo at 0/50/100 km, "
          f"worst |z| = {worst_z:.2f} (limit 3), {elapsed:.1f}s")


def test_criterion_6_rate_curve_reproduction():
    """Cutoffs 150 +- 10 km and 163 +- 10 km; mu_opt in [0.55, 0.85]."""
    t0 = time.monotonic()
    lengths = [float(x) for x in range(0, 181, 10)]
    curve = keyrate_curve(FIG_PARAMS, lengths)
    assert abs(curve.cutoff_proposal_km - 150.0) <= 10.0
    assert abs(curve.cutoff_bb84_km - 163.0) <= 10.0
    for length, mu_opt, rate in zip(curve.length_km, curve.mu_opt, curve.rate_proposal):
        if length <= 120.0:
            assert 0.55 <= mu_opt <= 0.85, f"mu_opt at {length} km"
            assert rate > 0.0
    # monotone non-increasing over the positive-rate region
    positive = [r for r in curve.rate_proposal if r > 0.0]
    assert all(a >= b for a, b in zip(positive, positive[1:]))
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"\nACCEPTANCE 6 PASS: cutoffs proposal {curve.cutoff_proposal_km:.1f} km, "
          f"reference {curve.cutoff_bb84_km:.1f} km, mu_opt in range, {elapsed:.1f}s")


# Reference single-photon click statistics for the eight matched settings,
# measured on a tabletop realization (rows ordered as THEORY_ROWS).  Its
# rectilinear wiring routed clicks by path only, so those rows correspond to
# the model rows with paths a and c interchanged for H inputs; the diagonal
# rows need no relabeling.
REFERENCE_CLICK_PROBS = {
    ("H", "c"): (0.3863, 0.5823, 0.0168, 0.0146),
    ("V", "c"): (0.5316, 0.4652, 0.0010, 0.0022),
    ("H", "a"): (0.0152, 0.0153, 0.5432, 0.4263),
    ("V", "a"): (0.0010, 0.0020, 0.5101, 0.4862),
    ("+45", "b0"): (0.3574, 0.0488, 0.5569, 0.0369),
    ("-45", "bpi"): (0.4357, 0.0175, 0.5309, 0.0158),
    ("+45", "bpi"): (0.0569, 0.4871, 0.0144, 0.4417),
    ("-45", "b0"): (0.1591, 0.4091, 0.0285, 0.4033),
}

_POL = {0: "H", 1: "V", 2: "+45", 3: "-45"}
_PATH = {PathSetting.A: "a", PathSetting.C: "c", PathSetting.B0: "b0", PathSetting.BPI: "bpi"}
_PATH_SWAP = {"a": "c", "c": "a", "b0": "b0", "bpi": "bpi"}


def test_criterion_7_theory_table_properties():
    """Visibility model: exact ideal rows, 5.8% wrong-pair mass, and the
    dominant/suppressed pattern of every reference row."""
    t0 = time.monotonic()
    ideal = theory_table(1.0)
    degraded = theory_table(0.884)
    theory_pairs = {}
    for row, (alice, bob) in zip(ideal, THEORY_ROWS):
        label = (_POL[alice.index], _PATH[bob])
        pair = frozenset(np.flatnonzero(row > 1e-12) + 1)
        theory_pairs[label] = pair
        on = sorted(row, reverse=True)
        assert on[0] == pytest.approx(0.5, abs=1e-12)
        assert on[1] == pytest.approx(0.5, abs=1e-12)
        assert on[2] < 1e-12 and on[3] < 1e-12

    for row, (alice, bob) in zip(degraded, THEORY_ROWS):
        if alice.basis is Basis.DIAGONAL:
            wrong = ideal[list(THEORY_ROWS).index((alice, bob))] < 1e-12
            assert row[wrong].sum() == pytest.approx((1 - 0.884) / 2, abs=1e-12)

    for (pol, path), probs in REFERENCE_CLICK_PROBS.items():
        measured_pair = frozenset(np.argsort(probs)[-2:] + 1)
        if path in ("b0", "bpi"):
            assert measured_pair == theory_pairs[(pol, path)], (pol, path)
        else:
            # rectilinear rows: allow the documented a<->c relabeling
            direct = theory_pairs[(pol, path)]
            swapped = theory_pairs[(pol, _PATH_SWAP[path])]
            assert measured_pair in (direct, swapped), (pol, path)
        dominant = sorted(probs, reverse=True)
        assert dominant[1] > dominant[2]  # clean 2-vs-2 split
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 7 PASS: theory-table properties and reference click "
          f"pattern (rectilinear rows under the documented relabeling), {elapsed:.2f}s")


def test_criterion_8_security_regime_threshold():
    """Advisory threshold behavior exact at 0.659."""
    assert security_regime(0.659) is SecurityRegime.PROVEN_LOW_LOSS
    assert security_regime(0.659 + 1e-12) is SecurityRegime.PROVEN_LOW_LOSS
    assert security_regime(0.659 - 1e-12) is SecurityRegime.CONJECTURED_HIGH_LOSS
    assert security_regime(0.70) is SecurityRegime.PROVEN_LOW_LOSS
    assert security_regime(0.10) is SecurityRegime.CONJECTURED_HIGH_LOSS
    print("\nACCEPTANCE 8 PASS: security-regime threshold exact at 0.659")
