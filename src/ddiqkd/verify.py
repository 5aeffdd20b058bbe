"""Consistency checks for the encoding and measurement models.

These are the identities the whole construction rests on: the receiver's
virtual register state is fixed and equal to the sender's regardless of the
input photon, it is basis independent, the two measurement models agree,
and the flip table restores perfect correlations for ideal single photons.
Each check returns its worst observed deviation so reports can show margins.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bsm import click_table, ideal_bsm_distribution, mode_network_distribution, mode_network_matrix
from .encoding import (
    ALICE_SETTINGS,
    PATH_SETTINGS,
    VirtualSource,
    apply_lon,
    bb84_state,
    rho_alice,
    rho_bob,
)
from .qstate import PureState, haar_amplitudes, random_unitary, trace_distance
from .session import sift

__all__ = ["CheckResult", "appendix_checks", "ALL_CHECKS"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_deviation: float
    tolerance: float
    detail: str = ""


def _haar_qubit(rng) -> PureState:
    return PureState(haar_amplitudes(2, rng), ("pol",))


def check_receiver_state_fixed(n_samples: int, rng, corrupt: bool = False) -> CheckResult:
    """rho_B equals rho_A for Haar-random inputs, and is input-independent."""
    source = VirtualSource()
    target = rho_alice(source)
    worst = 0.0
    first = None
    for _ in range(n_samples):
        rho = rho_bob(_haar_qubit(rng), source, _corrupt_path_c_sign=corrupt)
        if first is None:
            first = rho
        worst = max(worst, trace_distance(rho, target), trace_distance(rho, first))
    return CheckResult("receiver-state-fixed", worst < 1e-12, worst, 1e-12,
                       f"{n_samples} Haar-random inputs vs sender state and each other")


def check_basis_independence(n_samples: int, rng, corrupt: bool = False) -> CheckResult:
    """Register-basis rotations leave the spectrum of rho_B unchanged."""
    source = VirtualSource()
    base = rho_bob(_haar_qubit(rng), source, _corrupt_path_c_sign=corrupt)
    ref_spectrum = base.eigenvalues()
    worst = 0.0
    for _ in range(n_samples):
        basis = random_unitary(4, rng)
        rotated = rho_bob(_haar_qubit(rng), source, register_basis=basis,
                          _corrupt_path_c_sign=corrupt)
        worst = max(worst, float(np.max(np.abs(rotated.eigenvalues() - ref_spectrum))))
    return CheckResult("register-basis-independence", worst < 1e-12, worst, 1e-12,
                       f"{n_samples} random register bases, spectrum drift")


def check_bsm_equivalence(n_samples: int, rng) -> CheckResult:
    """Mode-network and Bell-projector click distributions agree."""
    worst = 0.0
    for alice in ALICE_SETTINGS:
        for path in PATH_SETTINGS:
            state = apply_lon(path, bb84_state(alice))
            worst = max(worst, float(np.max(np.abs(
                mode_network_distribution(state) - ideal_bsm_distribution(state)))))
    for _ in range(n_samples):
        state = PureState(haar_amplitudes(4, rng), ("pol", "path"))
        worst = max(worst, float(np.max(np.abs(
            mode_network_distribution(state) - ideal_bsm_distribution(state)))))
    m = mode_network_matrix()
    unit = float(np.max(np.abs(m @ m.conj().T - np.eye(4))))
    worst = max(worst, unit)
    return CheckResult("bsm-model-equivalence", worst < 1e-12, worst, 1e-12,
                       f"16 settings + {n_samples} Haar states + network unitarity")


def check_flip_table() -> CheckResult:
    """Ideal single photons never give Bob a wrong sifted bit.

    Runs the reports' own `sift` and the ideal click table the sessions
    route by on all 16 setting codes x 4 detectors: exactly the 8
    basis-matched codes are kept, each has exactly two detectors that
    restore Alice's bit, and the click mass on detectors that hand Bob the
    wrong bit is the deviation.
    """
    code, detector = np.divmod(np.arange(64), 4)
    matched, bob_bit = sift(code, detector)
    matched = matched.reshape(16, 4)
    agrees = (bob_bit == (code >> 2) & 1).reshape(16, 4)  # Alice's bit is code bit 2
    basis_matched = np.array([alice.basis is path.basis
                              for alice in ALICE_SETTINGS for path in PATH_SETTINGS])
    worst = float((click_table() * (matched & ~agrees)).sum(axis=1).max())
    ok = ((matched == basis_matched[:, None]).all()
          and ((matched & agrees).sum(axis=1) == 2 * basis_matched).all())
    return CheckResult("flip-table-correlations", bool(ok) and worst < 1e-12, worst, 1e-12,
                       "all 8 basis-matched pairs, both agreement detectors")


def appendix_checks(n_samples: int = 1000, seed: int = 7,
                    corrupt_path_c_sign: bool = False) -> list[CheckResult]:
    """Run the full consistency suite with a deterministic stream."""
    rng = np.random.default_rng(seed)
    return [
        check_receiver_state_fixed(n_samples, rng, corrupt_path_c_sign),
        check_basis_independence(max(n_samples // 10, 10), rng, corrupt_path_c_sign),
        check_bsm_equivalence(n_samples, rng),
        check_flip_table(),
    ]


ALL_CHECKS = (
    "receiver-state-fixed",
    "register-basis-independence",
    "bsm-model-equivalence",
    "flip-table-correlations",
)
