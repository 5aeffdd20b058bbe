"""Consistency checks for the encoding and measurement models.

These are the identities the whole construction rests on: the receiver's
virtual register state is fixed and equal to the sender's regardless of the
input photon, it is basis independent, the two measurement models agree,
and the flip table restores perfect correlations for ideal single photons.
Each check returns its worst observed deviation so reports can show margins.
The injected path-c sign error FAILs receiver-state-fixed and
register-basis-independence.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .bsm import (click_table, detector_routes, ideal_bsm_distribution,
                  mode_network_distribution, mode_network_matrix, sift_table)
from .encoding import ALICE_SETTINGS, PATH_SETTINGS, VirtualSource, lon_states, rho_alice, rho_bob
from .qstate import DensityMatrix, PureState, haar_amplitudes, max_trace_distance, random_unitary

__all__ = ["CheckResult", "appendix_checks", "ALL_CHECKS"]


CheckResult = namedtuple("CheckResult", "name passed max_deviation tolerance detail", defaults=("",))


def _haar_qubits(n: int, rng) -> DensityMatrix:
    """n Haar-random pure polarization states as one (n, 2, 2) density stack."""
    amps = haar_amplitudes(2, rng, (n,))
    return DensityMatrix(amps[:, :, None] * amps[:, None, :].conj())


def check_receiver_state_fixed(n_samples: int, rng, corrupt: bool,
                               sender: DensityMatrix) -> CheckResult:
    """rho_B equals rho_A for Haar-random inputs, and is input-independent.

    The deviation is the largest trace distance of any sample to rho_A or to
    sample 0, from ``max_trace_distance``: it diagonalizes only the
    differences whose Frobenius norm lets them reach the maximum.  sender
    is rho_alice of the uniform source.
    """
    rho = rho_bob(_haar_qubits(n_samples, rng), VirtualSource(), _corrupt_path_c_sign=corrupt)
    # every sample against the sender state and against the first sample
    refs = DensityMatrix(np.stack([sender.mat, rho.mat[0]])[:, None])
    worst = max_trace_distance(rho, refs)
    return CheckResult("receiver-state-fixed", worst < 1e-12, worst, 1e-12,
                       f"{n_samples} Haar-random inputs vs sender state and each other")


def check_basis_independence(n_samples: int, rng, corrupt: bool,
                             sender: DensityMatrix) -> CheckResult:
    """In any register basis U, rho_B is the sender state U rho_A U^dagger.

    The deviation is the largest entrywise difference over the computational
    basis and n_samples Haar-random ones, each with its own Haar-random input.
    sender is rho_alice of the uniform source.
    """
    bases = np.concatenate([np.eye(4)[None], random_unitary(4, rng, (n_samples,))])
    rho = rho_bob(_haar_qubits(n_samples + 1, rng), VirtualSource(), register_basis=bases,
                  _corrupt_path_c_sign=corrupt)
    expected = bases @ sender.mat @ bases.conj().swapaxes(-1, -2)
    worst = float(np.max(np.abs(rho.mat - expected)))
    return CheckResult("register-basis-independence", worst < 1e-12, worst, 1e-12,
                       f"identity + {n_samples} random register bases vs rotated sender state")


def check_bsm_equivalence(n_samples: int, rng) -> CheckResult:
    """The optical network and the Bell table every report reads give the same clicks.

    The network is built from its optical elements (``bsm._NETWORK``); the
    Bell projector reads encoding's Bell table, as ``click_table`` does.
    """
    states = PureState(np.concatenate([lon_states().amps, haar_amplitudes(4, rng, (n_samples,))]),
                       ("pol", "path"))
    worst = float(np.max(np.abs(
        mode_network_distribution(states) - ideal_bsm_distribution(states))))
    m = mode_network_matrix()
    unit = float(np.max(np.abs(m @ m.conj().T - np.eye(4))))
    worst = max(worst, unit)
    return CheckResult("bsm-model-equivalence", worst < 1e-12, worst, 1e-12,
                       f"16 settings + {n_samples} Haar states + network unitarity")


def check_flip_table() -> CheckResult:
    """The routes every report reads are the ideal click table's sifted cells.

    On all 16 setting codes x 4 detectors of ``bsm.sift_table``: exactly the
    8 basis-matched codes are kept, each with two detectors that restore
    Alice's bit, and each detector holds each role of ``detector_routes``
    for 4 codes (the sessions' weight 1/4).  The deviation is the largest
    |T - T of the cell's role| over the sifted cells of ``click_table()``.
    """
    right, wrong = sifted = sift_table()
    basis_matched = np.array([alice.basis is path.basis
                              for alice in ALICE_SETTINGS for path in PATH_SETTINGS])
    routes = np.array(detector_routes())[:, :1, None]  # T of each role, against its cells
    worst = float(np.abs(click_table() - routes)[sifted].max())
    ok = (((right | wrong) == basis_matched[:, None]).all()
          and (right.sum(axis=1) == 2 * basis_matched).all() and (sifted.sum(axis=1) == 4).all())
    return CheckResult("flip-table-correlations", bool(ok) and worst < 1e-12, worst, 1e-12,
                       "all 8 basis-matched pairs, both agreement detectors")


def appendix_checks(n_samples: int = 1000, seed: int = 7,
                    corrupt_path_c_sign: bool = False) -> list[CheckResult]:
    """Run the full consistency suite with a deterministic stream."""
    if isinstance(n_samples, bool) or not isinstance(n_samples, (int, np.integer)) or n_samples < 1:
        raise ValueError("n_samples must be an integer >= 1")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    rng = np.random.default_rng(seed)
    sender = rho_alice(VirtualSource())
    return [
        check_receiver_state_fixed(n_samples, rng, corrupt_path_c_sign, sender),
        check_basis_independence(max(n_samples // 10, 10), rng, corrupt_path_c_sign, sender),
        check_bsm_equivalence(n_samples, rng),
        check_flip_table(),
    ]


ALL_CHECKS = (
    "receiver-state-fixed",
    "register-basis-independence",
    "bsm-model-equivalence",
    "flip-table-correlations",
)
