"""Single-photon Bell-state measurement.

Two interchangeable models of the ideal measurement are provided: direct
projection onto the hybrid Bell basis, and an explicit 4-mode network
(recombining polarizing beamsplitter, 45-degree rotator in each arm, final
polarizing beamsplitter per arm feeding detectors D1..D4).  They agree
exactly; the network exists so the optical layout can be audited.

``DetectorParams`` holds the efficiency and dark-count probability of the
four detectors, which the rate model and the Monte Carlo apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import (
    ALICE_SETTINGS,
    Bb84Setting,
    PathSetting,
    apply_lon,
    bb84_state,
    bell_basis_matrix,
    hybrid_bell_expand,
)
from .qstate import PureState

SQ2 = 1.0 / np.sqrt(2.0)

__all__ = [
    "DetectorParams",
    "ideal_bsm_distribution",
    "mode_network_matrix",
    "mode_network_distribution",
    "THEORY_ROWS",
    "theory_table",
]


@dataclass(frozen=True)
class DetectorParams:
    """Shared parameters of the four threshold detectors."""

    eta_det: float  # detection efficiency per photon
    p_dark: float   # dark count probability per detector per gate

    def __post_init__(self):
        if not 0.0 <= self.eta_det <= 1.0:
            raise ValueError("eta_det must be in [0, 1]")
        if not 0.0 <= self.p_dark < 1.0:
            raise ValueError("p_dark must be in [0, 1)")


def ideal_bsm_distribution(state: PureState) -> np.ndarray:
    """Click probabilities over D1..D4 for a lossless, noiseless measurement."""
    coeffs = hybrid_bell_expand(state)
    return np.abs(coeffs) ** 2


def mode_network_matrix() -> np.ndarray:
    """4x4 unitary of the optical network, input modes -> detector modes.

    Mode order on input follows the state convention (H,inp1), (H,inp2),
    (V,inp1), (V,inp2); the output rows are D1..D4.
    """
    # recombining PBS: arm1 collects H from port 1 and V from port 2,
    # arm2 collects H from port 2 and V from port 1
    pbs = np.array(
        [
            [1, 0, 0, 0],  # H at arm1 <- (H,inp1)
            [0, 0, 0, 1],  # V at arm1 <- (V,inp2)
            [0, 1, 0, 0],  # H at arm2 <- (H,inp2)
            [0, 0, 1, 0],  # V at arm2 <- (V,inp1)
        ],
        dtype=complex,
    )
    # rotator R in each arm: H -> +45, V -> -45
    had = SQ2 * np.array([[1, 1], [1, -1]], dtype=complex)
    rotators = np.block(
        [[had, np.zeros((2, 2))], [np.zeros((2, 2)), had]]
    )
    # final PBS per arm: (H,arm1)->D1, (V,arm1)->D2, (H,arm2)->D3, (V,arm2)->D4
    out = np.eye(4, dtype=complex)
    return out @ rotators @ pbs


def mode_network_distribution(state: PureState) -> np.ndarray:
    """Click probabilities from propagating the amplitude through the network."""
    if state.dim != 4:
        raise ValueError("expected a two-factor (pol, path) state")
    detector_amps = mode_network_matrix() @ state.amps
    return np.abs(detector_amps) ** 2


# The eight basis-matched (Alice state, Bob setting) combinations, in the
# order the comparison table is reported: rectilinear block then diagonal.
THEORY_ROWS: tuple[tuple[Bb84Setting, PathSetting], ...] = (
    (ALICE_SETTINGS[0], PathSetting.A),
    (ALICE_SETTINGS[1], PathSetting.A),
    (ALICE_SETTINGS[0], PathSetting.C),
    (ALICE_SETTINGS[1], PathSetting.C),
    (ALICE_SETTINGS[2], PathSetting.B0),
    (ALICE_SETTINGS[3], PathSetting.B0),
    (ALICE_SETTINGS[2], PathSetting.BPI),
    (ALICE_SETTINGS[3], PathSetting.BPI),
)


def theory_table(visibility: float) -> np.ndarray:
    """8x4 click-probability table at a given interference visibility.

    Reduced visibility scales the path-coherence terms: the effective state
    is V |psi><psi| + (1-V) (path-dephased rho).  Rows with a definite path
    (rectilinear settings, one interferometer arm in use) are unaffected;
    the diagonal rows move (1-V)/2 of their mass onto the wrong detector
    pair.  V=1 reproduces the ideal distributions.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must be in [0, 1]")
    bell = bell_basis_matrix()
    table = np.zeros((8, 4))
    for r, (alice, bob) in enumerate(THEORY_ROWS):
        state = apply_lon(bob, bb84_state(alice))
        rho = np.outer(state.amps, state.amps.conj())
        dephased = rho.copy()
        # zero the path-off-diagonal blocks: indices (pol, path) with path
        # the fast factor, so entries where path_row != path_col
        for i in range(4):
            for j in range(4):
                if (i % 2) != (j % 2):
                    dephased[i, j] = 0.0
        mixed = visibility * rho + (1.0 - visibility) * dephased
        table[r] = np.real(np.einsum("ij,jk,ik->i", bell.conj(), mixed, bell))
    return table


def theory_row_label(alice: Bb84Setting, bob: PathSetting) -> str:
    """Human-readable row label, e.g. 'H|a' or '+45|b0' (CSV-safe)."""
    pol = {0: "H", 1: "V", 2: "+45", 3: "-45"}[alice.index]
    path = {
        PathSetting.A: "a",
        PathSetting.C: "c",
        PathSetting.B0: "b0",
        PathSetting.BPI: "bpi",
    }[bob]
    return f"{pol}|{path}"
