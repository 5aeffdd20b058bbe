"""Single-photon Bell-state measurement.

Two interchangeable models of the ideal measurement are provided: direct
projection onto the hybrid Bell basis, and an explicit 4-mode network
(recombining polarizing beamsplitter, 45-degree rotator in each arm, final
polarizing beamsplitter per arm feeding detectors D1..D4).  They agree
exactly; the network exists so the optical layout can be audited.

``click_table`` is the receiver's device model: the per-photon click
distribution over D1..D4 for every (Alice state, Bob setting) pair, with
misalignment and interference visibility folded in.  The Monte Carlo routes
photons by it, ``theory_table`` is a slice of it, and the flip-table check
reads it.

``DetectorParams`` holds the efficiency and dark-count probability of the
four detectors, which the rate model and the Monte Carlo apply.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import (
    ALICE_SETTINGS,
    PATH_SETTINGS,
    Bb84Setting,
    PathSetting,
    bb84_state,
    bell_basis_matrix,
    hybrid_bell_expand,
    lon_isometry,
)
from .qstate import PureState

SQ2 = 1.0 / np.sqrt(2.0)

__all__ = [
    "DetectorParams",
    "ideal_bsm_distribution",
    "mode_network_matrix",
    "mode_network_distribution",
    "click_table",
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


def click_table(e_mis: float = 0.0, visibility: float = 1.0) -> np.ndarray:
    """16x4 per-photon click table P(detector | code), code = 4 * alice + bob.

    Rows follow ALICE_SETTINGS x PATH_SETTINGS.  Reduced visibility scales
    the path-coherence terms: the effective state is V |psi><psi| + (1-V)
    (path-dephased rho), so rows with a definite path are unaffected and the
    diagonal rows move (1-V)/2 of their mass onto the wrong detector pair.
    Entries below 1e-12 are zeroed and each row renormalized, so an ideal
    row is an exact simplex row.  Misalignment flips the photon to the
    orthogonal state in Alice's basis with probability e_mis, which mixes
    row c with row c ^ 4 (Alice's bit toggled).
    """
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must be in [0, 1]")
    if not 0.0 <= e_mis <= 0.5:
        raise ValueError("e_mis must be in [0, 0.5]")
    pol = np.array([bb84_state(alice).amps for alice in ALICE_SETTINGS])
    lon = np.array([lon_isometry(bob) for bob in PATH_SETTINGS])
    psi = np.einsum("bij,aj->abi", lon, pol).reshape(16, 4)
    # (pol, path) index with path the fast factor: coherences between
    # different paths keep weight V, the rest keep weight 1
    path = np.arange(4) % 2
    weight = np.where(path[:, None] == path[None, :], 1.0, visibility)
    bell = bell_basis_matrix()
    table = np.einsum("dj,cj,ck,jk,dk->cd", bell.conj(), psi, psi.conj(), weight, bell).real
    table[table < 1e-12] = 0.0
    table /= table.sum(axis=1, keepdims=True)
    return (1.0 - e_mis) * table + e_mis * table[np.arange(16) ^ 4]


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
    """8x4 click-probability table of THEORY_ROWS at a given visibility.

    The rows of ``click_table(0, visibility)``; V=1 reproduces the ideal
    distributions.
    """
    codes = [4 * alice.index + PATH_SETTINGS.index(bob) for alice, bob in THEORY_ROWS]
    return click_table(0.0, visibility)[codes]


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
