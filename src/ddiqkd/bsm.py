"""Single-photon Bell-state measurement.

Two interchangeable models of the ideal measurement are provided: direct
projection onto the hybrid Bell basis, and an explicit 4-mode network
(recombining polarizing beamsplitter, 45-degree rotator in each arm, final
polarizing beamsplitter per arm feeding detectors D1..D4).  They agree
exactly; the network exists so the optical layout can be audited.

``click_table`` is the receiver's device model: the per-photon click
distribution over D1..D4 for every (Alice state, Bob setting) pair, with
misalignment and interference visibility folded in.  ``sift_table`` is the
classical processing of a lone click on the same (code, detector) grid:
whether it is kept and whether Bob's bit is right.  ``rates.detector_routes``,
the two reduced to one detector's two roles, is what the rate engine and the
Monte Carlo read; verify's flip-table check compares it with the other two.
"""

from __future__ import annotations

import numpy as np

from .encoding import (
    ALICE_SETTINGS,
    PATH_SETTINGS,
    Bb84Setting,
    PathSetting,
    bell_basis_matrix,
    hybrid_bell_expand,
    lon_states,
)
from .qstate import PureState

SQ2 = 1.0 / np.sqrt(2.0)

__all__ = [
    "ideal_bsm_distribution",
    "mode_network_matrix",
    "mode_network_distribution",
    "click_table",
    "sift_table",
    "THEORY_ROWS",
    "theory_table",
]


def ideal_bsm_distribution(state: PureState) -> np.ndarray:
    """Click probabilities over D1..D4 for a lossless, noiseless measurement.

    Shape (..., 4) for a stack of states.
    """
    coeffs = hybrid_bell_expand(state)
    return np.abs(coeffs) ** 2


# The optical network as a unitary, input modes (H,inp1), (H,inp2), (V,inp1),
# (V,inp2) -> detector modes D1..D4, stated by its elements and built once.
# The recombining PBS sends input modes 0, 3, 1, 2 to (H,arm1), (V,arm1),
# (H,arm2), (V,arm2); the rotator in each arm takes H -> +45 and V -> -45; the
# final PBS of arm 1 sends H to D1 and V to D2, that of arm 2 sends H to D3 and
# V to D4.  verify's bsm-model-equivalence compares it with encoding's Bell
# table, which every report reads.
_PBS_ORDER = [0, 3, 1, 2]
# rows D1..D4, columns (H,arm1), (V,arm1), (H,arm2), (V,arm2)
_ROTATORS = [[SQ2, SQ2, 0.0, 0.0], [SQ2, -SQ2, 0.0, 0.0],
             [0.0, 0.0, SQ2, SQ2], [0.0, 0.0, SQ2, -SQ2]]
_NETWORK = np.zeros((4, 4), dtype=complex)
_NETWORK[:, _PBS_ORDER] = _ROTATORS
_NETWORK.flags.writeable = False


def mode_network_matrix() -> np.ndarray:
    """4x4 unitary of the optical network, input modes -> detector modes.

    Mode order on input follows the state convention (H,inp1), (H,inp2),
    (V,inp1), (V,inp2); the output rows are D1..D4.  A writable copy of
    the module's read-only table, which the click distribution reads.
    """
    return _NETWORK.copy()


def mode_network_distribution(state: PureState) -> np.ndarray:
    """Click probabilities from propagating the amplitudes through the network.

    Shape (..., 4) for a stack of states.
    """
    if state.dim != 4:
        raise ValueError("expected a two-factor (pol, path) state")
    return np.abs(state.amps @ _NETWORK.T) ** 2


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
    psi = lon_states().amps
    # (pol, path) index with path the fast factor: coherences between
    # different paths keep weight V, the rest keep weight 1
    path = np.arange(4) % 2
    weight = np.where(path[:, None] == path[None, :], 1.0, visibility)
    bell = bell_basis_matrix()
    table = np.einsum("dj,cj,ck,jk,dk->cd", bell.conj(), psi, psi.conj(), weight, bell).real
    table[table < 1e-12] = 0.0
    table /= table.sum(axis=1, keepdims=True)
    return (1.0 - e_mis) * table + e_mis * table[np.arange(16) ^ 4]


# Bob flips his setting bit when 0-based detector d clicks in basis b (0
# rectilinear, 1 diagonal): _FLIP[b, d].  Rectilinear flips on D3 and D4,
# diagonal on D2 and D4.
_FLIP = np.array([[False, False, True, True], [False, True, False, True]])


def sift_table() -> np.ndarray:
    """(2, 16, 4) booleans: a lone click on (code, detector) is sifted and gives
    Bob Alice's bit (``[0]``) or the other bit (``[1]``).

    The one statement of the sift rule.  ``code = 4 * alice_state +
    bob_setting`` in the orders of ALICE_SETTINGS and PATH_SETTINGS, so its
    bits are, from bit 3 down, Alice's basis, Alice's bit, Bob's basis and
    Bob's setting bit.  A click is sifted where the bases match; Bob's bit
    is his setting bit, flipped where ``_FLIP`` says for his basis and the
    0-based detector.  Built per call, not at import: only verify, a demo
    and the tests read it."""
    code = np.arange(16)
    bob_basis = (code >> 1) & 1
    matched = ((code >> 3) == bob_basis)[:, None]
    error = ((code & 1)[:, None] ^ _FLIP[bob_basis]) != ((code >> 2) & 1)[:, None]
    return np.stack([matched & ~error, matched & error])


# The eight basis-matched (Alice state, Bob setting) combinations, in the
# order the comparison table is reported: Bob's settings a, c, b0, bpi,
# each with Alice's two states of its basis.
THEORY_ROWS: tuple[tuple[Bb84Setting, PathSetting], ...] = tuple(
    (a, b) for b in PATH_SETTINGS for a in ALICE_SETTINGS if a.basis is b.basis
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
    return f"{('H', 'V', '+45', '-45')[alice.index]}|{bob.value}"
