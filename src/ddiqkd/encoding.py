"""State preparation on both ends of the link.

Alice encodes a BB84 polarization qubit; Bob's linear-optics network (LON)
encodes his setting in the photon's path (which input port of the Bell
measurement it occupies, or a phase-coherent superposition of both).  The
16 photons of ``lon_states()`` state both once; the click table and the
appendix checks read them there.  The module also carries the
virtual-protocol construction used to show that the receiver's path
encoding leaks nothing about the incoming photon: the reduced state of
Bob's virtual register equals Alice's, independently of the input.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from ._record import ValueRecord
from .channel import _require
from .qstate import DensityMatrix, PureState

SQ2 = 1.0 / np.sqrt(2.0)

__all__ = [
    "Basis",
    "Bb84Setting",
    "PathSetting",
    "ALICE_SETTINGS",
    "PATH_SETTINGS",
    "lon_states",
    "bell_basis_matrix",
    "hybrid_bell_expand",
    "VirtualSource",
    "rho_alice",
    "rho_bob",
]


class Basis(Enum):
    RECTILINEAR = "rectilinear"
    DIAGONAL = "diagonal"


class Bb84Setting(ValueRecord):
    """Alice's choice: (rect,0)->H, (rect,1)->V, (diag,0)->+45, (diag,1)->-45."""

    def __init__(self, basis: Basis, bit: int):
        if not isinstance(basis, Basis):
            raise ValueError("basis must be a Basis")
        if type(bit) is bool or not isinstance(bit, (int, np.integer)) or bit not in (0, 1):
            raise ValueError("bit must be the integer 0 or 1")
        vars(self).update(basis=basis, bit=int(bit))

    @property
    def index(self) -> int:
        """Enumeration order H, V, +45, -45."""
        return (0 if self.basis is Basis.RECTILINEAR else 2) + self.bit


class PathSetting(Enum):
    """Bob's LON setting: two rectilinear paths, one diagonal path with phase."""

    A = "a"
    C = "c"
    B0 = "b0"     # path b, phase 0
    BPI = "bpi"   # path b, phase pi

    @property
    def basis(self) -> Basis:
        return Basis.RECTILINEAR if self in (PathSetting.A, PathSetting.C) else Basis.DIAGONAL

    @property
    def bit(self) -> int:
        return 0 if self in (PathSetting.A, PathSetting.B0) else 1


ALICE_SETTINGS = (
    Bb84Setting(Basis.RECTILINEAR, 0),
    Bb84Setting(Basis.RECTILINEAR, 1),
    Bb84Setting(Basis.DIAGONAL, 0),
    Bb84Setting(Basis.DIAGONAL, 1),
)

# Bob's settings in register and setting-code order: a, c, b0, bpi
PATH_SETTINGS = tuple(PathSetting)

# The four setting kets, rows in the order of ALICE_SETTINGS (H, V, +45,
# -45, in polarization) and of PATH_SETTINGS (a, c, b0, bpi, in the
# (inp1, inp2) port basis): Bob's LON addresses the kets of Alice's source.
_KETS = np.array([[1.0, 0.0], [0.0, 1.0], [SQ2, SQ2], [SQ2, -SQ2]], dtype=complex)

# The LON tables are built once, from broadcast products rather than einsum:
# an einsum at import would map its code into every process, including those
# that never touch a state.
# The four isometries I (x) |path>, shape (setting, pol (x) path, pol):
# entry [s, 2 p + q, a] = delta_pa ket_s[q].
_LON = (np.eye(2, dtype=complex)[None, :, None, :] * _KETS[:, None, :, None]).reshape(4, 4, 2)

# Alice's four photons through Bob's four settings, row 4 * alice + bob.
_LON_STATES = (_LON[None] * _KETS[:, None, None, :]).sum(axis=-1).reshape(16, 4)
_LON.flags.writeable = _LON_STATES.flags.writeable = False

# Mode Gram tensor of the isometries, [i, j, a, b] = sum_m L_i[m, a] conj(L_j[m, b]).
_LON_GRAM = (_LON[:, None, :, :, None] * _LON.conj()[None, :, :, None, :]).sum(axis=2)


def lon_states() -> PureState:
    """Alice's four BB84 photons through Bob's four LON settings.

    A (16, 4) stack on pol (x) path, row ``code = 4 * alice + bob`` in the
    orders of ALICE_SETTINGS and PATH_SETTINGS.  The amplitudes are a
    read-only table built once.
    """
    return PureState(_LON_STATES, ("pol", "path"))


# Hybrid Bell basis over pol (x) path, rows ordered (phi+, phi-, psi+, psi-).
# Detector D_i projects onto row i-1.
_BELL = np.array(
    [
        [SQ2, 0.0, 0.0, SQ2],    # (|H,inp1> + |V,inp2>)/sqrt2
        [SQ2, 0.0, 0.0, -SQ2],   # (|H,inp1> - |V,inp2>)/sqrt2
        [0.0, SQ2, SQ2, 0.0],    # (|H,inp2> + |V,inp1>)/sqrt2
        [0.0, SQ2, -SQ2, 0.0],   # (|H,inp2> - |V,inp1>)/sqrt2
    ],
    dtype=complex,
)


def bell_basis_matrix() -> np.ndarray:
    """4x4 matrix whose rows are the hybrid Bell states."""
    return _BELL.copy()


def hybrid_bell_expand(state: PureState) -> np.ndarray:
    """Coefficients of pol (x) path states in the hybrid Bell basis, shape (..., 4)."""
    if state.dim != 4:
        raise ValueError("expected a two-factor (pol, path) state")
    return state.amps @ _BELL.conj().T


class VirtualSource(ValueRecord):
    """Entanglement-based picture of Alice's four-state source.

    probs are the emission probabilities of the four BB84 settings (order
    H, V, +45, -45).  The joint state is
    |Psi> = sum_i sqrt(p_i) |a_i>|psi_i> with |a_i> an orthonormal register
    basis and |psi_i> the BB84 polarization states.
    """

    def __init__(self, probs: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)):
        p = np.asarray(_require("probabilities", probs, arrays=True), dtype=float)
        if p.shape != (4,) or not (p >= 0).all() or not abs(p.sum() - 1.0) <= 1e-12:  # NaN fails
            raise ValueError("probabilities must be 4 nonnegative values summing to 1")
        vars(self).update(probs=tuple(float(x) for x in p))

    def joint_amplitudes(self) -> np.ndarray:
        """|Psi> on register (x) polarization, shape (4, 2)."""
        return np.sqrt(self.probs)[:, None] * _KETS


def rho_alice(source: VirtualSource) -> DensityMatrix:
    """Reduced state of Alice's virtual register (4x4, rank two).

    Tracing |Psi><Psi| over the polarization leaves entry [i, j] =
    sum_q Psi[i, q] conj(Psi[j, q]), summed as a broadcast product rather
    than a matmul: the same bits as the partial trace of the outer product.
    """
    joint = source.joint_amplitudes()
    return DensityMatrix((joint[:, None, :] * joint.conj()[None, :, :]).sum(axis=-1))


def rho_bob(
    sigma: PureState | DensityMatrix,
    source: VirtualSource = VirtualSource(),
    register_basis: np.ndarray | None = None,
    _corrupt_path_c_sign: bool = False,
) -> DensityMatrix:
    """Reduced states of Bob's virtual register after the controlled LON.

    Bob prepares sum_i sqrt(p_i)|b_i> on a four-state register, then routes
    the incoming qubit sigma through the LON setting controlled by the
    register.  Tracing out the optical modes leaves a register state that is
    independent of sigma and equal to rho_alice(source).

    sigma is a qubit stack: a PureState of amplitudes (..., 2), whose
    projectors are formed here (the bytes of passing their DensityMatrix),
    or a DensityMatrix (..., 2, 2).  register_basis optionally replaces the
    computational |b_i> by the columns of a 4x4 unitary, or of each unitary
    in a (..., 4, 4) stack that broadcasts against sigma (the identity is
    basis-independent up to a spectrum-preserving rotation).  Returns the
    (..., 4, 4) stack of register states.  _corrupt_path_c_sign is a test
    hook that negates the path-c branch to demonstrate the identity
    actually bites.

    <b_i| rho_B |b_j> = tr_modes(L_i sigma L_j^dagger) = sum_ab K[ij, ab]
    sigma[a, b], with the 16x4 Gram kernel K[ij, ab] = sqrt(p_i) sqrt(p_j)
    sum_m L_i[m, a] conj(L_j[m, b]) of the weighted LON isometries, so the
    whole stack is one (..., 4) @ (4, 16) product.
    """
    if sigma.dim != 2:
        raise ValueError("sigma must be a qubit state")
    if isinstance(sigma, PureState):
        mat = sigma.amps[..., :, None] * sigma.amps[..., None, :].conj()
    else:
        mat = sigma.mat
    amp = np.sqrt(source.probs)
    if _corrupt_path_c_sign:
        amp[PATH_SETTINGS.index(PathSetting.C)] *= -1.0
    kernel = (np.outer(amp, amp)[:, :, None, None] * _LON_GRAM).reshape(16, 4)
    lead = mat.shape[:-2]
    register = (mat.reshape(*lead, 4) @ kernel.T).reshape(*lead, 4, 4)
    if register_basis is not None:
        basis = np.asarray(register_basis, dtype=complex)
        if basis.shape[-2:] != (4, 4) or not (np.abs(
                basis.conj().swapaxes(-1, -2) @ basis - np.eye(4)) <= 1e-12).all():  # NaN fails
            raise ValueError("register basis must be a 4x4 unitary")
        register = basis @ register @ basis.conj().swapaxes(-1, -2)
    return DensityMatrix(register)
