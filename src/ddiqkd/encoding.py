"""State preparation on both ends of the link.

Alice encodes a BB84 polarization qubit; Bob's linear-optics network (LON)
encodes his setting in the photon's path (which input port of the Bell
measurement it occupies, or a phase-coherent superposition of both).  The
module also carries the virtual-protocol construction used to show that the
receiver's path encoding leaks nothing about the incoming photon: the
reduced state of Bob's virtual register equals Alice's, independently of
the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .qstate import DensityMatrix, PureState, reduce_density

SQ2 = 1.0 / np.sqrt(2.0)

__all__ = [
    "Basis",
    "Bb84Setting",
    "PathSetting",
    "ALICE_SETTINGS",
    "PATH_SETTINGS",
    "bb84_state",
    "lon_isometry",
    "apply_lon",
    "bell_basis_matrix",
    "hybrid_bell_expand",
    "VirtualSource",
    "rho_alice",
    "rho_bob",
    "agreement_detectors",
    "flip_detectors",
]


class Basis(Enum):
    RECTILINEAR = "rectilinear"
    DIAGONAL = "diagonal"


@dataclass(frozen=True)
class Bb84Setting:
    """Alice's choice: (rect,0)->H, (rect,1)->V, (diag,0)->+45, (diag,1)->-45."""

    basis: Basis
    bit: int

    def __post_init__(self):
        if self.bit not in (0, 1):
            raise ValueError("bit must be 0 or 1")

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

_BB84_AMPS = {
    (Basis.RECTILINEAR, 0): np.array([1.0, 0.0], dtype=complex),
    (Basis.RECTILINEAR, 1): np.array([0.0, 1.0], dtype=complex),
    (Basis.DIAGONAL, 0): np.array([SQ2, SQ2], dtype=complex),
    (Basis.DIAGONAL, 1): np.array([SQ2, -SQ2], dtype=complex),
}

# Path kets addressed by each LON setting, in the (inp1, inp2) port basis.
_PATH_KETS = {
    PathSetting.A: np.array([1.0, 0.0], dtype=complex),
    PathSetting.C: np.array([0.0, 1.0], dtype=complex),
    PathSetting.B0: np.array([SQ2, SQ2], dtype=complex),
    PathSetting.BPI: np.array([SQ2, -SQ2], dtype=complex),
}


def bb84_state(setting: Bb84Setting) -> PureState:
    """Polarization qubit for one of the four BB84 settings."""
    return PureState(_BB84_AMPS[(setting.basis, setting.bit)].copy(), ("pol",))


def lon_isometry(setting: PathSetting) -> np.ndarray:
    """4x2 isometry taking a polarization qubit into the pol (x) path space.

    The polarization is untouched; the path factor is set to the ket
    addressed by the setting (a definite port for paths a/c, an equal
    superposition with phase 0 or pi for path b).
    """
    return np.kron(np.eye(2, dtype=complex), _PATH_KETS[setting].reshape(2, 1))


def apply_lon(setting: PathSetting, pol: PureState) -> PureState:
    """Send a polarization qubit through the LON at the given setting."""
    if pol.labels != ("pol",):
        raise ValueError("input must be a single polarization qubit")
    if abs(np.linalg.norm(pol.amps) - 1.0) > 1e-12:
        raise ValueError("input is not normalized")
    return PureState(lon_isometry(setting) @ pol.amps, ("pol", "path"))


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
    """Coefficients of a pol (x) path state in the hybrid Bell basis."""
    if state.dim != 4:
        raise ValueError("expected a two-factor (pol, path) state")
    return _BELL.conj() @ state.amps


@dataclass(frozen=True)
class VirtualSource:
    """Entanglement-based picture of Alice's four-state source.

    probs are the emission probabilities of the four BB84 settings (order
    H, V, +45, -45).  The joint state is
    |Psi> = sum_i sqrt(p_i) |a_i>|psi_i> with |a_i> an orthonormal register
    basis and |psi_i> the BB84 polarization states.
    """

    probs: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (4,) or np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
            raise ValueError("probabilities must be 4 nonnegative values summing to 1")
        object.__setattr__(self, "probs", tuple(float(x) for x in p))

    def joint_amplitudes(self) -> np.ndarray:
        """|Psi> on register (x) polarization, shape (4, 2)."""
        joint = np.zeros((4, 2), dtype=complex)
        for i, setting in enumerate(ALICE_SETTINGS):
            joint[i] = np.sqrt(self.probs[i]) * bb84_state(setting).amps
        return joint


def rho_alice(source: VirtualSource) -> DensityMatrix:
    """Reduced state of Alice's virtual register (4x4, rank two)."""
    joint = source.joint_amplitudes().reshape(-1)
    rho = np.outer(joint, joint.conj())
    return DensityMatrix(reduce_density(rho, (4, 2), (0,)))


def rho_bob(
    sigma: PureState | DensityMatrix,
    source: VirtualSource = VirtualSource(),
    register_basis: np.ndarray | None = None,
    _corrupt_path_c_sign: bool = False,
) -> DensityMatrix:
    """Reduced state of Bob's virtual register after the controlled LON.

    Bob prepares sum_i sqrt(p_i)|b_i> on a four-state register, then routes
    the incoming qubit sigma through the LON setting controlled by the
    register.  Tracing out the optical modes leaves a register state that is
    independent of sigma and equal to rho_alice(source).

    register_basis optionally replaces the computational |b_i> by the
    columns of a 4x4 unitary (the identity is basis-independent up to a
    spectrum-preserving rotation).  _corrupt_path_c_sign is a test hook that
    negates the path-c branch to demonstrate the identity actually bites.
    """
    if isinstance(sigma, DensityMatrix):
        # mix the pure-branch results; enough by linearity of the trace
        if sigma.dim != 2:
            raise ValueError("sigma must be a qubit state")
        vals, vecs = np.linalg.eigh(sigma.mat)
        out = np.zeros((4, 4), dtype=complex)
        for w, v in zip(vals, vecs.T):
            if w < 1e-15:
                continue
            branch = rho_bob(
                PureState(v, ("pol",)),
                source,
                register_basis,
                _corrupt_path_c_sign,
            )
            out = out + w * branch.mat
        return DensityMatrix(out)

    if sigma.labels != ("pol",):
        raise ValueError("sigma must be a polarization qubit")

    basis = np.eye(4, dtype=complex) if register_basis is None else np.asarray(register_basis, dtype=complex)
    if basis.shape != (4, 4) or np.max(np.abs(basis.conj().T @ basis - np.eye(4))) > 1e-12:
        raise ValueError("register basis must be a 4x4 unitary")

    joint = np.zeros((4, 4), dtype=complex)  # register (x) optical modes
    for i, setting in enumerate(PATH_SETTINGS):
        optical = lon_isometry(setting) @ sigma.amps
        if _corrupt_path_c_sign and setting is PathSetting.C:
            optical = -optical
        joint += np.sqrt(source.probs[i]) * np.outer(basis[:, i], optical)
    flat = joint.reshape(-1)
    rho = np.outer(flat, flat.conj())
    return DensityMatrix(reduce_density(rho, (4, 4), (0,)))


def agreement_detectors(alice: Bb84Setting, bob: PathSetting) -> tuple[int, int]:
    """Detector pair (1-based) an ideal photon can reach for a basis-matched pair.

    These are exactly the outcomes whose flip rule restores bit agreement.
    """
    if alice.basis is not bob.basis:
        raise ValueError("settings are not basis-matched")
    if alice.basis is Basis.RECTILINEAR:
        return (1, 2) if alice.bit == bob.bit else (3, 4)
    return (1, 3) if alice.bit == bob.bit else (2, 4)


def flip_detectors(basis: Basis) -> tuple[int, int]:
    """Detectors (1-based) whose click means Bob flips his bit in this basis."""
    return (3, 4) if basis is Basis.RECTILINEAR else (2, 4)
