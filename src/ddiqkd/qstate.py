"""Minimal complex linear algebra for pure states and density matrices.

Everything here lives in tiny labeled tensor-product spaces (a handful of
two-level factors), stored dense.  Basis ordering is fixed globally: the
first label is the slowest-varying index, so for a polarization+path state
the amplitude order is (H,inp1), (H,inp2), (V,inp1), (V,inp2).

States are arrays with the state axes last: amplitudes (..., d) and density
matrices (..., d, d).  Every function broadcasts over the leading axes, so
a stack of states is one array and a single state is a stack with no
leading axes.
"""

from __future__ import annotations

import numpy as np

from ._record import Record

NORM_TOL = 1e-12

__all__ = [
    "PureState",
    "DensityMatrix",
    "reduce_density",
    "trace_distance",
    "max_trace_distance",
    "haar_amplitudes",
    "random_unitary",
]


class PureState(Record):
    """Unit-norm state vectors over named two-level factors.

    amps   -- complex amplitudes, shape (..., 2**len(labels)); each vector
              along the last axis is one state
    labels -- ordered factor names, e.g. ("pol",) or ("pol", "path")
    """

    def __init__(self, amps: np.ndarray, labels: tuple[str, ...]):
        amps, labels = np.asarray(amps, dtype=complex), tuple(labels)
        if amps.ndim == 0:
            raise ValueError("amplitudes must be a vector or a stack of vectors")
        if amps.shape[-1] != 2 ** len(labels):
            raise ValueError(
                f"dimension {amps.shape[-1]} does not match factors {labels}"
            )
        if not (np.abs(np.linalg.norm(amps, axis=-1) - 1.0) <= NORM_TOL).all():  # NaN fails
            raise ValueError("state is not normalized")
        vars(self).update(amps=amps, labels=labels)

    @property
    def dim(self) -> int:
        return self.amps.shape[-1]


class DensityMatrix(Record):
    """Hermitian, unit-trace, positive-semidefinite matrices, shape (..., d, d).

    Every matrix of a stack is validated.  Positivity means a smallest
    eigenvalue above -NORM_TOL, tested by a Cholesky elimination of
    mat + NORM_TOL * I run on the whole stack at once (``_positive_definite``),
    which succeeds exactly when that shifted matrix is positive definite.
    A smallest eigenvalue of -NORM_TOL / 2 is accepted, one of
    -1.5 * NORM_TOL rejected; only within rounding of -NORM_TOL itself can
    the elimination and an exact spectrum disagree.
    """

    def __init__(self, mat: np.ndarray):
        mat = np.asarray(mat, dtype=complex)
        if mat.ndim < 2 or mat.shape[-1] != mat.shape[-2]:
            raise ValueError("density matrix must be square")
        if not (np.abs(mat - mat.conj().swapaxes(-1, -2)) <= NORM_TOL).all():  # NaN fails
            raise ValueError("density matrix is not Hermitian")
        trace = np.trace(mat, axis1=-2, axis2=-1)
        if not ((np.abs(trace.real - 1.0) <= NORM_TOL) & (np.abs(trace.imag) <= NORM_TOL)).all():
            raise ValueError("density matrix trace is not 1")
        if not _positive_definite(mat):
            raise ValueError("density matrix has a negative eigenvalue")
        vars(self).update(mat=mat)

    @property
    def dim(self) -> int:
        return self.mat.shape[-1]

    def eigenvalues(self) -> np.ndarray:
        """Real spectra in ascending order, shape (..., d)."""
        return np.linalg.eigvalsh(self.mat)


def _positive_definite(mat: np.ndarray) -> bool:
    """Whether mat + NORM_TOL * I is positive definite, for every matrix of a Hermitian stack.

    The rule of LAPACK's Cholesky factorization, applied to the whole stack
    at once rather than one call per matrix: w[i][j] (j <= i) is the vector,
    over the stack, of one lower-triangle entry.  Step k needs every pivot
    w[k][k] > 0 (NaN fails), then subtracts (w[i][k] / pivot) * conj(w[j][k])
    from each w[i][j] with i >= j > k.  Only the real part of the diagonal
    is kept, as the factorization reads no other.  A positive definite
    matrix of unit trace cannot overflow here; one with huge off-diagonals
    can, and then a later pivot is -inf or NaN, which rejects it.
    """
    d = mat.shape[-1]
    w = [[mat[..., i, j] for j in range(i)] + [mat[..., i, i].real + NORM_TOL] for i in range(d)]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(d):
            pivot = w[k][k]
            if not (pivot > 0).all():  # NaN fails
                return False
            conj = {j: w[j][k].conj() for j in range(k + 1, d)}
            for i in range(k + 1, d):
                scaled = w[i][k] / pivot
                for j in range(k + 1, i):
                    w[i][j] = w[i][j] - scaled * conj[j]
                w[i][i] = w[i][i] - (scaled * conj[i]).real
    return True


def _stack_first(*states: DensityMatrix) -> DensityMatrix:
    """The first matrix of each state (its only one when it has no leading
    axes), as a (k, 1, d, d) column that broadcasts against any stack.

    Each matrix passed validation with its state, so the column is not
    validated again; only DensityMatrix states are taken.
    """
    if not all(isinstance(state, DensityMatrix) for state in states):
        raise TypeError("only DensityMatrix states are stacked without validation")
    column = object.__new__(DensityMatrix)
    object.__setattr__(column, "mat", np.stack([
        state.mat.reshape(-1, state.dim, state.dim)[0] for state in states])[:, None])
    return column


def reduce_density(mat: np.ndarray, dims: tuple[int, ...], keep: tuple[int, ...]) -> np.ndarray:
    """Trace a dense matrix over all factors not listed in ``keep``.

    dims gives the factor dimensions in index order; keep lists the factor
    positions to retain (in their original order).
    """
    mat = np.asarray(mat, dtype=complex)
    n = len(dims)
    if mat.shape != (int(np.prod(dims)), int(np.prod(dims))):
        raise ValueError("matrix shape does not match factor dimensions")
    keep = tuple(keep)
    traced = [i for i in range(n) if i not in keep]
    tens = mat.reshape(*dims, *dims)
    # contract each traced factor's row index with its column index
    for offset, i in enumerate(sorted(traced)):
        ax = i - offset  # row-side axis after previous contractions
        ncur = tens.ndim // 2
        tens = np.trace(tens, axis1=ax, axis2=ax + ncur)
    d_keep = int(np.prod([dims[i] for i in keep])) if keep else 1
    return tens.reshape(d_keep, d_keep)


def _half_trace_norm(diff: np.ndarray) -> np.ndarray:
    """Half the sum of absolute eigenvalues of each Hermitian matrix in diff."""
    return 0.5 * np.abs(np.linalg.eigvalsh(diff)).sum(axis=-1)


def trace_distance(a: DensityMatrix, b: DensityMatrix) -> np.ndarray:
    """Half the sum of absolute eigenvalues of a - b, in [0, 1].

    The stacks broadcast against each other; all distances come from one
    stacked ``eigvalsh``.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    return _half_trace_norm(a.mat - b.mat)


def max_trace_distance(a: DensityMatrix, b: DensityMatrix) -> float:
    """``float(trace_distance(a, b).max())``, bit for bit, from fewer spectra.

    A d x d difference X obeys ||X||_F <= ||X||_1 <= sqrt(d) ||X||_F.  So
    once the pair with the largest Frobenius norm gives the trace norm t, a
    pair with sqrt(d) ||X||_F < t cannot be the farthest, and only the
    others are diagonalized, in one stacked ``eigvalsh``.  The relative
    margin 1e-9 on that test covers rounding.
    """
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    d = a.dim
    diff = np.subtract(a.mat, b.mat, order="C").reshape(-1, d, d)
    flat = diff.reshape(len(diff), -1).view(float)  # real and imaginary parts, no copy
    reach = 0.5 * np.sqrt(d * np.einsum("ni,ni->n", flat, flat))  # no pair is farther
    # a mask rather than argmax: no other verify-appendix step runs argmax,
    # and mapping its code costs 64 KiB of resident memory
    top = _half_trace_norm(diff[reach == reach.max()]).max()
    return float(_half_trace_norm(diff[reach >= (1.0 - 1e-9) * top]).max())


def _complex_normal(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Standard complex Gaussians: one draw of all real parts, then all
    imaginary parts, the numbers of two draws of ``shape`` each."""
    z = np.empty(shape, dtype=complex)
    z.real, z.imag = rng.normal(size=(2, *shape))
    return z


def haar_amplitudes(dim: int, rng: np.random.Generator, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-random unit vectors in C^dim, shape (*shape, dim).

    Each Gaussian vector is scaled by the reciprocal of the norm that
    ``np.linalg.norm`` computes; numpy divides a complex value by a real one
    as that product, so the bits are those of ``v / norm``.
    """
    v = _complex_normal(rng, (*shape, dim))
    v *= 1.0 / np.sqrt(np.add.reduce((v.conj() * v).real, axis=-1, keepdims=True))
    return v


def random_unitary(dim: int, rng: np.random.Generator, shape: tuple[int, ...] = ()) -> np.ndarray:
    """Haar-random unitaries via QR of Ginibre matrices, shape (*shape, dim, dim)."""
    q, r = np.linalg.qr(_complex_normal(rng, (*shape, dim, dim)))
    # fix the phase ambiguity of QR so the distribution is Haar
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]
