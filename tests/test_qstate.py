"""Tests for the pure-state / density-matrix core."""

import warnings

import numpy as np
import pytest

from ddiqkd.encoding import VirtualSource, rho_alice, rho_bob
from ddiqkd.qstate import (
    NORM_TOL,
    DensityMatrix,
    PureState,
    _stack_first,
    haar_amplitudes,
    max_trace_distance,
    random_unitary,
    reduce_density,
    trace_distance,
)

SQ2 = 1.0 / np.sqrt(2.0)


def ket(*amps, labels=("pol",)):
    return PureState(np.array(amps, dtype=complex), labels)


def projector(amps):
    """|psi><psi| for each amplitude vector along the last axis."""
    amps = np.asarray(amps, dtype=complex)
    return amps[..., :, None] * amps[..., None, :].conj()


H = ket(1, 0)
V = ket(0, 1)
PLUS = ket(SQ2, SQ2)


class TestPureState:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            ket(1, 1)

    def test_stack_validates_every_state(self):
        rng = np.random.default_rng(13)
        amps = haar_amplitudes(4, rng, (3, 5))
        assert PureState(amps, ("pol", "path")).dim == 4
        amps[2, 4] *= 1.01
        with pytest.raises(ValueError, match="normalized"):
            PureState(amps, ("pol", "path"))
        with pytest.raises(ValueError, match="does not match"):
            PureState(amps, ("pol",))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            PureState(np.array([np.nan, 0]), ("pol",))
        amps = haar_amplitudes(2, np.random.default_rng(3), (4,))
        amps[1, 0] = np.nan
        with pytest.raises(ValueError, match="normalized"):
            PureState(amps, ("pol",))


class TestDensityMatrix:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.5j], [0.5j, 0.5]]))
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.eye(2))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(np.array([[1.5, 0], [0, -0.5]]))

    def test_invariants_enforced_on_every_matrix_of_a_stack(self):
        good = np.broadcast_to(np.eye(2) / 2, (4, 2, 2))
        for bad in (np.array([[0.5, 0.5j], [0.5j, 0.5]]), np.eye(2), np.diag([1.5, -0.5])):
            stack = good.copy().astype(complex)
            stack[3] = bad
            with pytest.raises(ValueError):
                DensityMatrix(stack)
        with pytest.raises(ValueError, match="square"):
            DensityMatrix(np.ones((3, 2, 4)) / 2)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(np.full((2, 2), np.nan))
        stack = np.broadcast_to(np.eye(2) / 2, (4, 2, 2)).astype(complex)
        stack[2, 1, 1] = np.nan
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(stack)

    def test_positivity_boundary(self):
        # accepted down to a smallest eigenvalue of -NORM_TOL, rejected below it
        DensityMatrix(np.diag([1 + NORM_TOL / 2, -NORM_TOL / 2]))
        for k in (10, 1.5):
            with pytest.raises(ValueError, match="negative eigenvalue"):
                DensityMatrix(np.diag([1 + k * NORM_TOL, -k * NORM_TOL]))
        stack = np.broadcast_to(np.eye(4) / 4, (4, 4, 4)).astype(complex)
        stack[1] = np.diag([0.5, 0.5 + 10 * NORM_TOL, 0, -10 * NORM_TOL])
        with pytest.raises(ValueError, match="negative eigenvalue"):
            DensityMatrix(stack)

    @pytest.mark.parametrize("lam_min, accepted", [
        (-10 * NORM_TOL, False), (-2 * NORM_TOL, False), (-NORM_TOL / 2, True), (0.0, True)])
    def test_positivity_in_random_bases(self, lam_min, accepted):
        # U diag(0.7 - lam_min, 0.2, 0.1, lam_min) U^dagger over a stack of Haar unitaries
        u = random_unitary(4, np.random.default_rng(11), (200,))
        lam = np.array([0.7 - lam_min, 0.2, 0.1, lam_min])
        stack = (u * lam) @ u.conj().swapaxes(-1, -2)
        stack = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
        if accepted:
            DensityMatrix(stack)
        else:
            with pytest.raises(ValueError, match="negative eigenvalue"):
                DensityMatrix(stack)

    @pytest.mark.parametrize("mat", [
        np.array([[0.5, 1e200], [1e200, 0.5]]),
        np.array([[0.5, 1e308], [1e308, 0.5]]),
        np.array([[0.5, 1e200j], [-1e200j, 0.5]]),
        np.eye(4) / 4 + 1e300 * (np.eye(4, k=1) + np.eye(4, k=-1)),
    ], ids=["2x2-1e200", "2x2-1e308", "2x2-imag-1e200", "4x4-1e300"])
    def test_huge_off_diagonals_rejected_without_overflow_warning(self, mat):
        # Hermitian and unit-trace, but with eigenvalues far below zero; the
        # positivity test must reject them without an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError, match="negative eigenvalue"):
                DensityMatrix(mat)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("k", [-10, -1.5, -0.5, 0])
    def test_positivity_agrees_with_cholesky(self, d, k):
        # Haar-rotated spectra with smallest eigenvalue k * NORM_TOL (d = 1
        # admits only the spectrum (1,)); np.linalg.cholesky of
        # mat + NORM_TOL * I is the oracle, matrix by matrix and for the stack
        rng = np.random.default_rng(100 * d + int(10 * k))
        n = 64
        rest = rng.dirichlet(np.ones(d - 1), size=n) if d > 1 else np.zeros((n, 0))
        lam = np.concatenate([np.full((n, 1), k * NORM_TOL), (1 - k * NORM_TOL) * rest], axis=1)
        if d == 1:
            lam[:] = 1.0
        u = random_unitary(d, rng, (n,))
        stack = (u * lam[:, None, :]) @ u.conj().swapaxes(-1, -2)
        stack = 0.5 * (stack + stack.conj().swapaxes(-1, -2))
        stack[..., np.arange(d), np.arange(d)] += (1 - np.trace(stack, axis1=-2, axis2=-1))[:, None] / d
        oracle = [_cholesky_accepts(m) for m in stack]
        assert [_accepts(m) for m in stack] == oracle
        assert _accepts(stack) == all(oracle)
        assert all(oracle) == (k > -1 or d == 1)

    def test_positivity_of_empty_and_one_by_one_stacks(self):
        for mat in (np.zeros((0, 4, 4)), np.ones((1, 1)), np.ones((3, 1, 1)), np.ones((1, 1, 1))):
            assert _cholesky_accepts(mat)
            DensityMatrix(mat)

    def test_haar_projectors_accepted(self):
        amps = haar_amplitudes(4, np.random.default_rng(7), (10_000,))
        rho = DensityMatrix(projector(amps))
        assert rho.eigenvalues().min() > -NORM_TOL

    def test_pure_projector(self):
        rho = DensityMatrix(projector([[SQ2, SQ2], [1.0, 0.0]]))
        np.testing.assert_allclose(rho.mat[0], 0.5 * np.ones((2, 2)), atol=1e-15)
        np.testing.assert_allclose(rho.eigenvalues(), [[0.0, 1.0], [0.0, 1.0]], atol=1e-15)


def _accepts(mat) -> bool:
    try:
        DensityMatrix(mat)
    except ValueError as exc:
        assert str(exc) == "density matrix has a negative eigenvalue"
        return False
    return True


def _cholesky_accepts(mat) -> bool:
    """The oracle: mat + NORM_TOL * I has a Cholesky factor."""
    try:
        np.linalg.cholesky(mat + NORM_TOL * np.eye(mat.shape[-1]))
    except np.linalg.LinAlgError:
        return False
    return True


def _partial_trace_oracle(rho4: np.ndarray, keep: int) -> np.ndarray:
    """Explicit index summation; factor 0 is the slow one, factor 1 the fast one."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            if keep == 0:
                out[i, j] = sum(rho4[2 * i + k, 2 * j + k] for k in range(2))
            else:
                out[i, j] = sum(rho4[2 * k + i, 2 * k + j] for k in range(2))
    return out


class TestStackFirst:
    def test_column_of_first_matrices(self):
        sender = density(H)
        stack = DensityMatrix(projector(haar_amplitudes(2, np.random.default_rng(67), (5,))))
        column = _stack_first(sender, stack)
        assert column.mat.tobytes() == np.stack([sender.mat, stack.mat[0]])[:, None].tobytes()

    def test_only_density_matrices_taken(self):
        # a raw array has passed no validation
        with pytest.raises(TypeError, match="DensityMatrix"):
            _stack_first(density(H), np.eye(2) / 2)


class TestPartialTrace:
    def test_maximally_entangled_gives_identity(self):
        reduced = reduce_density(projector([SQ2, 0, 0, SQ2]), (2, 2), (0,))
        np.testing.assert_allclose(reduced, np.eye(2) / 2, atol=1e-14)

    def test_product_state_recovers_factor(self):
        rng = np.random.default_rng(5)
        a, b = haar_amplitudes(2, rng), haar_amplitudes(2, rng)
        reduced = reduce_density(projector(np.kron(a, b)), (2, 2), (0,))
        np.testing.assert_allclose(reduced, projector(a), atol=1e-13)

    def test_matches_index_summation_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            rho = projector(haar_amplitudes(4, rng))
            for keep in (0, 1):
                np.testing.assert_allclose(
                    reduce_density(rho, (2, 2), (keep,)),
                    _partial_trace_oracle(rho, keep),
                    atol=1e-13,
                )

    def test_linear_and_trace_preserving(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            s1 = projector(haar_amplitudes(4, rng))
            s2 = projector(haar_amplitudes(4, rng))
            w = rng.random()
            lhs = reduce_density(w * s1 + (1 - w) * s2, (2, 2), (1,))
            rhs = w * reduce_density(s1, (2, 2), (1,)) + (1 - w) * reduce_density(s2, (2, 2), (1,))
            np.testing.assert_allclose(lhs, rhs, atol=1e-13)
            assert np.trace(lhs).real == pytest.approx(1.0, abs=1e-12)

    def test_reduce_density_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            reduce_density(np.eye(3), (2, 2), (0,))


def density(state: PureState) -> DensityMatrix:
    return DensityMatrix(projector(state.amps))


class TestTraceDistance:
    def test_identical_states(self):
        rho = density(PLUS)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        assert trace_distance(density(H), density(V)) == pytest.approx(1.0, abs=1e-14)

    def test_mixed_vs_pure_half(self):
        # eigenvalues of I/2 - |H><H| are -1/2 and +1/2, so the distance is 0.5
        mixed = DensityMatrix(np.eye(2) / 2)
        assert trace_distance(mixed, density(H)) == pytest.approx(0.5, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            trace_distance(density(H), DensityMatrix(projector([1, 0, 0, 0])))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(31)
        a, b, c = (DensityMatrix(projector(haar_amplitudes(4, rng, (200,)))) for _ in range(3))
        assert (trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-10).all()

    def test_stacks_broadcast_like_single_pairs(self):
        rng = np.random.default_rng(37)
        a = DensityMatrix(projector(haar_amplitudes(4, rng, (5,))))
        b = DensityMatrix(projector(haar_amplitudes(4, rng, (3, 1))))
        stacked = trace_distance(a, b)
        assert stacked.shape == (3, 5)
        for i, j in np.ndindex(3, 5):
            single = trace_distance(DensityMatrix(a.mat[j]), DensityMatrix(b.mat[i, 0]))
            assert stacked[i, j] == pytest.approx(single, abs=1e-15)


class TestMaxTraceDistance:
    """max_trace_distance must equal the full stack's maximum bit for bit."""

    def test_equals_full_stack_maximum_on_broadcast_stacks(self):
        rng = np.random.default_rng(43)
        a = DensityMatrix(projector(haar_amplitudes(4, rng, (5,))))
        b = DensityMatrix(projector(haar_amplitudes(4, rng, (3, 1))))
        assert max_trace_distance(a, b) == float(trace_distance(a, b).max())
        assert max_trace_distance(b, a) == float(trace_distance(b, a).max())
        # a transposed (non-contiguous) stack works too
        t = DensityMatrix(a.mat.swapaxes(-1, -2))
        assert max_trace_distance(t, b) == float(trace_distance(t, b).max())

    def test_equals_full_stack_maximum_at_rounding_level(self):
        source = VirtualSource()
        rng = np.random.default_rng(47)
        rho = rho_bob(DensityMatrix(projector(haar_amplitudes(2, rng, (300,)))), source)
        worst = max_trace_distance(rho, rho_alice(source))
        assert 0.0 < worst < 1e-12
        assert worst == float(trace_distance(rho, rho_alice(source)).max())

    @pytest.mark.parametrize("near", [0.9, 1 - 1e-12])
    def test_largest_frobenius_norm_need_not_be_farthest(self, near):
        # pure states at trace distance t differ by ||X||_F = t sqrt(2) >= 1.27;
        # diag(1/2, 0, 1/2, 0) - diag(0, 1/2, 0, 1/2) has ||X||_F = 1 and distance
        # 1, where sqrt(d) ||X||_F / 2 = 1 is tight, so t = 1 - 1e-12 tests the margin
        psi = np.array([np.sqrt(1 - near**2), near, 0, 0])
        a = DensityMatrix(np.stack([projector([1, 0, 0, 0]), np.diag([0.5, 0, 0.5, 0])]))
        b = DensityMatrix(np.stack([projector(psi), np.diag([0, 0.5, 0, 0.5])]))
        assert trace_distance(a, b)[0] == pytest.approx(near, abs=1e-14)
        assert max_trace_distance(a, b) == 1.0

    def test_identical_stacks(self):
        rho = DensityMatrix(projector(haar_amplitudes(4, np.random.default_rng(53), (6,))))
        assert max_trace_distance(rho, rho) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            max_trace_distance(density(H), DensityMatrix(projector([1, 0, 0, 0])))


class TestRandomHelpers:
    def test_haar_amplitudes_normalized(self):
        rng = np.random.default_rng(41)
        for dim in (2, 4):
            v = haar_amplitudes(dim, rng)
            assert v.shape == (dim,)
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            stack = haar_amplitudes(dim, rng, (7, 3))
            assert stack.shape == (7, 3, dim)
            np.testing.assert_allclose(np.linalg.norm(stack, axis=-1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(), (1,), (1000,), (7, 3), (0,)])
    def test_samplers_are_the_two_draw_form_bit_for_bit(self, shape):
        """One draw of real then imaginary parts, filled in place and scaled by
        the reciprocal norm, gives the bytes of two draws and a division."""
        for seed in range(20):
            for dim in (2, 4):
                rng = np.random.default_rng([seed, 59])
                v = rng.normal(size=(*shape, dim)) + 1j * rng.normal(size=(*shape, dim))
                ref = v / np.linalg.norm(v, axis=-1, keepdims=True)
                got = haar_amplitudes(dim, np.random.default_rng([seed, 59]), shape)
                assert got.tobytes() == ref.tobytes() and got.shape == ref.shape, (seed, dim)

                rng = np.random.default_rng([seed, 61])
                z = rng.normal(size=(*shape, dim, dim)) + 1j * rng.normal(size=(*shape, dim, dim))
                q, r = np.linalg.qr(z)
                d = np.diagonal(r, axis1=-2, axis2=-1)
                ref = q * (d / np.abs(d))[..., None, :]
                got = random_unitary(dim, np.random.default_rng([seed, 61]), shape)
                assert got.tobytes() == ref.tobytes() and got.shape == ref.shape, (seed, dim)

    def test_random_unitary_is_unitary(self):
        rng = np.random.default_rng(43)
        u = random_unitary(4, rng)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(4), atol=1e-12)
        stack = random_unitary(4, rng, (50,))
        assert stack.shape == (50, 4, 4)
        np.testing.assert_allclose(stack @ stack.conj().swapaxes(-1, -2),
                                   np.broadcast_to(np.eye(4), (50, 4, 4)), atol=1e-12)
