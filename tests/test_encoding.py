"""Tests for state preparation, the path-encoding network, and the
virtual-protocol identities."""

import numpy as np
import pytest

from ddiqkd.encoding import (
    ALICE_SETTINGS,
    PATH_SETTINGS,
    Basis,
    Bb84Setting,
    PathSetting,
    VirtualSource,
    _LON,
    bell_basis_matrix,
    hybrid_bell_expand,
    lon_states,
    rho_alice,
    rho_bob,
)
from ddiqkd.qstate import (
    DensityMatrix,
    PureState,
    haar_amplitudes,
    random_unitary,
    reduce_density,
    trace_distance,
)
from ddiqkd.verify import check_basis_independence, check_receiver_state_fixed

from oracles import agreement_detectors

SQ2 = 1.0 / np.sqrt(2.0)
PATHS = (PathSetting.A, PathSetting.C, PathSetting.B0, PathSetting.BPI)

# Bob's four LON isometries I (x) |path>, setting by setting with np.kron,
# in the order of PATH_SETTINGS
PATH_KETS = {PathSetting.A: [1, 0], PathSetting.C: [0, 1],
             PathSetting.B0: [SQ2, SQ2], PathSetting.BPI: [SQ2, -SQ2]}
KRON_LON = np.array([np.kron(np.eye(2, dtype=complex),
                             np.array(PATH_KETS[path], dtype=complex).reshape(2, 1))
                     for path in PATH_SETTINGS])


def projector(amps):
    """|psi><psi| for each amplitude vector along the last axis."""
    amps = np.asarray(amps, dtype=complex)
    return amps[..., :, None] * amps[..., None, :].conj()


def qubits(amps) -> DensityMatrix:
    """Pure polarization states (one, or a stack) as a density stack."""
    return DensityMatrix(projector(amps))


def photon(alice, path):
    """Alice's BB84 photon through Bob's LON at ``path``: its row of lon_states()."""
    code = 4 * alice.index + PATH_SETTINGS.index(path)
    return PureState(lon_states().amps[code], ("pol", "path"))


# Alice's kets H, V, +45, -45, in the order of ALICE_SETTINGS, written out by hand
BB84_KETS = np.array([[1, 0], [0, 1], [SQ2, SQ2], [SQ2, -SQ2]], dtype=complex)


def alice_ket(alice):
    """Alice's polarization ket: path a adds |inp1>, so it is the even
    entries of her photon's lon_states() row through path a."""
    return photon(alice, PathSetting.A).amps[::2]


def _rho_bob_oracle(amps, source, basis, corrupt=False):
    """One pure input, one register basis: the joint register (x) modes state
    built setting by setting, then an explicit partial trace over the modes."""
    joint = np.zeros((4, 4), dtype=complex)
    for i, setting in enumerate(PATH_SETTINGS):
        optical = KRON_LON[i] @ amps
        if corrupt and setting is PathSetting.C:
            optical = -optical
        joint += np.sqrt(source.probs[i]) * np.outer(basis[:, i], optical)
    flat = joint.reshape(-1)
    return reduce_density(np.outer(flat, flat.conj()), (4, 4), (0,))


class TestBb84States:
    def test_rectilinear_zero_is_horizontal(self):
        np.testing.assert_allclose(alice_ket(Bb84Setting(Basis.RECTILINEAR, 0)), [1, 0])

    def test_diagonal_zero_is_plus45(self):
        np.testing.assert_allclose(alice_ket(Bb84Setting(Basis.DIAGONAL, 0)), [SQ2, SQ2])

    def test_mutually_unbiased(self):
        h = alice_ket(Bb84Setting(Basis.RECTILINEAR, 0))
        plus = alice_ket(Bb84Setting(Basis.DIAGONAL, 0))
        assert abs(np.vdot(h, plus)) ** 2 == pytest.approx(0.5, abs=1e-14)

    @pytest.mark.parametrize("basis", ["rectilinear", "diagonal", None, PathSetting.A])
    def test_basis_that_is_not_a_basis_rejected(self, basis):
        # "rectilinear" used to give the +45 state's index 2
        with pytest.raises(ValueError, match="basis"):
            Bb84Setting(basis, 0)

    @pytest.mark.parametrize("bit", [True, False, np.True_, 1.0, 0.0, "0"])
    def test_bit_that_is_not_an_integer_rejected(self, bit):
        # True used to compare equal to the int bit 1, and 1.0 to give the index 1.0
        with pytest.raises(ValueError, match="bit"):
            Bb84Setting(Basis.RECTILINEAR, bit)

    def test_numpy_integer_bit_is_a_python_int(self):
        setting = Bb84Setting(Basis.DIAGONAL, np.int64(1))
        assert type(setting.bit) is int and setting == ALICE_SETTINGS[3] and setting.index == 3

    def test_bad_bit_rejected(self):
        with pytest.raises(ValueError):
            Bb84Setting(Basis.RECTILINEAR, 2)


class TestLonIsometry:
    def test_path_a_keeps_port1(self):
        out = photon(Bb84Setting(Basis.RECTILINEAR, 0), PathSetting.A)
        np.testing.assert_allclose(out.amps, [1, 0, 0, 0])

    def test_path_c_moves_to_port2(self):
        out = photon(Bb84Setting(Basis.RECTILINEAR, 1), PathSetting.C)
        np.testing.assert_allclose(out.amps, [0, 0, 0, 1])

    def test_path_b0_superposes_ports(self):
        out = photon(Bb84Setting(Basis.RECTILINEAR, 0), PathSetting.B0)
        np.testing.assert_allclose(out.amps, [SQ2, SQ2, 0, 0], atol=1e-15)

    def test_isometry_matrices(self):
        # L^dagger L = I for each setting: rho_bob's trace over the modes relies on it
        np.testing.assert_allclose(_LON.conj().swapaxes(-1, -2) @ _LON,
                                   np.broadcast_to(np.eye(2), (4, 2, 2)), atol=1e-14)

    def test_tables_match_kron_construction(self):
        # the isometries I (x) |path> and the 16 photons, bit for bit
        assert _LON.shape == KRON_LON.shape and _LON.tobytes() == KRON_LON.tobytes()
        states = np.einsum("bij,aj->abi", KRON_LON, BB84_KETS).reshape(16, 4)
        assert lon_states().amps.shape == (16, 4)
        assert lon_states().amps.tobytes() == states.tobytes()

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError, match="read-only"):
            _LON[0, 0, 0] = 2.0
        with pytest.raises(ValueError, match="read-only"):
            lon_states().amps[0, 0] = 2.0
        np.testing.assert_array_equal(_LON[0], [[1, 0], [0, 0], [0, 1], [0, 0]])


class TestBellExpansion:
    def test_basis_is_orthonormal(self):
        bell = bell_basis_matrix()
        np.testing.assert_allclose(bell @ bell.conj().T, np.eye(4), atol=1e-14)

    def test_h_inp1(self):
        state = PureState(np.array([1, 0, 0, 0], dtype=complex), ("pol", "path"))
        np.testing.assert_allclose(hybrid_bell_expand(state), [SQ2, SQ2, 0, 0], atol=1e-15)

    def test_plus45_through_b0(self):
        # (|H>+|V>)(|1>+|2>)/2 expands to (phi+ + psi+)/sqrt(2) by hand
        state = photon(Bb84Setting(Basis.DIAGONAL, 0), PathSetting.B0)
        np.testing.assert_allclose(hybrid_bell_expand(state), [SQ2, 0, SQ2, 0], atol=1e-15)

    def test_plus45_through_bpi(self):
        # (|H>+|V>)(|1>-|2>)/2 expands to (phi- - psi-)/sqrt(2) by hand
        state = photon(Bb84Setting(Basis.DIAGONAL, 0), PathSetting.BPI)
        np.testing.assert_allclose(hybrid_bell_expand(state), [0, SQ2, 0, -SQ2], atol=1e-15)

    def test_coefficients_are_normalized(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            state = PureState(haar_amplitudes(4, rng), ("pol", "path"))
            coeffs = hybrid_bell_expand(state)
            assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(1.0, abs=1e-12)


class TestReceiverState:
    def test_equals_sender_state_for_h_input(self):
        source = VirtualSource()
        sigma = qubits(alice_ket(Bb84Setting(Basis.RECTILINEAR, 0)))
        assert trace_distance(rho_bob(sigma, source), rho_alice(source)) < 1e-12

    def test_identical_for_h_and_v(self):
        source = VirtualSource()
        r_h = rho_bob(qubits([1, 0]), source)
        r_v = rho_bob(qubits([0, 1]), source)
        assert trace_distance(r_h, r_v) < 1e-12

    def test_input_independent_over_haar_samples(self):
        source = VirtualSource()
        rng = np.random.default_rng(13)
        rho = rho_bob(qubits(haar_amplitudes(2, rng, (300,))), source)
        assert rho.mat.shape == (300, 4, 4)
        assert trace_distance(rho, rho_alice(source)).max() < 1e-12

    def test_rank_two(self):
        # a validated density matrix with two zero eigenvalues
        for probs in ((0.25,) * 4, (0.7, 0.0, 0.2, 0.1)):
            eigs = rho_alice(VirtualSource(probs)).eigenvalues()
            assert np.sum(eigs > 1e-12) == 2

    @pytest.mark.parametrize("probs", [(0.25,) * 4, (0.1, 0.2, 0.3, 0.4), (0.7, 0.1, 0.1, 0.1)])
    def test_sender_state_is_the_partial_trace_bit_for_bit(self, probs):
        # the register marginal of |Psi><Psi|, exactly as reduce_density gives it
        joint = VirtualSource(probs).joint_amplitudes().reshape(-1)
        traced = reduce_density(np.outer(joint, joint.conj()), (4, 2), (0,))
        assert rho_alice(VirtualSource(probs)).mat.tobytes() == traced.tobytes()

    def test_mixed_input(self):
        source = VirtualSource()
        mixed = DensityMatrix(np.array([[0.7, 0.1], [0.1, 0.3]], dtype=complex))
        assert trace_distance(rho_bob(mixed, source), rho_alice(source)) < 1e-12

    def test_nonuniform_probabilities(self):
        source = VirtualSource((0.4, 0.3, 0.2, 0.1))
        rng = np.random.default_rng(19)
        rho = rho_bob(qubits(haar_amplitudes(2, rng, (50,))), source)
        assert trace_distance(rho, rho_alice(source)).max() < 1e-12

    def test_basis_independence_of_spectrum(self):
        source = VirtualSource()
        rng = np.random.default_rng(29)
        ref = rho_bob(qubits(haar_amplitudes(2, rng)), source).eigenvalues()
        rotated = rho_bob(qubits(haar_amplitudes(2, rng, (50,))), source,
                          register_basis=random_unitary(4, rng, (50,)))
        assert np.max(np.abs(rotated.eigenvalues() - ref)) < 1e-12

    def test_corruption_hook_breaks_identity(self):
        source = VirtualSource()
        sigma = qubits(alice_ket(Bb84Setting(Basis.DIAGONAL, 0)))
        broken = rho_bob(sigma, source, _corrupt_path_c_sign=True)
        assert trace_distance(broken, rho_alice(source)) > 1e-3

    def test_corrupted_batch_fails_on_every_sample(self):
        source = VirtualSource()
        rng = np.random.default_rng(47)
        broken = rho_bob(qubits(haar_amplitudes(2, rng, (200,))), source,
                         register_basis=random_unitary(4, rng, (200,)), _corrupt_path_c_sign=True)
        assert (trace_distance(broken, rho_alice(source)) > 1e-3).all()
        broken = rho_bob(qubits(haar_amplitudes(2, rng, (200,))), source, _corrupt_path_c_sign=True)
        assert (trace_distance(broken, rho_alice(source)) > 1e-3).all()

    def test_non_unitary_basis_anywhere_in_batch_rejected(self):
        rng = np.random.default_rng(53)
        sigma = qubits(haar_amplitudes(2, rng, (20,)))
        for bad in (1.001 * np.eye(4), np.ones((4, 4)) / 2, np.diag([1, 1, 1, 0])):
            bases = random_unitary(4, rng, (20,))
            bases[17] = bad
            with pytest.raises(ValueError, match="unitary"):
                rho_bob(sigma, register_basis=bases)
        with pytest.raises(ValueError, match="unitary"):
            rho_bob(sigma, register_basis=np.eye(3))

    def test_qubit_input_required(self):
        with pytest.raises(ValueError, match="qubit"):
            rho_bob(DensityMatrix(np.eye(4) / 4))
        with pytest.raises(ValueError, match="qubit"):
            rho_bob(photon(ALICE_SETTINGS[0], PathSetting.A))

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            VirtualSource((0.5, 0.5, 0.5, -0.5))
        with pytest.raises(ValueError):
            VirtualSource((0.5, 0.4, 0.05, 0.04))

    @pytest.mark.parametrize("probs", [(np.nan, 0.25, 0.25, 0.25), (0.25, 0.25, 0.5, np.nan),
                                       (np.inf, 0.25, 0.25, 0.25)])
    def test_non_finite_probabilities_rejected(self, probs):
        with pytest.raises(ValueError, match="probabilities"):
            VirtualSource(probs)

    @pytest.mark.parametrize("probs", [("0.25",) * 4, (True, False, False, False),
                                       (np.True_, False, False, False), (0.25 + 0j,) * 4,
                                       (None, 0.5, 0.25, 0.25)],
                             ids=["str", "bool", "np.bool", "complex", "None"])
    def test_probabilities_that_are_not_numbers_rejected(self, probs):
        # strings and bools used to be read as the numbers they convert to
        with pytest.raises(ValueError, match="probabilities"):
            VirtualSource(probs)

    def test_non_finite_register_basis_rejected(self):
        sigma = qubits(haar_amplitudes(2, np.random.default_rng(73), (5,)))
        with pytest.raises(ValueError, match="unitary"):
            rho_bob(sigma, register_basis=np.full((4, 4), np.nan))
        bases = random_unitary(4, np.random.default_rng(79), (5,))
        bases[3, 1, 2] = np.nan
        with pytest.raises(ValueError, match="unitary"):
            rho_bob(sigma, register_basis=bases)


class TestReceiverStateForEveryInput:
    """rho_bob is linear in sigma, and the projectors of |H>, |V>, |+> and
    |+i> span the 2x2 matrices: where those four inputs give rho_alice,
    every unit-trace sigma does."""

    SPANNING = PureState(np.array([[1, 0], [0, 1], [SQ2, SQ2], [SQ2, 1j * SQ2]], dtype=complex),
                         ("pol",))
    SOURCES = (VirtualSource(), *(VirtualSource(tuple(p))
                                  for p in np.random.default_rng(0).dirichlet(np.ones(4), 50)))

    def _deviation(self, source, corrupt):
        """Largest entry of |rho_B - rho_A| over the four spanning inputs."""
        rho = rho_bob(self.SPANNING, source, _corrupt_path_c_sign=corrupt)
        return np.abs(rho.mat - rho_alice(source).mat).max()

    def test_inputs_span_the_qubit_operators(self):
        assert np.linalg.matrix_rank(projector(self.SPANNING.amps).reshape(4, 4)) == 4

    def test_every_source_fixes_the_receiver_state(self):
        # worst 2.2e-16 over these 51 sources
        for k, source in enumerate(self.SOURCES):
            assert self._deviation(source, False) <= 1e-14, k

    def test_corrupted_network_moves_it_on_every_source(self):
        # the path-c sign error moves an entry by 0.354 on the uniform source
        # and by at least 0.0599 on each of the 50 random ones
        for k, source in enumerate(self.SOURCES):
            assert self._deviation(source, True) > 1e-2, k


class TestReceiverStateOracle:
    """The batched rho_bob against the setting-by-setting construction with an
    explicit partial trace, state by state, to 1e-15."""

    SOURCES = (VirtualSource(), VirtualSource((0.4, 0.3, 0.2, 0.1)),
               VirtualSource((0.7, 0.0, 0.2, 0.1)))

    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_pure_inputs(self, source, corrupt):
        rng = np.random.default_rng(59)
        amps = haar_amplitudes(2, rng, (40,))
        rho = rho_bob(qubits(amps), source, _corrupt_path_c_sign=corrupt)
        for k in range(40):
            expected = _rho_bob_oracle(amps[k], source, np.eye(4), corrupt)
            np.testing.assert_allclose(rho.mat[k], expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("source", SOURCES)
    def test_pure_inputs_in_random_register_bases(self, source):
        rng = np.random.default_rng(61)
        amps = haar_amplitudes(2, rng, (40,))
        bases = random_unitary(4, rng, (40,))
        rho = rho_bob(qubits(amps), source, register_basis=bases)
        for k in range(40):
            expected = _rho_bob_oracle(amps[k], source, bases[k])
            np.testing.assert_allclose(rho.mat[k], expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("source", SOURCES)
    def test_mixed_inputs(self, source):
        # sigma = w |a><a| + (1 - w) |b><b|; the oracle mixes the pure branches
        rng = np.random.default_rng(67)
        a, b = haar_amplitudes(2, rng, (2, 30))
        w = rng.random(30)
        sigma = w[:, None, None] * projector(a) + (1 - w[:, None, None]) * projector(b)
        bases = random_unitary(4, rng, (30,))
        rho = rho_bob(DensityMatrix(sigma), source, register_basis=bases)
        for k in range(30):
            expected = (w[k] * _rho_bob_oracle(a[k], source, bases[k])
                        + (1 - w[k]) * _rho_bob_oracle(b[k], source, bases[k]))
            np.testing.assert_allclose(rho.mat[k], expected, rtol=0, atol=1e-15)

    def test_single_state_is_a_stack_without_leading_axes(self):
        rng = np.random.default_rng(71)
        amps = haar_amplitudes(2, rng)
        basis = random_unitary(4, rng)
        rho = rho_bob(qubits(amps), register_basis=basis)
        assert rho.mat.shape == (4, 4)
        np.testing.assert_allclose(rho.mat, _rho_bob_oracle(amps, VirtualSource(), basis),
                                   rtol=0, atol=1e-15)


class TestReceiverStateCheck:
    """verify's receiver-state-fixed deviation against the full-stack maximum
    of trace_distance, rebuilt from the same rng stream."""

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_deviation_is_full_stack_maximum(self, corrupt):
        source = VirtualSource()
        for seed in range(20):
            result = check_receiver_state_fixed(1000, np.random.default_rng(seed), corrupt,
                                                rho_alice(source))
            amps = haar_amplitudes(2, np.random.default_rng(seed), (1000,))
            rho = rho_bob(qubits(amps), source, _corrupt_path_c_sign=corrupt)
            refs = DensityMatrix(np.stack([rho_alice(source).mat, rho.mat[0]])[:, None])
            assert result.max_deviation == float(trace_distance(rho, refs).max()), seed
            assert result.passed is not corrupt


class TestBasisIndependenceCheck:
    @pytest.mark.parametrize("corrupt", [False, True])
    def test_sign_error_fails(self, corrupt):
        # the path-c sign error is a unitary on rho_B; comparing states, not
        # spectra, catches it in every register basis
        for seed in range(5):
            result = check_basis_independence(20, np.random.default_rng(seed), corrupt,
                                              rho_alice(VirtualSource()))
            assert result.passed is not corrupt, seed
            assert (result.max_deviation > 0.1) is corrupt, seed


def _rho_bob_einsum(sigma, source, basis=None, corrupt=False):
    """The stacked three-operand contraction over modes, then the basis rotation."""
    amp = np.sqrt(source.probs)
    if corrupt:
        amp[PATH_SETTINGS.index(PathSetting.C)] *= -1.0
    lon = amp[:, None, None] * KRON_LON
    register = np.einsum("ima,...ab,jmb->...ij", lon, sigma, lon.conj())
    if basis is not None:
        register = basis @ register @ basis.conj().swapaxes(-1, -2)
    return register


class TestReceiverStateKernel:
    """rho_bob's Gram-kernel product against the einsum over modes, to 1e-15."""

    @pytest.mark.parametrize("source", TestReceiverStateOracle.SOURCES)
    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("shape", [(), (500,), (3, 7)])
    def test_haar_stacks(self, source, corrupt, shape):
        sigma = projector(haar_amplitudes(2, np.random.default_rng(83), shape))
        rho = rho_bob(DensityMatrix(sigma), source, _corrupt_path_c_sign=corrupt)
        assert rho.mat.shape == (*shape, 4, 4)
        np.testing.assert_allclose(rho.mat, _rho_bob_einsum(sigma, source, corrupt=corrupt),
                                   rtol=0, atol=1e-15)

    @pytest.mark.parametrize("source", TestReceiverStateOracle.SOURCES)
    @pytest.mark.parametrize("corrupt", [False, True])
    @pytest.mark.parametrize("shape", [(), (1,), (1000,), (3, 7)])
    def test_pure_stack_is_its_projector_bit_for_bit(self, source, corrupt, shape):
        """A PureState stack gives the bytes of its projectors' DensityMatrix,
        plain and in random register bases, over several seeds."""
        for seed in range(5):
            rng = np.random.default_rng([seed, 97])
            amps = haar_amplitudes(2, rng, shape)
            bases = random_unitary(4, rng, shape)
            for basis in (None, bases):
                pure = rho_bob(PureState(amps, ("pol",)), source, register_basis=basis,
                               _corrupt_path_c_sign=corrupt)
                mixed = rho_bob(qubits(amps), source, register_basis=basis,
                                _corrupt_path_c_sign=corrupt)
                assert pure.mat.tobytes() == mixed.mat.tobytes(), (seed, basis is None)

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_broadcast_register_bases(self, corrupt):
        rng = np.random.default_rng(89)
        source = VirtualSource((0.4, 0.3, 0.2, 0.1))
        sigma = projector(haar_amplitudes(2, rng, (6,)))
        bases = random_unitary(4, rng, (5, 1))
        rho = rho_bob(DensityMatrix(sigma), source, register_basis=bases,
                      _corrupt_path_c_sign=corrupt)
        assert rho.mat.shape == (5, 6, 4, 4)
        np.testing.assert_allclose(rho.mat, _rho_bob_einsum(sigma, source, bases, corrupt),
                                   rtol=0, atol=1e-15)


class TestFlipStructure:
    def test_matched_pairs_fill_expected_detector_pair(self):
        # Same-bit pairs sit on the no-flip detectors, different-bit pairs on
        # the flip detectors, exactly as the flip table demands.
        for alice in ALICE_SETTINGS:
            for path in PATHS:
                if alice.basis is not path.basis:
                    continue
                dist = np.abs(hybrid_bell_expand(photon(alice, path))) ** 2
                pair = agreement_detectors(alice, path)
                on_pair = sum(dist[i - 1] for i in pair)
                assert on_pair == pytest.approx(1.0, abs=1e-12)
                np.testing.assert_allclose(sorted(dist), [0, 0, 0.5, 0.5], atol=1e-12)

    def test_agreement_requires_matched_bases(self):
        with pytest.raises(ValueError, match="matched"):
            agreement_detectors(Bb84Setting(Basis.RECTILINEAR, 0), PathSetting.B0)
