"""Tests for the source and fiber channel model."""

import math
import warnings

import numpy as np
import pytest

from ddiqkd.channel import poisson_pn, transmittance
from ddiqkd.rates import RateParams, optimize_mu, yield_table
from ddiqkd.session import SessionParams, run_session

# chi-square critical value at alpha = 0.001 for 3 degrees of freedom
CHI2_999_DOF3 = 16.266


def _fiber_session(alpha, length_km, e_mis=0.0):
    """A one-pulse session over a fiber of loss alpha (dB/km) and length length_km."""
    return SessionParams(n_pulses=1, mu=0.7, length_km=length_km,
                         model=RateParams(alpha_db_per_km=alpha, e_mis=e_mis))


class TestPoissonPn:
    def test_vacuum_probability(self):
        assert poisson_pn(0.7, 0) == pytest.approx(0.4965853037914095, abs=1e-15)

    def test_single_photon_probability(self):
        assert poisson_pn(0.7, 1) == pytest.approx(0.34760971265398666, abs=1e-15)

    def test_normalization(self):
        for mu in (0.1, 0.7, 2.0):
            assert sum(poisson_pn(mu, n) for n in range(41)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_recursion(self):
        mu = 0.7
        p = poisson_pn(mu, 0)
        for n in range(1, 30):
            p *= mu / n
            assert poisson_pn(mu, n) == pytest.approx(p, abs=1e-14)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            poisson_pn(0.7, -1)

    @pytest.mark.parametrize("n", [1.5, 1.0, True, np.float64(1.0), "1"],
                             ids=["1.5", "1.0", "True", "np.float64", "str"])
    def test_non_integer_n_rejected(self, n):
        # 1.5 used to give a probability (0.1613 at mu = 0.5), and True was read as n = 1
        with pytest.raises(ValueError, match="photon number must be a nonnegative integer"):
            poisson_pn(0.5, n)

    def test_numpy_integer_n_taken(self):
        assert poisson_pn(0.5, np.int64(1)) == poisson_pn(0.5, 1)

    @pytest.mark.parametrize("mu", [True, np.True_], ids=["True", "np.True_"])
    def test_bool_mu_rejected(self, mu):
        # True used to pass 0 < mu < inf and give the probability at mu = 1.0
        with pytest.raises(ValueError, match="mu must be a real number"):
            poisson_pn(mu, 1)


class TestTransmittance:
    def test_zero_distance(self):
        assert transmittance(0.2, 0.0) == 1.0

    def test_fifty_km(self):
        assert transmittance(0.2, 50.0) == pytest.approx(0.1, abs=1e-15)

    def test_hundred_fifty_km(self):
        assert transmittance(0.2, 150.0) == pytest.approx(1e-3, abs=1e-18)

    def test_validation(self):
        with pytest.raises(ValueError):
            _fiber_session(-0.1, 10.0)
        with pytest.raises(ValueError):
            _fiber_session(0.2, -10.0)
        with pytest.raises(ValueError):
            _fiber_session(0.2, 10.0, e_mis=0.7)

    @pytest.mark.parametrize("alpha, length", [(math.nan, 10.0), (0.2, math.nan)])
    def test_nan_loss_rejected(self, alpha, length):
        # a NaN alpha is the rate model's to reject, a NaN length the session's
        with pytest.raises(ValueError, match="nonnegative number"):
            _fiber_session(alpha, length)

    @pytest.mark.parametrize("alpha, length", [(0.0, math.inf), (math.inf, 0.0)])
    def test_undefined_total_loss_rejected(self, alpha, length):
        with pytest.raises(ValueError, match="undefined"):
            _fiber_session(alpha, length)

    def test_infinite_length_blocks_everything(self):
        assert transmittance(0.2, math.inf) == 0.0
        assert transmittance(math.inf, 1.0) == 0.0

    def test_overflowing_loss_blocks_everything_without_a_warning(self):
        # alpha * length past the largest double used to warn "overflow encountered in multiply"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert transmittance(1e308, 10.0) == 0.0
            np.testing.assert_array_equal(transmittance(1e308, np.array([0.0, 10.0])), [1.0, 0.0])
            assert transmittance(1.0, 1.7e308) == 0.0  # the largest alpha whose product cannot
            assert transmittance(1.5, 1.7e308) == 0.0  # overflow, and one just past it

    @pytest.mark.parametrize("length", ["0.5", True, np.array([10.0, 20.0]) > 0, np.array(["10"]), 0.5 + 0j,
                                        None, [10.0, "20"]],
                             ids=["str", "bool", "bool-array", "str-array", "complex", "None", "mixed-list"])
    def test_non_number_length_rejected(self, length):
        # '0.5' gave 0.977 and True 0.955: the float conversion read them as lengths
        with pytest.raises(ValueError, match="length must be a real number"):
            transmittance(0.2, length)

    def test_length_callers_reject_non_numbers(self):
        params = RateParams()
        for call in (yield_table, optimize_mu):
            for length in ("50", True):
                with pytest.raises(ValueError, match="length must be a real number"):
                    call(params, length)

    def test_integer_lengths_give_the_float_bits(self):
        for length in (50, np.int64(50), np.uint8(50)):
            assert transmittance(0.2, length) == transmittance(0.2, 50.0)
        np.testing.assert_array_equal(transmittance(0.2, np.arange(0, 200, 25)),
                                      transmittance(0.2, np.arange(0.0, 200.0, 25.0)))

    def test_lengths_broadcast(self):
        got = transmittance(0.2, np.array([0.0, 50.0, 150.0, math.inf]))
        np.testing.assert_allclose(got, [1.0, 0.1, 1e-3, 0.0], rtol=1e-15, atol=0)
        with pytest.raises(ValueError, match="undefined"):
            transmittance(0.0, np.array([10.0, math.inf]))
        with pytest.raises(ValueError, match="undefined"):
            transmittance(math.inf, np.array([10.0, 0.0]))
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError, match="nonnegative numbers"):
                transmittance(0.2, np.array([10.0, bad]))

    def test_scalar_matches_float_power(self):
        # a session's eta comes from a scalar call; it must be the float power
        # exactly, so session reports stay byte-identical for a (config, seed)
        rng = np.random.default_rng(3)
        for alpha, length in zip(rng.uniform(0, 1, 2000), rng.uniform(0, 300, 2000)):
            alpha, length = float(alpha), float(length)
            assert transmittance(alpha, length) == 10.0 ** (-alpha * length / 10.0)


def _ideal_session(n_pulses, mu, length_km):
    """A perfectly aligned session with ideal detectors."""
    return SessionParams(
        n_pulses=n_pulses, mu=mu,
        length_km=length_km,
        model=RateParams(eta_det=1.0, p_dark=0.0, e_mis=0.0),
    )


class TestSamplePulse:
    """Pulses as the session draws them: Poisson photon numbers, thinned by
    the channel, with independent per-photon misalignment flips.  With ideal
    detectors (eta_det = 1, p_dark = 0) and no misalignment, k surviving
    photons give a lone click with probability 2^(1-k), so the gain per
    matched pulse is 2 (e^(-lam/2) - e^(-lam)) for Poisson(lam) survivors."""

    @staticmethod
    def _ideal_gain(lam):
        return 2.0 * (math.exp(-lam / 2) - math.exp(-lam))

    def test_tiny_mu_rarely_survives(self):
        # about 0.01 photons in the 10^4 matched pulses
        rep = run_session(_ideal_session(20_000, 1e-6, 0.0), seed=1)
        assert rep.matched_pulses - rep.vacuum_pulses <= 1
        assert rep.sifted_length <= 1

    # The gain is flat in lam (slope 0.29 at 0.7, 0.90 at 0.07); these sample
    # sizes hold lam to within 0.33 % and 0.97 % at 3 se.
    def test_mean_survivors_no_loss(self):
        rep = run_session(_ideal_session(10_000_000, 0.7, 0.0), seed=2)
        q = self._ideal_gain(0.7)
        se = np.sqrt(q * (1 - q) / rep.matched_pulses)
        assert rep.sifted_length / rep.matched_pulses == pytest.approx(q, abs=3 * se)

    def test_mean_survivors_ten_db(self):
        rep = run_session(_ideal_session(3_000_000, 0.7, 50.0), seed=3)
        q = self._ideal_gain(0.07)
        se = np.sqrt(q * (1 - q) / rep.matched_pulses)
        assert rep.sifted_length / rep.matched_pulses == pytest.approx(q, abs=3 * se)

    def test_thinning_is_poisson(self):
        # survivors of Poisson(0.7) thinned at t=0.1 must be Poisson(0.07)
        rng = np.random.default_rng(4)
        n = 1_000_000
        sent = rng.poisson(0.7, n)
        survived = rng.binomial(sent, 0.1)
        observed = np.bincount(np.minimum(survived, 3), minlength=4)
        lam = 0.07
        probs = np.array([np.exp(-lam), lam * np.exp(-lam), lam**2 / 2 * np.exp(-lam), 0.0])
        probs[3] = 1.0 - probs[:3].sum()
        expected = n * probs
        chi2 = np.sum((observed - expected) ** 2 / expected)
        assert chi2 < CHI2_999_DOF3

    def test_flips_independent_of_survival(self):
        # the per-photon flip rate is e_mis for one surviving photon, and the
        # multi-photon error rate is the analytic one for independent flips
        e_mis = 0.10
        params = SessionParams(
            n_pulses=1_000_000, mu=2.0,
            length_km=15.0,
            model=RateParams(eta_det=1.0, p_dark=0.0, e_mis=e_mis),
        )
        rep = run_session(params, seed=5)
        photons = rep.single_successes.sum()
        se = np.sqrt(e_mis * (1 - e_mis) / photons)
        assert rep.single_errors.sum() / photons == pytest.approx(e_mis, abs=3 * se)
        yt = yield_table(params.model, 15.0)
        qber = yt.qbers(2.0)[0]
        se = np.sqrt(qber * (1 - qber) / rep.sifted_length)
        assert rep.errors.sum() / rep.sifted_length == pytest.approx(qber, abs=3 * se)

    def test_source_validation(self):
        with pytest.raises(ValueError):
            _ideal_session(10, 0.0, 0.0)
        with pytest.raises(ValueError):
            poisson_pn(0.0, 0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_source_rejects_non_finite_mu(self, mu):
        with pytest.raises(ValueError, match="positive and finite"):
            poisson_pn(mu, 0)
        with pytest.raises(ValueError, match="positive and finite"):
            _ideal_session(10, mu, 0.0)

