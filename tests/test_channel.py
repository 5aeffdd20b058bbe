"""Tests for the source and fiber channel model."""

import math

import numpy as np
import pytest

from ddiqkd.channel import ChannelParams, SourceParams, poisson_pn, sample_pulse, transmittance
from ddiqkd.encoding import Basis, Bb84Setting

H = Bb84Setting(Basis.RECTILINEAR, 0)

# chi-square critical value at alpha = 0.001 for 3 degrees of freedom
CHI2_999_DOF3 = 16.266


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


class TestTransmittance:
    def test_zero_distance(self):
        assert transmittance(ChannelParams(0.2, 0.0, 0.0)) == 1.0

    def test_fifty_km(self):
        assert transmittance(ChannelParams(0.2, 50.0, 0.0)) == pytest.approx(0.1, abs=1e-15)

    def test_hundred_fifty_km(self):
        assert transmittance(ChannelParams(0.2, 150.0, 0.0)) == pytest.approx(1e-3, abs=1e-18)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelParams(-0.1, 10.0, 0.0)
        with pytest.raises(ValueError):
            ChannelParams(0.2, 10.0, 0.7)

    @pytest.mark.parametrize("alpha, length", [(math.nan, 10.0), (0.2, math.nan)])
    def test_nan_loss_rejected(self, alpha, length):
        with pytest.raises(ValueError, match="nonnegative numbers"):
            ChannelParams(alpha, length, 0.0)

    @pytest.mark.parametrize("alpha, length", [(0.0, math.inf), (math.inf, 0.0)])
    def test_undefined_total_loss_rejected(self, alpha, length):
        with pytest.raises(ValueError, match="undefined"):
            ChannelParams(alpha, length, 0.0)

    def test_infinite_length_blocks_everything(self):
        assert transmittance(ChannelParams(0.2, math.inf, 0.0)) == 0.0
        assert transmittance(ChannelParams(math.inf, 1.0, 0.0)) == 0.0


class TestSamplePulse:
    def test_tiny_mu_rarely_survives(self):
        rng = np.random.default_rng(1)
        src = SourceParams(mu=1e-6)
        ch = ChannelParams(0.2, 0.0, 0.0)
        survivors = sum(sample_pulse(src, H, ch, rng)[0] for _ in range(10_000))
        assert survivors <= 1

    def test_mean_survivors_no_loss(self):
        rng = np.random.default_rng(2)
        src = SourceParams(mu=0.7)
        ch = ChannelParams(0.2, 0.0, 0.0)
        n = 1_000_000
        total = sum(sample_pulse(src, H, ch, rng)[0] for _ in range(n))
        se = np.sqrt(0.7 / n)  # Poisson mean estimator
        assert total / n == pytest.approx(0.7, abs=3 * se)

    def test_mean_survivors_ten_db(self):
        rng = np.random.default_rng(3)
        src = SourceParams(mu=0.7)
        ch = ChannelParams(0.2, 50.0, 0.0)
        n = 1_000_000
        total = sum(sample_pulse(src, H, ch, rng)[0] for _ in range(n))
        se = np.sqrt(0.07 / n)
        assert total / n == pytest.approx(0.07, abs=3 * se)

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
        rng = np.random.default_rng(5)
        src = SourceParams(mu=2.0)
        ch = ChannelParams(0.2, 15.0, 0.10)
        flips_by_count: dict[int, list[int]] = {}
        for _ in range(100_000):
            survived, flags = sample_pulse(src, H, ch, rng)
            if survived:
                flips_by_count.setdefault(survived, []).append(int(flags.sum()))
        # per-photon flip rate must be e_mis regardless of the survivor count
        for k in (1, 2, 3):
            flips = np.array(flips_by_count[k])
            photons = k * flips.size
            rate = flips.sum() / photons
            se = np.sqrt(0.10 * 0.90 / photons)
            assert rate == pytest.approx(0.10, abs=3 * se)

    def test_source_validation(self):
        with pytest.raises(ValueError):
            SourceParams(mu=0.0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf])
    def test_source_rejects_non_finite_mu(self, mu):
        with pytest.raises(ValueError, match="positive and finite"):
            SourceParams(mu=mu)
