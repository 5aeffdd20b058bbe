"""Analytic yields, secret key rate, and the distance/intensity sweeps.

The device model is pinned as follows.  With eta = eta_det * transmittance
and flip probability e = e_mis, a photon that survives to the receiver is
routed, for a basis-matched setting pair, onto one detector of the
"agreement" pair if unflipped or of the "error" pair if flipped (half/half
within the pair).  Photons in a multi-photon pulse act independently.  Each
detector dark-fires independently with probability d per gate, and only
events where exactly one detector clicks are kept.

Averaged over the eight basis-matched setting pairs, every detector plays
the agreement role half the time, so all four detectors share the same
per-photon-number yield and error:

    Y_n   = (1-d)^3 [ (a^n + b^n)/2 - (1-eta)^n (1-d) ]
    e_nY_n= (1-d)^3 [ (b^n - (1-eta)^n)/2 + (1-eta)^n d/2 ]

with a = 1 - eta(1+e)/2 (nothing lands on the other three detectors when
this one is in the agreement pair) and b = 1 - eta(2-e)/2 (error-pair
role).  Gains and overall error rates are Poisson mixtures over n, which
sum exactly because sum_n p_n(mu) x^n = exp(-mu(1-x)).  With x = mu eta,
A = exp(-x(1+e)/2), B = exp(-x(2-e)/2) and V = exp(-x):

    Q   = (1-d)^3 [ d V - (A expm1(-x(1-e)/2) + B expm1(-x e/2))/2 ]
    E Q = (1-d)^3 [ d V - B expm1(-x e/2) ] / 2

Every term is nonnegative, so the gains keep full relative accuracy at any
loss, and they hold for every mu > 0.  They are the per-detector averages,
over the eight matched setting pairs, of the lone-click probabilities that
``bsm.click_table(e)`` implies (the tests check this to 1e-12).

The per-pulse key contribution of detector i is

    R_i = q { p0 Y_i0 + p1 Y_i1 [1 - h(e_i1)] - Q_i f h(E_i) }

clamped at zero and summed over the four detectors.  A standard
two-detector active-receiver decoy system with the same eta, e and d per
detector serves as the reference curve; its double clicks are assigned a
random bit instead of being discarded.

Rates, intensity optimization and yield tables take arrays: a channel
length (or eta) array and a mu array broadcast against each other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .bsm import DetectorParams

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

MU_SEARCH_RANGE = (0.01, 2.0)
_TINY = 2.2250738585072014e-308  # smallest normal double: floors log2 so 0 log 0 = 0

__all__ = [
    "RateParams",
    "YieldTable",
    "KeyRatePoint",
    "KeyRateCurve",
    "SecurityRegime",
    "binary_entropy",
    "yield_table",
    "key_rate",
    "optimize_mu",
    "bb84_reference_rate",
    "optimize_mu_bb84",
    "keyrate_curve",
    "security_regime",
]


@dataclass(frozen=True)
class RateParams:
    """Everything the rate formula needs except distance and intensity."""

    detector: DetectorParams = DetectorParams(eta_det=0.145, p_dark=3.01e-6)
    alpha_db_per_km: float = 0.2
    e_mis: float = 0.015
    q: float = 1.0
    f_ec: float = 1.16

    def __post_init__(self):
        if not self.alpha_db_per_km >= 0.0:  # NaN fails too
            raise ValueError("loss coefficient must be a nonnegative number")
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must be in (0, 1]")
        _check_f_ec(self.f_ec)
        if not 0.0 <= self.e_mis <= 0.5:
            raise ValueError("e_mis must be in [0, 0.5]")


def _check_f_ec(f_ec: float):
    """Reject an error-correction efficiency f_ec that is not finite and >= 1."""
    if not 1.0 <= f_ec < np.inf:
        raise ValueError("f_ec must be finite and >= 1")


def binary_entropy(x: float) -> float:
    """Binary Shannon entropy h(x), with h(0) = h(1) = 0 by continuity."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("argument must be in [0, 1]")
    return float(_entropy(np.float64(x)))


def _entropy(x):
    """Elementwise binary_entropy, for values in [0, 1] by construction."""
    return -x * np.log2(np.maximum(x, _TINY)) - (1.0 - x) * np.log2(np.maximum(1.0 - x, _TINY))


def _ratio(num, den, empty: float):
    """num / den, and ``empty`` where den is 0."""
    positive = den > 0.0
    return np.where(positive, num / np.where(positive, den, 1.0), empty)


def _eta(params: RateParams, length_km):
    """eta_det times the channel transmittance 10^(-alpha L / 10)."""
    length_km = np.asarray(length_km, dtype=float)
    if not (length_km >= 0.0).all():  # NaN fails too
        raise ValueError("length must be a nonnegative number")
    alpha = params.alpha_db_per_km  # in [0, inf] by RateParams
    if alpha == 0.0 and np.isinf(length_km).any() or alpha == math.inf and not length_km.all():
        raise ValueError("total loss alpha * length is undefined (0 * inf)")
    return params.detector.eta_det * 10.0 ** (-alpha * length_km / 10.0)


def _proposal_gains(eta, e, d, mu):
    """(Q, E Q) of one detector, in closed form (see the module docstring)."""
    x = mu * eta
    dv = d * np.exp(-x)
    b = np.exp(-x * (2.0 - e) / 2.0) * np.expm1(-x * e / 2.0)
    a = np.exp(-x * (1.0 + e) / 2.0) * np.expm1(-x * (1.0 - e) / 2.0)
    cube = (1.0 - d) ** 3
    return cube * (dv - (a + b) / 2.0), cube * (dv - b) / 2.0


def _bb84_gains(eta, e, d, mu):
    """(Q, E Q) of the two-detector receiver, in closed form.

    A click is any detector firing, Y_n = 1 - (1-eta)^n (1-d)^2, and a
    double click is a random bit: e_nY_n = [Y_n + (1-d)((1-eta(1-e))^n -
    (1-eta e)^n)] / 2.  Mixed over n, with V = exp(-x), C = exp(-x e) and
    W = exp(-x(1-e)): Q = d(2-d) V - expm1(-x) and
    2 E Q = -expm1(-x e)(1 + (1-d) W) + d C + d(1-d) V, all terms nonnegative.
    """
    x = mu * eta
    v = np.exp(-x)
    gain = d * (2.0 - d) * v - np.expm1(-x)
    flip = -np.expm1(-x * e)
    err = flip * (1.0 + (1.0 - d) * np.exp(-x * (1.0 - e))) + d * np.exp(-x * e) + d * (1.0 - d) * v
    return gain, err / 2.0


def _secret_rate(y0, y1, e1, gain, err_gain, mu, params: RateParams):
    """q { p0 Y0 + p1 Y1 [1 - h(e1)] - Q f h(E) }, not yet clamped at zero."""
    if not (np.asarray(mu) > 0.0).all():
        raise ValueError("mu must be positive")
    p0 = np.exp(-mu)
    privacy = p0 * y0 + mu * p0 * y1 * (1.0 - _entropy(e1))
    correction = gain * params.f_ec * _entropy(_ratio(err_gain, gain, 0.0))
    return params.q * (privacy - correction)


def _per_detector(x) -> np.ndarray:
    """The value of one detector repeated for all four, along a leading axis."""
    return np.full((4, *np.shape(x)), x)


@dataclass(frozen=True)
class YieldTable:
    """Per-detector yields/errors plus the gain and QBER as functions of mu.

    All four detectors are statistically identical in the pinned model, so
    the arrays hold four equal entries along their leading axis; they are
    kept per detector because the Monte Carlo tallies are per detector.
    ``eta`` may be an array, one entry per channel length.
    """

    eta: float | np.ndarray  # eta_det * channel transmittance
    e_mis: float
    p_dark: float
    y0: np.ndarray = field(init=False)
    y1: np.ndarray = field(init=False)
    e1: np.ndarray = field(init=False)

    def __post_init__(self):
        d, eta = self.p_dark, self.eta
        cube = (1.0 - d) ** 3
        y1 = (eta / 4.0 + (1.0 - eta) * d) * cube
        e1y1 = (eta * self.e_mis / 4.0 + (1.0 - eta) * d / 2.0) * cube
        object.__setattr__(self, "y0", _per_detector(d * cube))
        object.__setattr__(self, "y1", _per_detector(y1))
        object.__setattr__(self, "e1", _per_detector(_ratio(e1y1, y1, 0.5)))

    def gains(self, mu) -> np.ndarray:
        """Q_i(mu), per detector."""
        return _per_detector(_proposal_gains(self.eta, self.e_mis, self.p_dark, mu)[0])

    def qbers(self, mu) -> np.ndarray:
        """E_i(mu) = sum_n p_n Y_n e_n / Q_i, per detector."""
        gain, err_gain = _proposal_gains(self.eta, self.e_mis, self.p_dark, mu)
        return _per_detector(_ratio(err_gain, gain, 0.0))


def yield_table(params: RateParams, length_km) -> YieldTable:
    """Analytic yield table at a channel length (or an array of lengths)."""
    return YieldTable(eta=_eta(params, length_km), e_mis=params.e_mis,
                      p_dark=params.detector.p_dark)


def key_rate(yields: YieldTable, params: RateParams, mu):
    """Lower bound on secret bits per pulse, summed over detectors.

    Gains and QBERs beyond the single-photon level come from the same
    yield table; vacuum errors are already folded into the error yields.
    mu may be an array broadcasting against ``yields.eta``.
    """
    gain, err_gain = _proposal_gains(yields.eta, yields.e_mis, yields.p_dark, mu)
    rate = _secret_rate(yields.y0[0], yields.y1[0], yields.e1[0], gain, err_gain, mu, params)
    return 4.0 * np.maximum(rate, 0.0)  # four identical detectors


def _optimize(rate_of_mu, scalar: bool, tol: float = 1e-4):
    """Coarse bracket then golden-section refinement over the mu range.

    ``rate_of_mu`` takes one intensity per channel length along the last
    axis.  Each length takes exactly the steps of a scalar search on its own
    bracket, and keeps its state once the bracket is narrower than ``tol``.
    Returns (mu_opt, rate) arrays, or floats if ``scalar``.
    """
    grid = np.linspace(*MU_SEARCH_RANGE, 41)
    vals = rate_of_mu(grid[:, None])
    best = np.argmax(vals, axis=0)
    lo = grid[np.maximum(best - 1, 0)]
    hi = grid[np.minimum(best + 1, len(grid) - 1)]
    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    state = np.array([lo, hi, c, d, rate_of_mu(c), rate_of_mu(d)])
    while (active := state[1] - state[0] > tol).any():
        lo, hi, c, d, fc, fd = state
        left = fc > fd  # keep [lo, d]; else keep [c, hi]
        lo, hi = np.where(left, lo, c), np.where(left, d, hi)
        probe = np.where(left, hi - GOLDEN * (hi - lo), lo + GOLDEN * (hi - lo))
        fp = rate_of_mu(probe)
        step = [lo, hi, np.where(left, probe, d), np.where(left, c, probe),
                np.where(left, fp, fd), np.where(left, fc, fp)]
        state = np.where(active, step, state)
    mu = 0.5 * (state[0] + state[1])
    none = vals.max(axis=0) <= 0.0
    mu, rate = np.where(none, grid[0], mu), np.where(none, 0.0, rate_of_mu(mu))
    return (float(mu[0]), float(rate[0])) if scalar else (mu, rate)


def optimize_mu(params: RateParams, length_km):
    """(mu_opt, rate) maximizing the key rate at a distance or array of them."""
    yields = yield_table(params, np.atleast_1d(length_km))
    return _optimize(lambda mu: key_rate(yields, params, mu), np.ndim(length_km) == 0)


def bb84_reference_rate(params: RateParams, length_km, mu):
    """Asymptotic decoy rate of a standard two-detector active receiver.

    length_km and mu may be arrays that broadcast against each other.
    """
    eta = _eta(params, length_km)
    e, d = params.e_mis, params.detector.p_dark
    gain, err_gain = _bb84_gains(eta, e, d, mu)
    dark = d * (2.0 - d)  # Y_0: either detector dark-fires
    y1 = eta + (1.0 - eta) * dark
    e1y1 = (eta * (2.0 * e + d * (1.0 - 2.0 * e)) + (1.0 - eta) * dark) / 2.0
    rate = _secret_rate(dark, y1, _ratio(e1y1, y1, 0.5), gain, err_gain, mu, params)
    return np.maximum(rate, 0.0)


def optimize_mu_bb84(params: RateParams, length_km):
    """(mu_opt, rate) for the two-detector reference at a distance or array of them."""
    lengths = np.atleast_1d(length_km)
    return _optimize(lambda mu: bb84_reference_rate(params, lengths, mu),
                     np.ndim(length_km) == 0)


@dataclass(frozen=True)
class KeyRatePoint:
    length_km: float
    mu_opt: float
    rate_proposal: float
    rate_bb84: float


@dataclass(frozen=True)
class KeyRateCurve:
    points: tuple[KeyRatePoint, ...]
    cutoff_proposal_km: float
    cutoff_bb84_km: float

    def summary(self) -> dict:
        return {
            "cutoff_proposal_km": self.cutoff_proposal_km,
            "cutoff_bb84_km": self.cutoff_bb84_km,
        }


def _midpoints(lo: float, hi: float, tol: float, depth: int) -> list[float]:
    """Every midpoint a bisection of [lo, hi] can visit in ``depth`` steps."""
    if depth == 0 or hi - lo <= tol:
        return []
    mid = 0.5 * (lo + hi)
    return [mid] + _midpoints(lo, mid, tol, depth - 1) + _midpoints(mid, hi, tol, depth - 1)


def _cutoff(rate_at, lengths: list[float], rates, extend_step: float = 25.0,
            cap: float = 1000.0, tol: float = 1.0) -> float:
    """Largest length with positive optimized rate, bisected to +-0.5 km.

    ``rates`` are the optimized rates at ``lengths``; ``rate_at`` optimizes
    an array of lengths at once.  The lengths the sequential search may
    visit are optimized ahead in batches (all extension steps, then the
    bisection midpoints five levels deep), and the search runs on those.
    """
    positive = [length for length, rate in zip(lengths, rates) if rate > 0.0]
    if not positive:
        return 0.0
    lo = positive[-1]
    hi = next((length for length in lengths if length > lo), None)
    if hi is None:  # extend by whole steps; the first step at or past cap ends the search
        steps = [lo, lo + extend_step]
        while steps[-1] < cap:
            steps.append(steps[-1] + extend_step)
        alive = rate_at(np.array(steps[1:-1])) > 0.0
        if alive.all():
            return cap
        k = int(np.argmin(alive)) + 1
        lo, hi = steps[k - 1], steps[k]
    known = {}
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid not in known:
            mids = _midpoints(lo, hi, tol, 5)
            known.update(zip(mids, rate_at(np.array(mids))))
        if known[mid] > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def keyrate_curve(params: RateParams, lengths: list[float]) -> KeyRateCurve:
    """Optimized rates for both protocols over a sorted list of distances."""
    if sorted(lengths) != list(lengths):
        raise ValueError("lengths must be sorted ascending")
    km = np.array(lengths, dtype=float)
    mu_opt, rate = optimize_mu(params, km)
    _, rate_ref = optimize_mu_bb84(params, km)
    points = tuple(KeyRatePoint(length, float(m), float(r), float(b))
                   for length, m, r, b in zip(lengths, mu_opt, rate, rate_ref))
    cut_prop = _cutoff(lambda L: optimize_mu(params, L)[1], lengths, rate)
    cut_ref = _cutoff(lambda L: optimize_mu_bb84(params, L)[1], lengths, rate_ref)
    return KeyRateCurve(points, cut_prop, cut_ref)


class SecurityRegime(Enum):
    PROVEN_LOW_LOSS = "proven_low_loss"
    CONJECTURED_HIGH_LOSS = "conjectured_high_loss"


LOW_LOSS_THRESHOLD = 0.659


def security_regime(single_photon_transmittance: float) -> SecurityRegime:
    """Advisory: general-attack security is established at low loss only.

    The proven regime requires the overall transmittance of single-photon
    pulses to be at least 65.9%; below that, security is conjectured from
    the analysis of a restricted attack class.
    """
    if not 0.0 <= single_photon_transmittance <= 1.0:
        raise ValueError("transmittance must be in [0, 1]")
    if single_photon_transmittance >= LOW_LOSS_THRESHOLD:
        return SecurityRegime.PROVEN_LOW_LOSS
    return SecurityRegime.CONJECTURED_HIGH_LOSS
