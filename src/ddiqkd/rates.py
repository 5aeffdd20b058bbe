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

    R_i = p0 Y_i0 + p1 Y_i1 [1 - h(e_i1)] - Q_i f h(E_i)

clamped at zero and summed over the four detectors.  A standard
two-detector active-receiver decoy system with the same eta, e and d per
detector serves as the reference curve; its double clicks are assigned a
random bit instead of being discarded.

Rates, intensity optimization and yield tables take arrays: a channel
length (or eta) array and a mu array broadcast against each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .channel import transmittance

MU_SEARCH_RANGE = (0.01, 2.0)
_MU_GRID = np.linspace(*MU_SEARCH_RANGE, 41)  # every search's coarse bracket
_ZOOM = np.linspace(-1.0, 1.0, len(_MU_GRID))[:, None]  # a zoom grid's offsets; the middle one is 0.0
_MU_TOL = 1e-4  # a search zooms until its grid spacing is below this: 3 zooms
_CUTOFF_STEP_KM, _CUTOFF_CAP_KM, _CUTOFF_TOL_KM = 25.0, 1000.0, 1.0  # _cutoff's extension and bisection
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


def _require_real(owner, *names: str):
    """Reject fields of ``owner`` that are not real numbers, bool included."""
    for name in names:
        value = getattr(owner, name)
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name} must be a real number")


@dataclass(frozen=True)
class RateParams:
    """The device-and-fiber model: everything the key rate and a session
    need except distance, intensity and pulse count."""

    eta_det: float = 0.145   # detection efficiency per photon
    p_dark: float = 3.01e-6  # dark count probability per detector per gate
    alpha_db_per_km: float = 0.2
    e_mis: float = 0.015
    f_ec: float = 1.16

    def __post_init__(self):
        _require_real(self, "eta_det", "p_dark", "alpha_db_per_km", "e_mis", "f_ec")
        if not 0.0 <= self.eta_det <= 1.0:
            raise ValueError("eta_det must be in [0, 1]")
        if not 0.0 <= self.p_dark < 1.0:
            raise ValueError("p_dark must be in [0, 1)")
        if not self.alpha_db_per_km >= 0.0:  # NaN fails too
            raise ValueError("loss coefficient alpha_db_per_km must be a nonnegative number")
        if not 1.0 <= self.f_ec < np.inf:
            raise ValueError("f_ec must be finite and >= 1")
        if not 0.0 <= self.e_mis <= 0.5:
            raise ValueError("e_mis must be in [0, 0.5]")


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
    """eta_det times the channel transmittance."""
    return params.eta_det * transmittance(params.alpha_db_per_km, length_km)


def _proposal_gains(eta, e, d, mu):
    """(Q, E Q) of one detector, in closed form (see the module docstring)."""
    nx = -(mu * eta)  # -x; negation and halving are exact: nx * (e / 2) == -x * e / 2
    dv = d * np.exp(nx)
    b = np.exp(nx * ((2.0 - e) / 2.0)) * np.expm1(nx * (e / 2.0))
    a = np.exp(nx * ((1.0 + e) / 2.0)) * np.expm1(nx * ((1.0 - e) / 2.0))
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
    nx = -(mu * eta)  # -x
    v, nxe = np.exp(nx), nx * e
    gain = d * (2.0 - d) * v - np.expm1(nx)
    flip = -np.expm1(nxe)
    err = flip * (1.0 + (1.0 - d) * np.exp(nx * (1.0 - e))) + d * np.exp(nxe) + d * (1.0 - d) * v
    return gain, err / 2.0


def _secret_rate(y0, y1, k1, gain, err_gain, mu, params: RateParams):
    """p0 Y0 + p1 Y1 k1 - Q f h(E), with k1 = 1 - h(e1), not yet clamped at zero."""
    if not (np.asarray(mu) > 0.0).all():
        raise ValueError("mu must be positive")
    p0 = np.exp(-mu)
    privacy = p0 * y0 + mu * p0 * y1 * k1
    correction = gain * params.f_ec * _entropy(_ratio(err_gain, gain, 0.0))
    return privacy - correction


def _per_detector(x) -> np.ndarray:
    """The value of one detector repeated for all four, along a leading axis."""
    return np.full((4, *np.shape(x)), x)


@dataclass(frozen=True)
class YieldTable:
    """Per-detector yields/errors plus the gain and QBER as functions of mu.

    All four detectors are statistically identical in the pinned model, so
    the arrays hold four equal entries along their leading axis; they are
    kept per detector because the Monte Carlo tallies are per detector.
    ``eta`` may be an array, one entry per channel length.  ``k1`` is the
    single-photon key fraction 1 - h(e1), which does not depend on mu.
    """

    eta: float | np.ndarray  # eta_det * channel transmittance
    e_mis: float
    p_dark: float
    y0: np.ndarray = field(init=False)
    y1: np.ndarray = field(init=False)
    e1: np.ndarray = field(init=False)
    k1: np.ndarray = field(init=False)

    def __post_init__(self):
        d, eta = self.p_dark, self.eta
        cube = (1.0 - d) ** 3
        y1 = (eta / 4.0 + (1.0 - eta) * d) * cube
        e1y1 = (eta * self.e_mis / 4.0 + (1.0 - eta) * d / 2.0) * cube
        e1 = _ratio(e1y1, y1, 0.5)
        terms = {"y0": d * cube, "y1": y1, "e1": e1, "k1": 1.0 - _entropy(e1)}
        # frozen: set the fields in the instance dict, as object.__setattr__ would
        vars(self).update((name, _per_detector(value)) for name, value in terms.items())

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
                      p_dark=params.p_dark)


def key_rate(yields: YieldTable, params: RateParams, mu):
    """Lower bound on secret bits per pulse, summed over detectors.

    Gains and QBERs beyond the single-photon level come from the same
    yield table; vacuum errors are already folded into the error yields.
    mu may be an array broadcasting against ``yields.eta``.
    """
    gain, err_gain = _proposal_gains(yields.eta, yields.e_mis, yields.p_dark, mu)
    rate = _secret_rate(yields.y0[0], yields.y1[0], yields.k1[0], gain, err_gain, mu, params)
    return 4.0 * np.maximum(rate, 0.0)  # four identical detectors


def _optimize(rate_of_mu, scalar: bool):
    """The best point of _MU_GRID, refined on nested grids around it.

    ``rate_of_mu`` takes one intensity per channel length along the last
    axis.  Each zoom lays len(_MU_GRID) points across the two intervals
    beside each length's best point, clipped to MU_SEARCH_RANGE, until the
    spacing is below _MU_TOL: five rate evaluations in all.  A zoom grid
    holds its centre exactly, and where the final rate is still lower
    than the best rate on _MU_GRID, that grid point is the optimum.  So a
    search never ends below its grid, and the optimized rate is positive
    exactly where the grid maximum is.
    Returns (mu_opt, rate) arrays, or floats if ``scalar``.
    """
    vals = rate_of_mu(_MU_GRID[:, None])
    best = np.argmax(vals, axis=0)
    mu, spacing = _MU_GRID[best], _MU_GRID[1] - _MU_GRID[0]
    while spacing >= _MU_TOL:
        grid = np.clip(mu + spacing * _ZOOM, *MU_SEARCH_RANGE)
        mu = np.take_along_axis(grid, np.argmax(rate_of_mu(grid), axis=0)[None], axis=0)[0]
        spacing *= _ZOOM[1, 0] - _ZOOM[0, 0]
    rate, grid_best = rate_of_mu(mu), vals.max(axis=0)
    if (below := rate < grid_best).any():
        mu = np.where(below, _MU_GRID[best], mu)
        rate = rate_of_mu(mu)
    none = grid_best <= 0.0
    mu, rate = np.where(none, _MU_GRID[0], mu), np.where(none, 0.0, rate)
    return (float(mu[0]), float(rate[0])) if scalar else (mu, rate)


def _grid_max(rate_of_mu):
    """The best rate on _MU_GRID at each length: its sign is the optimized rate's."""
    return rate_of_mu(_MU_GRID[:, None]).max(axis=0)


def _proposal_rate(params: RateParams, length_km):
    """The proposal's key rate as a function of mu, one mu per length."""
    yields = yield_table(params, length_km)
    return lambda mu: key_rate(yields, params, mu)


def optimize_mu(params: RateParams, length_km):
    """(mu_opt, rate) maximizing the key rate at a distance or array of them."""
    return _optimize(_proposal_rate(params, np.atleast_1d(length_km)), np.ndim(length_km) == 0)


def bb84_reference_rate(params: RateParams, length_km, mu):
    """Asymptotic decoy rate of a standard two-detector active receiver.

    length_km and mu may be arrays that broadcast against each other.
    """
    return _reference_rate(params, length_km)(mu)


def _bb84_rate(single, params: RateParams, mu):
    """bb84_reference_rate from the receiver's (eta, Y0, Y1, 1 - h(e1))."""
    eta, y0, y1, k1 = single
    gain, err_gain = _bb84_gains(eta, params.e_mis, params.p_dark, mu)
    return np.maximum(_secret_rate(y0, y1, k1, gain, err_gain, mu, params), 0.0)


def _reference_rate(params: RateParams, length_km):
    """The two-detector reference's key rate as a function of mu, one mu per length;
    its eta, Y0, Y1 and 1 - h(e1) do not depend on mu and are computed once."""
    e, d, eta = params.e_mis, params.p_dark, _eta(params, length_km)
    dark = d * (2.0 - d)  # Y_0: either detector dark-fires
    y1 = eta + (1.0 - eta) * dark
    e1y1 = (eta * (2.0 * e + d * (1.0 - 2.0 * e)) + (1.0 - eta) * dark) / 2.0
    single = eta, dark, y1, 1.0 - _entropy(_ratio(e1y1, y1, 0.5))
    return lambda mu: _bb84_rate(single, params, mu)


def optimize_mu_bb84(params: RateParams, length_km):
    """(mu_opt, rate) for the two-detector reference at a distance or array of them."""
    return _optimize(_reference_rate(params, np.atleast_1d(length_km)), np.ndim(length_km) == 0)


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


def _cutoff(rate_at, lengths: list[float], rates) -> float:
    """Largest length with positive optimized rate, bisected to +-0.5 km.

    ``rates`` are the optimized rates at ``lengths``.  ``rate_at`` gives,
    for an array of lengths at once, any rate with the optimized rate's
    sign: ``keyrate_curve`` passes the best rate on _MU_GRID, which is
    positive exactly where the optimized rate is, because every zoom grid
    of ``_optimize`` holds the best point before it and a search never
    ends below its grid.  The lengths the sequential search may visit are
    evaluated ahead in batches (all extension steps, then the bisection
    midpoints five levels deep), and the search runs on those.
    """
    positive = [length for length, rate in zip(lengths, rates) if rate > 0.0]
    if not positive:
        return 0.0
    lo = positive[-1]
    hi = next((length for length in lengths if length > lo), None)
    if hi is None:  # extend by whole steps; the first step at or past cap ends the search
        steps = [lo, lo + _CUTOFF_STEP_KM]
        while steps[-1] < _CUTOFF_CAP_KM:
            steps.append(steps[-1] + _CUTOFF_STEP_KM)
        alive = rate_at(np.array(steps[1:-1])) > 0.0
        if alive.all():
            return _CUTOFF_CAP_KM
        k = int(np.argmin(alive)) + 1
        lo, hi = steps[k - 1], steps[k]
    known = {}
    while hi - lo > _CUTOFF_TOL_KM:
        mid = 0.5 * (lo + hi)
        if mid not in known:
            mids = _midpoints(lo, hi, _CUTOFF_TOL_KM, 5)
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
    # from a list: tuple() of a generator resizes, so CPython's tuple free list would grow per call
    points = tuple([KeyRatePoint(length, float(m), float(r), float(b))
                    for length, m, r, b in zip(lengths, mu_opt, rate, rate_ref)])
    cut_prop = _cutoff(lambda L: _grid_max(_proposal_rate(params, L)), lengths, rate)
    cut_ref = _cutoff(lambda L: _grid_max(_reference_rate(params, L)), lengths, rate_ref)
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
