"""Analytic yields, secret key rate, and the distance/intensity sweeps.

The device model is pinned as follows.  With eta = eta_det * transmittance,
x = mu eta and e = e_mis, a photon of a basis-matched pulse clicks a
detector with probability eta T, T = (1-e)/2 or e/2 for its agreement or
error role in ``bsm.detector_routes(e)``; every detector holds each role
half the time.  Photons act independently, each detector dark-fires with
probability d per gate, and only lone clicks are kept.  Over a pulse's
Poisson(mu) photons, a detector of role T gives a lone click with probability

    (1-d)^3 [ d e^{-x} - e^{-x(1-T)} expm1(-x T) ]

Q is the mean over the two roles, and E Q is half the error role's value.
Every term is nonnegative, so the gains keep full relative accuracy at any
loss and hold for every mu > 0 (the tests check them to 1e-12 against the
lone clicks that ``bsm.click_table(e)`` implies).

The per-pulse key contribution of detector i is

    R_i = p0 Y_i0 + p1 Y_i1 [1 - h(e_i1)] - Q_i f h(E_i)

clamped at zero and summed over the four detectors.  A standard
two-detector active-receiver decoy system with the same eta, e and d per
detector serves as the reference curve; its double clicks are assigned a
random bit instead of being discarded.

Rates, intensity optimization and yield tables take arrays: a channel
length (or eta) array and a mu array broadcast against each other; mu is
checked once, at key_rate, bb84_reference_rate and SessionParams.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from .bsm import detector_routes
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
    "KeyRateCurve",
    "SecurityRegime",
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


def _entropy(x):
    """Binary Shannon entropy h(x), elementwise, for x in [0, 1]; h(0) = h(1) = 0."""
    return -x * np.log2(np.maximum(x, _TINY)) - (1.0 - x) * np.log2(np.maximum(1.0 - x, _TINY))


def _ratio(num, den, empty: float):
    """num / den, and ``empty`` where den is 0."""
    positive = den > 0.0
    return np.where(positive, num / np.where(positive, den, 1.0), empty)


def _eta(params: RateParams, length_km):
    """eta_det times the channel transmittance."""
    return params.eta_det * transmittance(params.alpha_db_per_km, length_km)


def _proposal_gains(eta, e, d, mu):
    """(Q, E Q) of one detector on the roles of detector_routes(e) (module docstring)."""
    (right, right_rest), (wrong, wrong_rest) = detector_routes(e)
    nx = -(mu * eta)  # -x; negation and halving are exact: nx * (e / 2) == -x * e / 2
    dv = d * np.exp(nx)
    b = np.exp(nx * wrong_rest) * np.expm1(nx * wrong)
    a = np.exp(nx * right_rest) * np.expm1(nx * right)
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
    v, nxe, keep = np.exp(nx), nx * e, 1.0 - e  # this receiver keeps the bit with 1 - e
    gain = d * (2.0 - d) * v - np.expm1(nx)
    flip = -np.expm1(nxe)
    err = flip * (1.0 + (1.0 - d) * np.exp(nx * keep)) + d * np.exp(nxe) + d * (1.0 - d) * v
    return gain, err / 2.0


def _require_mu(mu):
    if not ((np.asarray(mu) > 0.0).all() and (np.asarray(mu) < np.inf).all()):  # NaN fails too
        raise ValueError("mu must be positive and finite")


def _secret_rate(y0, y1, k1, gain, err_gain, mu, params: RateParams):
    """p0 Y0 + p1 Y1 k1 - Q f h(E), with k1 = 1 - h(e1), not yet clamped at zero."""
    p0 = np.exp(-mu)
    privacy = p0 * y0 + mu * p0 * y1 * k1
    correction = gain * params.f_ec * _entropy(_ratio(err_gain, gain, 0.0))
    return privacy - correction


def _yield_terms(eta, e_mis, p_dark):
    """Y0, Y1, e1 and k1 = 1 - h(e1) of one detector, shaped like eta."""
    cube = (1.0 - p_dark) ** 3
    y1 = (eta / 4.0 + (1.0 - eta) * p_dark) * cube
    e1 = _ratio((eta * e_mis / 4.0 + (1.0 - eta) * p_dark / 2.0) * cube, y1, 0.5)
    return p_dark * cube, y1, e1, 1.0 - _entropy(e1)


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
        if not 0.0 <= self.e_mis <= 0.5:  # NaN fails too
            raise ValueError("e_mis must be in [0, 0.5]")
        terms = _yield_terms(self.eta, self.e_mis, self.p_dark)
        # frozen: set the fields in the instance dict, as object.__setattr__ would
        vars(self).update(zip(("y0", "y1", "e1", "k1"), map(_per_detector, terms)))

    def gains(self, mu) -> np.ndarray:
        """Q_i(mu), per detector."""
        return _per_detector(_proposal_gains(self.eta, self.e_mis, self.p_dark, mu)[0])

    def qbers(self, mu) -> np.ndarray:
        """E_i(mu) = sum_n p_n Y_n e_n / Q_i, per detector."""
        gain, err_gain = _proposal_gains(self.eta, self.e_mis, self.p_dark, mu)
        return _per_detector(_ratio(err_gain, gain, 0.0))


def yield_table(params: RateParams, length_km) -> YieldTable:
    """Analytic yield table at a channel length (or an array of lengths)."""
    return YieldTable(_eta(params, length_km), params.e_mis, params.p_dark)


def _rate_of_mu(terms, params: RateParams):
    """The key rate as a function of mu: a protocol's gains, then
    _secret_rate, the clamp at zero and the detector count.  Every rate,
    search and cutoff batch evaluates this one composition.

    ``terms`` is (gains of mu, Y0, Y1, 1 - h(e1), detectors), one column
    per channel length; only the gains depend on mu.
    """
    gains, y0, y1, k1, detectors = terms

    def rate(mu):
        gain, err_gain = gains(mu)
        return detectors * np.maximum(_secret_rate(y0, y1, k1, gain, err_gain, mu, params), 0.0)

    return rate


def _proposal_terms(yields: YieldTable):
    """The proposal's terms for _rate_of_mu: four identical detectors."""
    gains = partial(_proposal_gains, yields.eta, yields.e_mis, yields.p_dark)
    return gains, yields.y0[0], yields.y1[0], yields.k1[0], 4.0


def _reference_terms(params: RateParams, length_km):
    """The two-detector reference's terms for _rate_of_mu.  Its gains
    already count both detectors, so its detector count is 1."""
    e, d, eta = params.e_mis, params.p_dark, _eta(params, length_km)
    dark = d * (2.0 - d)  # Y_0: either detector dark-fires
    y1 = eta + (1.0 - eta) * dark
    e1y1 = (eta * (2.0 * e + d * (1.0 - 2.0 * e)) + (1.0 - eta) * dark) / 2.0
    return partial(_bb84_gains, eta, e, d), dark, y1, 1.0 - _entropy(_ratio(e1y1, y1, 0.5)), 1.0


def _side_by_side(left, right):
    """Terms for _rate_of_mu whose columns are ``left``'s, then ``right``'s
    (one 1-D array of lengths each).

    mu has one column per length of either protocol, or one column that
    all share (_MU_GRID), and each protocol's gains read their own block of
    it.  A block is a strided view, but the gains take -(mu * eta), a fresh
    array, before any exp or expm1, so every column rounds as it does in a
    search of its own.
    """
    (left_gains, *left_columns), (right_gains, *right_columns) = left, right
    n = len(left_columns[1])  # Y1 has one entry per length
    width = n + len(right_columns[1])

    def gains(mu):
        left_mu, right_mu = (mu, mu) if mu.shape[1] == 1 else (mu[:, :n], mu[:, n:])
        pairs = zip(left_gains(left_mu), right_gains(right_mu))
        return [np.concatenate(pair, axis=1) for pair in pairs]

    return gains, *(np.concatenate((np.full(n, a), np.full(width - n, b)))
                    for a, b in zip(left_columns, right_columns))


def key_rate(yields: YieldTable, params: RateParams, mu):
    """Lower bound on secret bits per pulse, summed over detectors.

    Gains and QBERs beyond the single-photon level come from the same
    yield table; vacuum errors are already folded into the error yields.
    mu may be an array broadcasting against ``yields.eta``.
    """
    _require_mu(mu)
    return _rate_of_mu(_proposal_terms(yields), params)(mu)


def _optimize(rate_of_mu, scalar: bool):
    """The best point of _MU_GRID, refined on nested grids around it.

    ``rate_of_mu`` takes one intensity per column along the last axis: a
    channel length, or in keyrate_curve's joint search one length of one
    protocol.  Each zoom lays len(_MU_GRID) points across the two
    intervals beside each column's best point, clipped to MU_SEARCH_RANGE,
    until the spacing is below _MU_TOL: four rate evaluations in all, the
    grid and three zooms, and the optimum's rate is read off the last zoom
    grid.  A zoom grid holds its centre exactly, and where the final rate
    is still lower than the best rate on _MU_GRID, that grid point and its
    rate are the optimum.  So a search never ends below its grid, and the
    optimized rate is positive exactly where the grid maximum is.
    Returns (mu_opt, rate) arrays, or floats if ``scalar``.
    """
    vals = rate_of_mu(_MU_GRID[:, None])
    columns = np.arange(vals.shape[1])
    best = np.argmax(vals, axis=0)
    grid_best = vals[best, columns]
    mu, rate, spacing = _MU_GRID[best], grid_best, _MU_GRID[1] - _MU_GRID[0]
    while spacing >= _MU_TOL:
        grid = np.clip(mu + spacing * _ZOOM, *MU_SEARCH_RANGE)
        vals = rate_of_mu(grid)
        top = np.argmax(vals, axis=0)
        mu, rate = grid[top, columns], vals[top, columns]
        spacing *= _ZOOM[1, 0] - _ZOOM[0, 0]
    below = rate < grid_best
    mu, rate = np.where(below, _MU_GRID[best], mu), np.where(below, grid_best, rate)
    none = grid_best <= 0.0
    mu, rate = np.where(none, _MU_GRID[0], mu), np.where(none, 0.0, rate)
    return (float(mu[0]), float(rate[0])) if scalar else (mu, rate)


def _grid_max(terms, params: RateParams):
    """The best rate on _MU_GRID at each length: its sign is the optimized rate's."""
    return _rate_of_mu(terms, params)(_MU_GRID[:, None]).max(axis=0)


def optimize_mu(params: RateParams, length_km):
    """(mu_opt, rate) maximizing the key rate at a distance or array of them."""
    terms = _proposal_terms(yield_table(params, np.atleast_1d(length_km)))
    return _optimize(_rate_of_mu(terms, params), np.ndim(length_km) == 0)


def bb84_reference_rate(params: RateParams, length_km, mu):
    """Asymptotic decoy rate of a standard two-detector active receiver.

    length_km and mu may be arrays that broadcast against each other.
    """
    _require_mu(mu)
    return _rate_of_mu(_reference_terms(params, length_km), params)(mu)


def optimize_mu_bb84(params: RateParams, length_km):
    """(mu_opt, rate) for the two-detector reference at a distance or array of them."""
    terms = _reference_terms(params, np.atleast_1d(length_km))
    return _optimize(_rate_of_mu(terms, params), np.ndim(length_km) == 0)


@dataclass(frozen=True, eq=False)
class KeyRateCurve:
    """Optimized rates, one read-only array entry per channel length (the
    columns of the ``keyrate-curve`` CSV), and each protocol's cutoff."""

    length_km: np.ndarray
    mu_opt: np.ndarray
    rate_proposal: np.ndarray
    rate_bb84: np.ndarray
    cutoff_proposal_km: float
    cutoff_bb84_km: float

    def __post_init__(self):
        for array in (self.length_km, self.mu_opt, self.rate_proposal, self.rate_bb84):
            array.flags.writeable = False

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

    One protocol's cutoff: ``rates`` are its optimized rates at
    ``lengths``, from ``keyrate_curve``'s joint search.  The search starts
    after the last listed length with key; if none has key but 0 km does,
    it bisects [0, lengths[0]], and if 0 km has none either it returns 0.
    The extension runs in _CUTOFF_STEP_KM steps and returns _CUTOFF_CAP_KM
    only if every step, the first at or past the cap included, has key; a
    last listed length with key at or past the cap is the cutoff itself.
    ``rate_at`` gives, for an array of lengths at once, any rate with the
    optimized rate's sign: ``keyrate_curve`` passes the protocol's best
    rate on _MU_GRID, which is positive exactly where the optimized rate
    is, because every zoom grid of ``_optimize`` holds the best point
    before it and a search never ends below its grid.  The search runs on
    lengths evaluated ahead in batches, one rate evaluation each: all
    extension steps, then the bisection midpoints five levels deep.
    """
    positive = [length for length, rate in zip(lengths, rates) if rate > 0.0]
    if positive:
        lo = positive[-1]
        hi = next((length for length in lengths if length > lo), None)
    elif len(lengths) and lengths[0] > 0.0 and rate_at(np.zeros(1))[0] > 0.0:
        lo, hi = 0.0, lengths[0]  # every listed length lies past the cutoff
    else:
        return 0.0
    if hi is None:  # extend by whole steps; the first step at or past cap ends the search
        if lo >= _CUTOFF_CAP_KM:  # never below a listed length with key
            return lo
        steps = [lo, lo + _CUTOFF_STEP_KM]
        while steps[-1] < _CUTOFF_CAP_KM:
            steps.append(steps[-1] + _CUTOFF_STEP_KM)
        alive = rate_at(np.array(steps[1:])) > 0.0
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
    """Optimized rates for both protocols over a sorted list of finite distances.

    One _optimize searches both protocols at once, on side-by-side columns
    [proposal at each length | reference at each length]: four rate
    evaluations in all, and each column bit for bit what optimize_mu or
    optimize_mu_bb84 gives at its length.  Each protocol's _cutoff then
    evaluates its own grid maxima, one batch of lengths at a time.
    """
    if sorted(lengths) != list(lengths):
        raise ValueError("lengths must be sorted ascending")
    km, n = np.array(lengths, dtype=float), len(lengths)
    if not (km < np.inf).all():  # an infinite length would bisect [lo, inf] forever
        raise ValueError("lengths must be finite")
    joint = _side_by_side(_proposal_terms(yield_table(params, km)), _reference_terms(params, km))
    mu, rate = _optimize(_rate_of_mu(joint, params), False)
    cut_prop = _cutoff(lambda L: _grid_max(_proposal_terms(yield_table(params, L)), params),
                       lengths, rate[:n])
    cut_ref = _cutoff(lambda L: _grid_max(_reference_terms(params, L), params), lengths, rate[n:])
    return KeyRateCurve(km, mu[:n], rate[:n], rate[n:], cut_prop, cut_ref)


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
