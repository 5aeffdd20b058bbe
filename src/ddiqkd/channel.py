"""The device model: photon statistics, the lossy fiber, the detector routes,
the per-detector yields and the key formula, and the model's domain.

Phase randomization is not simulated; it is what justifies treating each
pulse as a Poisson mixture of photon-number states, which is all the decoy
analysis needs.  Misalignment is not a fiber property here: ``bsm.click_table``
and the rate model apply it as an independent per-photon flip to the
orthogonal polarization in the preparation basis.  ``DOMAIN`` is the one
table of the model's intervals, which every public entry point reads.

The per-pulse key contribution of detector i is

    R_i = p0 Y_i0 + p1 Y_i1 [1 - h(e_i1)] - Q_i f h(E_i)

clamped at zero and summed over the four detectors.  The Monte Carlo
(``session``) and the rate engine (``rates``) both read these formulas; only
the rate engine adds the gains over a pulse's photons, the intensity search
and the cutoffs, so a session's set-up loads this module and not ``rates``.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from operator import ge, gt, le, lt

import numpy as np

from ._record import ValueRecord

__all__ = ["DOMAIN", "RateParams", "detector_routes", "poisson_pn", "transmittance"]

# The model's domain: names -> (interval, integers only, the message for a value
# outside it where not "<name> must be in <interval>", "an integer in" for integers).
# A bool is not a number, so it lies in no interval.
DOMAIN = {
    ("e_mis",): ("[0, 0.5]", False, None),
    ("p_dark",): ("[0, 1)", False, None),
    ("eta_det", "eta", "transmittance", "visibility", "probabilities"): ("[0, 1]", False, None),
    ("mu",): ("(0, inf)", False, "{name} must be positive and finite"),
    ("f_ec",): ("[1, inf)", False, "{name} must be finite and >= 1"),
    ("alpha_db_per_km", "length", "length_km", "distances"):
        ("[0, inf)", False, "{name}: loss coefficients and lengths must be finite and nonnegative numbers"),
    ("seed", "photon number"): ("[0, inf)", True, "{name} must be a nonnegative integer"),
    ("n_samples",): ("[1, inf)", True, "{name} must be an integer >= 1"),
    ("n_pulses",): (f"[1, {2**63 - 1}]", True, None),  # the largest count Generator.multinomial takes
}


def _rule(interval: str, integer: bool, message: str | None):
    """(low end test, high end test, integer, message) of one DOMAIN row."""
    low, high = ((int if integer and end != "inf" else float)(end)
                 for end in interval[1:-1].split(", "))
    above = partial(le if interval[0] == "[" else lt, low)  # low <= value, or low < value
    below = partial(ge if interval[-1] == "]" else gt, high)  # high >= value, or high > value
    default = "{name} must be an integer in " if integer else "{name} must be in "
    return above, below, integer, message or default + interval


_RULES = {name: _rule(*row) for names, row in DOMAIN.items() for name in names}
_LARGEST = sys.float_info.max  # an int past it converts to no double, so lies in no interval
_TINY = 2.2250738585072014e-308  # smallest normal double: floors log2 so 0 log 0 = 0


def _require(name: str, value, arrays: bool = False):
    """``value`` if it lies in ``name``'s DOMAIN interval; ValueError if not.

    A value is a Python or numpy int or float, never a bool nor an int past
    the largest double, and if ``arrays`` also an array or list of them.  A
    numpy scalar comes back as a Python number and an array as float64.  A
    plain int or float skips numpy.
    """
    above, below, integer, message = _RULES[name]
    if arrays and isinstance(value, (list, tuple)):  # numpy would read a True in it as 1.0
        value = [item if type(item) in (float, int) else _require(name, item, True) for item in value]
    if type(value) is not int and (integer or type(value) is not float):  # bool's type is not int
        array = np.asarray(value)
        if (array.dtype.kind not in ("iu" if integer else "iuf")
                or not (arrays or isinstance(value, np.generic))):
            raise ValueError(message.format(name=name) if integer else f"{name} must be a real number")
        if isinstance(value, np.generic):
            value = value.item()  # a Python number, checked as one below
        else:
            array = array.astype(float, copy=False)
            if above(array.min(initial=math.inf)) and below(array.max(initial=-math.inf)):  # NaN fails
                return array
            raise ValueError(message.format(name=name))
    if above(value) and below(value) and (type(value) is float or value <= _LARGEST):  # NaN fails
        return value
    raise ValueError(message.format(name=name))


def poisson_pn(mu: float, n: int) -> float:
    """Probability that a pulse of mean photon number mu carries n photons."""
    n, mu = _require("photon number", n), _require("mu", mu)
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))


def transmittance(alpha_db_per_km: float, length_km):
    """Transmittance 10^(-alpha L / 10) of a fiber at a length or an array of lengths.

    A scalar length gives the Python float power; numpy's power over a
    longer array may differ from it in the last bit.
    """
    alpha, length = _require("alpha_db_per_km", alpha_db_per_km), _require("length", length_km, True)
    if alpha <= 1.0:  # alpha * length stays within the largest double
        return 10.0 ** (-alpha * length / 10.0)
    # a larger alpha can pass it, a loss of -inf dB whose exact transmittance is 0.0;
    # only this case pays for np.errstate, which costs as much as the power
    with np.errstate(over="ignore"):
        return 10.0 ** (-alpha * length / 10.0)


class RateParams(ValueRecord):
    """The device-and-fiber model: everything the key rate and a session
    need except distance, intensity and pulse count."""

    def __init__(self,
                 eta_det: float = 0.145,   # detection efficiency per photon
                 p_dark: float = 3.01e-6,  # dark count probability per detector per gate
                 alpha_db_per_km: float = 0.2, e_mis: float = 0.015, f_ec: float = 1.16):
        values = eta_det, p_dark, alpha_db_per_km, e_mis, f_ec
        vars(self).update(zip(self._fields, map(_require, self._fields, values)))


def _entropy(x):
    """Binary Shannon entropy h(x), elementwise, for x in [0, 1]; h(0) = h(1) = 0.

    A float or a list of floats gives Python floats, from one np.log2 call
    over the x and 1 - x of all items: numpy's bits, which math.log2 does
    not always give.
    """
    if type(x) is float:
        return _entropy([x])[0]
    if type(x) is list:
        logs = np.log2([max(v, _TINY) for v in x] + [max(1.0 - v, _TINY) for v in x]).tolist()
        return list(map(_entropy_of, x, logs, logs[len(x):]))
    return _entropy_of(x, np.log2(np.maximum(x, _TINY)), np.log2(np.maximum(1.0 - x, _TINY)))


def _entropy_of(x, log_x, log_rest):
    """h(x) from log2(x) and log2(1 - x), each floored at _TINY."""
    return -x * log_x - (1.0 - x) * log_rest


def _ratio(num, den, empty: float):
    """num / den, and ``empty`` where den is 0: elementwise over arrays, else
    in Python arithmetic, item by item over lists."""
    if type(den) is list:
        return list(map(_ratio, num, den, [empty] * len(den)))
    if not isinstance(den, np.ndarray):
        return num / den if den > 0 else empty
    positive = den > 0.0
    return np.where(positive, num / np.where(positive, den, 1.0), empty)


def _eta(params: RateParams, length_km):
    """eta_det times the channel transmittance."""
    return params.eta_det * transmittance(params.alpha_db_per_km, length_km)


def detector_routes(e_mis: float = 0.0):
    """(T, 1 - T) of a detector's agreement role (a lone click gives Bob
    Alice's bit) and error role, T its click probability per photon.  The one
    statement of the routing: each sifted cell of ``bsm.click_table(e_mis)`` is
    its role's T bit for bit, and a detector holds each role in 4 of 16 codes."""
    e_mis = _require("e_mis", e_mis)
    return ((1.0 - e_mis) / 2.0, (1.0 + e_mis) / 2.0), (e_mis / 2.0, (2.0 - e_mis) / 2.0)


def _secret_rate(y0, y1, k1, gain, err_gain, mu, params: RateParams):
    """p0 Y0 + p1 Y1 k1 - Q f h(E), with k1 = 1 - h(e1), not yet clamped at zero.

    Arrays broadcast.  Lists of floats, one item per detector, give a list of
    Python floats, from one np.exp and one np.log2 call."""
    per_detector = type(gain) is list
    p0 = np.exp(-mu).item() if per_detector else np.exp(-mu)
    privacy = p0 * y0 + mu * p0 * y1 * k1

    def rate(q, h):
        return privacy - q * params.f_ec * h

    h = _entropy(_ratio(err_gain, gain, 0.0))
    return list(map(rate, gain, h)) if per_detector else rate(gain, h)


def _yield_terms(eta, e_mis, p_dark):
    """Y0, Y1, e1 and k1 = 1 - h(e1) of one detector, shaped like eta."""
    cube = (1.0 - p_dark) ** 3
    y1 = (eta / 4.0 + (1.0 - eta) * p_dark) * cube
    e1 = _ratio((eta * e_mis / 4.0 + (1.0 - eta) * p_dark / 2.0) * cube, y1, 0.5)
    return p_dark * cube, y1, e1, 1.0 - _entropy(e1)
