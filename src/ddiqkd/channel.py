"""Weak-coherent-pulse photon statistics and the lossy fiber.

Phase randomization is not simulated; it is what justifies treating each
pulse as a Poisson mixture of photon-number states, which is all the decoy
analysis needs.  Misalignment is not a fiber property here: ``bsm.click_table``
and the rate model apply it as an independent per-photon flip to the
orthogonal polarization in the preparation basis.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["poisson_pn", "transmittance"]


def _require_real(**values):
    """Reject values that are not real numbers, bool included, by their names."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
            raise ValueError(f"{name} must be a real number")


def poisson_pn(mu: float, n: int) -> float:
    """Probability that a pulse of mean photon number mu carries n photons."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 0:
        raise ValueError("photon number must be a nonnegative integer")
    _require_real(mu=mu)
    if not 0 < mu < math.inf:  # NaN fails too
        raise ValueError("mu must be positive and finite")
    return math.exp(-mu + n * math.log(mu) - math.lgamma(n + 1))


def transmittance(alpha_db_per_km: float, length_km):
    """Transmittance 10^(-alpha L / 10) of a fiber at a length or an array of lengths.

    Rejects a negative or NaN alpha or L, and the undefined total losses
    0 * inf (a lossless fiber of infinite length, an opaque one of zero
    length).  A scalar length is computed as a 0-d array, which matches
    the Python float power exactly; numpy's power over a longer array may
    differ from it in the last bit.
    """
    length = np.asarray(length_km)
    if length.dtype.kind not in "iuf":  # a bool or a string would convert to a length
        raise ValueError("length must be a real number")
    length = length.astype(float, copy=False)
    shortest = length.min(initial=math.inf)
    if not (alpha_db_per_km >= 0.0 and shortest >= 0.0):  # NaN fails too
        raise ValueError("loss coefficient and length must be nonnegative numbers")
    if (alpha_db_per_km == 0.0 and length.max(initial=0.0) == math.inf
            or alpha_db_per_km == math.inf and shortest == 0.0):
        raise ValueError("total loss alpha * length is undefined (0 * inf)")
    if alpha_db_per_km <= 1.0:  # alpha * length stays within the largest double
        return 10.0 ** (-alpha_db_per_km * length / 10.0)
    # a larger alpha can pass it, a loss of -inf dB whose exact transmittance is 0.0;
    # only this case pays for np.errstate, which costs as much as the power
    with np.errstate(over="ignore"):
        return 10.0 ** (-alpha_db_per_km * length / 10.0)
