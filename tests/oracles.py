"""Independent statements of the receiver that the tests check the package against.

They restate by hand what the package derives from its tables, so a test
that compares the two does not check a table against itself.
The photon-by-photon session sampler in ``test_session.py`` keeps Bob's bit
by ``agreement_detectors``.  ``numpy_secret_key_length`` is a report's key
accounting as numpy arrays, the form the package's Python floats must
match bit for bit.
"""

import numpy as np

from ddiqkd.encoding import Basis, Bb84Setting, PathSetting

TINY = 2.2250738585072014e-308  # smallest normal double: floors log2 so 0 log 0 = 0


def agreement_detectors(alice: Bb84Setting, bob: PathSetting) -> tuple[int, int]:
    """Detector pair (1-based) an ideal photon can reach for a basis-matched pair.

    These are exactly the outcomes whose flip rule restores bit agreement.
    """
    if alice.basis is not bob.basis:
        raise ValueError("settings are not basis-matched")
    if alice.basis is Basis.RECTILINEAR:
        return (1, 2) if alice.bit == bob.bit else (3, 4)
    return (1, 3) if alice.bit == bob.bit else (2, 4)


def numpy_secret_key_length(report) -> float:
    """``SessionReport.secret_key_length`` from ``report.counts``, in numpy
    arrays: the per-detector terms p0 Y0 + p1 Y1 [1 - h(e1)] - Q f h(E),
    each clamped at 0 (and 0 for a detector without successes), summed and
    times the matched pulses.  The gains divide the tallies as Python ints,
    as the report does; the error gains divide them as numpy does, each
    count converted to a float first."""
    params, model = report.params, report.params.model
    eta, e, d, mu = params.eta, model.e_mis, model.p_dark, params.mu

    def h(x):
        return -x * np.log2(np.maximum(x, TINY)) - (1.0 - x) * np.log2(np.maximum(1.0 - x, TINY))

    def ratio(num, den, empty):
        positive = den > 0.0
        return np.where(positive, num / np.where(positive, den, 1.0), empty)

    cube = (1.0 - d) ** 3
    y0, y1 = d * cube, (eta / 4.0 + (1.0 - eta) * d) * cube
    k1 = 1.0 - h(ratio((eta * e / 4.0 + (1.0 - eta) * d / 2.0) * cube, y1, 0.5))
    tally = report.counts[:, :8].reshape(3, 2, 4)  # (photon class, error, detector)
    matched = int(report.counts.sum())
    gains = np.array([int(n) / matched if matched > 0 else 0.0 for n in tally.sum(axis=(0, 1))])
    err_gains = tally[:, 1].sum(axis=0) / max(matched, 1)
    p0 = np.exp(-mu)
    privacy = p0 * y0 + mu * p0 * y1 * k1
    terms = privacy - gains * model.f_ec * h(ratio(err_gains, gains, 0.0))
    return float(matched * np.where(gains > 0.0, np.maximum(terms, 0.0), 0.0).sum())
