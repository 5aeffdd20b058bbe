"""Edge sweep of the model's domain: every public callable that takes a model
scalar, fed values on and past the edges of that scalar's documented interval.

A value in the interval (a Python or numpy int or float, never a bool, and an
int no larger than the largest double) must be taken, and the call must return finite real values in their documented range;
any other value must raise ValueError.  Each call runs with RuntimeWarning as
an error.  The intervals below are written out from the README's "model
domain" paragraph, not read from the package, so the sweep checks the code
against the documentation.
"""

import math
import random
import sys
import warnings

import numpy as np
import pytest

from ddiqkd.bsm import click_table, theory_table
from ddiqkd.channel import poisson_pn, transmittance
from ddiqkd.rates import (RateParams, SecurityRegime, YieldTable, bb84_reference_rate,
                          detector_routes, key_rate, keyrate_curve, optimize_mu, optimize_mu_bb84,
                          security_regime, yield_table)
from ddiqkd.session import SessionParams, run_session
from ddiqkd.verify import appendix_checks

# name: (low, high, low end closed, high end closed, integers only)
DOCUMENTED = {
    "e_mis": (0.0, 0.5, True, True, False),
    "p_dark": (0.0, 1.0, True, False, False),
    "eta": (0.0, 1.0, True, True, False),
    "visibility": (0.0, 1.0, True, True, False),
    "mu": (0.0, math.inf, False, False, False),
    "f_ec": (1.0, math.inf, True, False, False),
    "loss": (0.0, math.inf, True, False, False),  # alpha_db_per_km and any length
    "seed": (0, math.inf, True, False, True),
    "photon number": (0, math.inf, True, False, True),
    "n_samples": (1, math.inf, True, False, True),
    "n_pulses": (1, 2**63 - 1, True, True, True),
}

_rng = random.Random(33)
EDGES = [True, False, math.nan, math.inf, -math.inf, -1, 0, 5e-324, math.nextafter(1.0, 0.0), 1,
         math.nextafter(1.0, 2.0), 1e308, np.int64(1), np.float32(0.5), "0.5", None, 0.5 + 0j,
         np.True_, 10**400, _rng.random() / 2.0, _rng.uniform(1.0, 2.0),
         10.0 ** _rng.uniform(-300.0, 300.0)]

MODEL = RateParams()
TABLE = YieldTable(0.1, 0.015, 1e-6)


def _documented(name, value) -> bool:
    """Whether ``value`` is a scalar in ``name``'s documented interval."""
    low, high, low_closed, high_closed, integer = DOCUMENTED[name]
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, kinds):
        return False
    if isinstance(value, int) and value > sys.float_info.max:  # past every double: in no interval
        return False
    return ((low <= value if low_closed else low < value)
            and (value <= high if high_closed else value < high))


def _session(**changes):
    return SessionParams(**dict(n_pulses=1000, mu=0.5, length_km=10.0, model=MODEL) | changes)


def _report(report):
    return [(report.rate_per_pulse, 1.0), (report.q_sift_effective, 1.0), (report.counts, 2**63)]


def _curve(curve):
    return [(curve.rate_proposal, 1.0), (curve.rate_bb84, 1.0), (curve.mu_opt, 2.0),
            (curve.cutoff_proposal_km, 1000.0), (curve.cutoff_bb84_km, 1000.0)]


def _model_rates(**changes):
    """Both optimized rates at 10 km under the model with ``changes``."""
    model = RateParams(**changes)
    return [(v, 2.0) for v in optimize_mu(model, 10.0) + optimize_mu_bb84(model, 10.0)]


def _yields(table):
    return [(table.y0, 1.0), (table.y1, 1.0), (table.e1, 0.5),
            (table.gains(0.5), 1.0), (table.qbers(0.5), 0.5)]


def _regime(regime):
    assert isinstance(regime, SecurityRegime)
    return []


def _checks(results):
    return [(r.max_deviation, 1e-12) for r in results]


# case: (documented interval, the call at a value -> [(output, its largest value)])
CASES = {
    "poisson_pn-mu": ("mu", lambda v: [(poisson_pn(v, 1), 1.0)]),
    "poisson_pn-n": ("photon number", lambda v: [(poisson_pn(0.5, v), 1.0)]),
    "transmittance-alpha": ("loss", lambda v: [(transmittance(v, 10.0), 1.0)]),
    "transmittance-length": ("loss", lambda v: [(transmittance(0.2, v), 1.0)]),
    "transmittance-length-list": ("loss", lambda v: [(transmittance(0.2, [5.0, v]), 1.0)]),
    "RateParams-eta_det": ("eta", lambda v: _model_rates(eta_det=v)),
    "RateParams-p_dark": ("p_dark", lambda v: _model_rates(p_dark=v)),
    "RateParams-alpha": ("loss", lambda v: _model_rates(alpha_db_per_km=v)),
    "RateParams-e_mis": ("e_mis", lambda v: _model_rates(e_mis=v)),
    "RateParams-f_ec": ("f_ec", lambda v: _model_rates(f_ec=v)),
    "detector_routes": ("e_mis", lambda v: [(detector_routes(v), 1.0)]),
    "YieldTable-eta": ("eta", lambda v: _yields(YieldTable(v, 0.015, 1e-6))),
    "YieldTable-eta-list": ("eta", lambda v: _yields(YieldTable([0.1, v], 0.015, 1e-6))),
    "YieldTable-e_mis": ("e_mis", lambda v: _yields(YieldTable(0.1, v, 1e-6))),
    "YieldTable-p_dark": ("p_dark", lambda v: _yields(YieldTable(0.1, 0.015, v))),
    "YieldTable.gains": ("mu", lambda v: [(TABLE.gains(v), 1.0)]),
    "YieldTable.qbers": ("mu", lambda v: [(TABLE.qbers(v), 0.5)]),
    "key_rate": ("mu", lambda v: [(key_rate(TABLE, MODEL, v), 1.0)]),
    "key_rate-list": ("mu", lambda v: [(key_rate(TABLE, MODEL, [0.5, v]), 1.0)]),
    "bb84_reference_rate-mu": ("mu", lambda v: [(bb84_reference_rate(MODEL, 10.0, v), 1.0)]),
    "bb84_reference_rate-length": ("loss", lambda v: [(bb84_reference_rate(MODEL, v, 0.5), 1.0)]),
    "yield_table": ("loss", lambda v: _yields(yield_table(MODEL, v))),
    "optimize_mu": ("loss", lambda v: [(out, 2.0) for out in optimize_mu(MODEL, v)]),
    "optimize_mu_bb84": ("loss", lambda v: [(out, 2.0) for out in optimize_mu_bb84(MODEL, v)]),
    "keyrate_curve": ("loss", lambda v: _curve(keyrate_curve(MODEL, [v]))),
    "security_regime": ("eta", lambda v: _regime(security_regime(v))),
    "click_table-e_mis": ("e_mis", lambda v: [(click_table(v, 1.0), 1.0)]),
    "click_table-visibility": ("visibility", lambda v: [(click_table(0.0, v), 1.0)]),
    "theory_table": ("visibility", lambda v: [(theory_table(v), 1.0)]),
    "SessionParams-n_pulses": ("n_pulses", lambda v: _report(run_session(_session(n_pulses=v), 1))),
    "SessionParams-mu": ("mu", lambda v: _report(run_session(_session(mu=v), 1))),
    "SessionParams-length_km": ("loss", lambda v: _report(run_session(_session(length_km=v), 1))),
    "run_session-seed": ("seed", lambda v: _report(run_session(_session(), v))),
    "appendix_checks-n_samples": ("n_samples", lambda v: _checks(appendix_checks(v, 7))),
    "appendix_checks-seed": ("seed", lambda v: _checks(appendix_checks(10, v))),
}


def _value_id(value) -> str:
    return f"{type(value).__name__}({value!r})"


def _in_range(output, high) -> bool:
    array = np.asarray(output)
    return (array.dtype.kind in "iuf" and bool(np.isfinite(array).all())
            and bool((array >= 0).all()) and bool((array <= high).all()))


@pytest.mark.parametrize("case", CASES)
def test_edge_sweep(case):
    name, call = CASES[case]
    wrong = []
    for value in EDGES:
        taken = _documented(name, value)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                outputs = call(value)
        except ValueError as exc:
            if taken:
                wrong.append(f"{_value_id(value)} rejected: {exc}")
            continue
        except Exception as exc:  # noqa: BLE001 -- any other exception is a wrong answer
            wrong.append(f"{_value_id(value)} raised {type(exc).__name__}: {exc}")
            continue
        if not taken:
            wrong.append(f"{_value_id(value)} taken, not rejected")
        wrong += [f"{_value_id(value)} gave {out!r}, not in [0, {high}]"
                  for out, high in outputs if not _in_range(out, high)]
    assert not wrong, "\n".join(wrong)
