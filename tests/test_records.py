"""Tests for the immutable records: read-only fields, equality, hashing and repr."""

import inspect

import numpy as np
import pytest

from ddiqkd.cli import Config
from ddiqkd.encoding import Basis, Bb84Setting, VirtualSource
from ddiqkd.qstate import DensityMatrix, PureState
from ddiqkd.rates import KeyRateCurve, RateParams, YieldTable
from ddiqkd.session import SessionParams, SessionReport

# a builder of one record per class, compared by value ...
VALUE_RECORDS = {
    "Config": lambda: Config(mu=0.5, distances=(5.0,)),
    "RateParams": lambda: RateParams(e_mis=0.02),
    "Bb84Setting": lambda: Bb84Setting(Basis.DIAGONAL, 1),
    "VirtualSource": lambda: VirtualSource((0.1, 0.2, 0.3, 0.4)),
    "SessionParams": lambda: SessionParams(1000, 0.7, 10.0, RateParams()),
}
# ... and by identity: their fields are arrays
IDENTITY_RECORDS = {
    "PureState": lambda: PureState([1.0, 0.0], ("pol",)),
    "DensityMatrix": lambda: DensityMatrix(np.eye(2) / 2.0),
    "YieldTable": lambda: YieldTable(0.1, 0.015, 1e-6),
    "KeyRateCurve": lambda: KeyRateCurve(*(np.zeros(1) for _ in range(4)), 0.0, 0.0),
    "SessionReport": lambda: SessionReport(SessionParams(10, 0.7, 0.0, RateParams()), 1,
                                           np.zeros((3, 9))),
}


@pytest.mark.parametrize("build", [*VALUE_RECORDS.values(), *IDENTITY_RECORDS.values()],
                         ids=[*VALUE_RECORDS, *IDENTITY_RECORDS])
def test_fields_are_read_only(build):
    record = build()
    for name in inspect.signature(type(record)).parameters:
        value = getattr(record, name)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            setattr(record, name, value)
        with pytest.raises(AttributeError, match=f"'{name}'"):
            delattr(record, name)
        assert getattr(record, name) is value


@pytest.mark.parametrize("build", VALUE_RECORDS.values(), ids=VALUE_RECORDS)
def test_value_records_compare_and_hash_by_fields(build):
    a, b = build(), build()
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != tuple(getattr(a, name) for name in inspect.signature(type(a)).parameters)


def test_value_records_differ_in_any_field():
    assert Config(mu=0.5) != Config(mu=0.6)
    assert RateParams(f_ec=1.2) != RateParams()
    assert (SessionParams(10, 0.7, 0.0, RateParams())
            != SessionParams(10, 0.7, 0.0, RateParams(e_mis=0.0)))
    assert Bb84Setting(Basis.DIAGONAL, 1) != Bb84Setting(Basis.RECTILINEAR, 1)


@pytest.mark.parametrize("build", IDENTITY_RECORDS.values(), ids=IDENTITY_RECORDS)
def test_array_records_compare_by_identity(build):
    a, b = build(), build()
    assert a == a and a != b and len({a, b}) == 2


def test_repr_names_the_constructor_fields():
    assert repr(RateParams()) == ("RateParams(eta_det=0.145, p_dark=3.01e-06, alpha_db_per_km=0.2, "
                                  "e_mis=0.015, f_ec=1.16)")
    assert (repr(Bb84Setting(Basis.RECTILINEAR, 0))
            == "Bb84Setting(basis=<Basis.RECTILINEAR: 'rectilinear'>, bit=0)")
