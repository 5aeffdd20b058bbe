"""Immutable records, the package's small typed values, built without generated code.

A record's fields are the arguments of its class's ``__init__``, in order
(``_fields``).  ``__init__`` validates them and stores each once in the
instance dict (``vars(self).update``); assigning or deleting an attribute
afterwards raises AttributeError naming it.  The repr shows the fields, and
a ValueRecord is equal to, and hashes as, any record of its own class whose
fields are equal.  Values a record derives from its fields are not fields.
"""

from __future__ import annotations

__all__ = ["Record", "ValueRecord"]


class Record:
    """Immutable after ``__init__``; compared by identity."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        init = vars(cls).get("__init__")
        if init is not None:
            cls._fields = init.__code__.co_varnames[1:init.__code__.co_argcount]

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class ValueRecord(Record):
    """A record compared and hashed by its fields."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())
