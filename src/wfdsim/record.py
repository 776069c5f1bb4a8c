"""Value records: equality and repr over the fields a class names in its
``__slots__``, and a frozen, hashable variant.

Only the records that something compares derive from these: the scenario
and its config objects, which a loaded file is checked against, and the
summary, which `replay` and the benchmark rebuild from the trace.  The
records of a running simulation (frames, packets, routes, groups, reports)
are plain ``__slots__`` classes compared by identity.
"""

from __future__ import annotations


class Record:
    """Equal to a record of the same class whose fields are all equal;
    unhashable, because its fields can change."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A `Record` whose `__init__` sets its fields once, through `_freeze`;
    any later assignment raises AttributeError, so it hashes by value."""

    __slots__ = ()

    def _freeze(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
