"""Value classes written by hand over ``__slots__``.

The operator-tree nodes, group elements, basis labels, parameter triples,
prover states and reports are plain records: a fixed tuple of fields,
equality and hash over those fields, and a constructor-style repr.
`Record` derives all of that from the concrete class's own ``__slots__``,
which name its fields in constructor order, so the package needs no class
decorator that generates methods at import.  One rule holds for every
record: it is immutable, and it hashes exactly when its fields do, so a
record holding a list or a dict is unhashable.

`Keyed` records (the memo keys) compare and hash one value cached at
construction; `Ordered` ones also order by it, with `functools` deriving
the other comparisons from ``<`` (a module already loaded at start-up).
"""

from __future__ import annotations

from functools import total_ordering


class Record:
    """An immutable record whose fields are its class's ``__slots__``."""
    __slots__ = ()

    def __init__(self, *values):
        names = self.__slots__
        if len(values) != len(names):
            raise TypeError(f"{type(self).__name__} takes {len(names)} "
                            f"arguments ({len(values)} given)")
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        # class-sensitive: Sum(p) != Compose(p) though their fields agree
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Keyed(Record):
    """A record compared and hashed by the value ``_key`` that its
    constructor passes to `_keep`, for the classes that key the memos."""
    __slots__ = ("_key", "_hash")

    def _keep(self, key) -> None:
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_hash", hash(key))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return self._hash


@total_ordering
class Ordered(Keyed):
    """A keyed record ordered lexicographically on its fields, which its
    ``_key`` tuple lists in order."""
    __slots__ = ()

    def __lt__(self, other):
        return (self._key < other._key
                if other.__class__ is self.__class__ else NotImplemented)
