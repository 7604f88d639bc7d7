"""Base classes of the slotted value types.

A record with no invariant and no cache is a typing.NamedTuple. A type
that checks its fields or keeps a cache derives from Record or Frozen
instead: its __slots__ hold its fields and caches, _fields names the
fields that equality, hashing and repr read (a cache is left out), and its
__init__ stores each slot once. No class statement here or in a subclass
generates code, so defining one costs no more than the statement itself.
"""


class Record:
    """Value equality and repr over _fields. A mutable record is unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{self.__class__.__qualname__}({fields})"


class Frozen(Record):
    """A record whose fields cannot be assigned or deleted once __init__ has
    stored them with object.__setattr__. It hashes its _fields, and copies
    and pickles by calling its class on them, so a copy starts with empty
    caches; every Frozen subclass takes exactly its _fields as arguments."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
