"""The base of the slotted classes that are compared or printed."""

from __future__ import annotations


class Record:
    """Equality, hash and repr from `__slots__`, as a dataclass has them:
    a record equals only a record of its own class whose fields are equal,
    and prints as `Name(field=value, ...)`. A slot named `pos`, a source
    position, is printed but left out of equality and the hash."""

    __slots__ = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__ if name != "pos"])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"
