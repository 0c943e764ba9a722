"""Immutable value records, the base of every data class in the package.

A record's fields are its class's annotated names. They are set once, in
order, by __init__; equality, hash and repr read them alone, never values
a record keeps on the side (cached properties, memo tables).
"""

from operator import attrgetter


class Record:
    def __init_subclass__(cls) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields "
                            f"{self._fields}, not {len(values)} values")
        self.__dict__.update(zip(self._fields, values))

    @classmethod
    def _trusted(cls, *values):
        """A record from field values already in normal form, in field
        order: the one constructor that checks nothing, for classes whose
        __init__ sets the fields alone."""
        record = object.__new__(cls)
        record.__dict__.update(zip(cls._fields, values))
        return record

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
