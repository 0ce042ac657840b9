"""Immutable base of the value types that validate their input.

A subclass names its fields in ``__slots__`` and ``__match_args__`` and sets
each one once, in its own ``__init__``, through ``object.__setattr__``.
Fields cannot be assigned or deleted; equality, hash and repr go by the
fields, and equal values have the same class.
"""


class Frozen:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        # copy and pickle rebuild the value through __init__, which validates.
        return type(self), self._values()
