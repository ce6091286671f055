"""A base for small immutable value classes, built without generated code.

`dataclasses` writes the methods of each class as source text and compiles
it at import.  A `Record` subclass names its fields once, as
``__slots__ = _fields = (...)``, and sets them in its own ``__init__`` with
``object.__setattr__``; the methods below read the fields by name, so
defining a subclass compiles nothing.
"""

from __future__ import annotations


class Record:
    """Immutable fields; equal when the type and every field are equal."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {type(self).__name__}.{name}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {type(self).__name__}.{name}")

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which takes the fields in order
        return type(self), self._values()
