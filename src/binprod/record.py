"""A base for small immutable value classes, built without generated code.

`dataclasses` writes the methods of each class as source text and compiles
it at import.  A `Record` subclass names its fields once, as
``__slots__ = _fields = (...)``, and trailing defaults, if any, in a
``_defaults`` mapping; it defines no ``__init__``.  The methods below read
the fields by name, so defining a subclass compiles nothing.
"""

from __future__ import annotations

# the one way to set a field: Record.__setattr__ refuses every assignment
_set = object.__setattr__


class Record:
    """Immutable fields; equal when the type and every field are equal.

    The constructor takes the fields in ``_fields`` order, by position or
    by keyword; a field left out takes its value from ``_defaults``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        for name, value in zip(fields, args):
            _set(self, name, value)

    def _bind(self, args: tuple, kwargs: dict) -> tuple:
        """The field values in order; TypeError for a call that does not fit."""
        fields, cls = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{cls} takes {len(fields)} fields, got {len(args)}")
        values = dict(zip(fields, args))
        for name, value in kwargs.items():
            if name not in fields:
                raise TypeError(f"{cls} has no field {name!r}")
            if name in values:
                raise TypeError(f"{cls} got field {name!r} twice")
            values[name] = value
        missing = [name for name in fields if name not in values and name not in self._defaults]
        if missing:
            raise TypeError(f"{cls} is missing fields {', '.join(missing)}")
        return tuple(values[name] if name in values else self._defaults[name] for name in fields)

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
