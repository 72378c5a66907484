"""The one base of the immutable classes whose fields live in slots: the
syntax-tree nodes, ``GameTable``, ``Crosstable`` and ``MixedStrategy``.

Its methods are written once, here, and read each class's field names
from the class, so defining a class generates no code.  They hold the one
rule for a field that is a numpy array, so no class repeats it.
"""
from __future__ import annotations

import numpy as np

_set = object.__setattr__  # sets a slot past ``Frozen.__setattr__``


def _restore(cls: type, values: tuple):
    """An instance of ``cls`` whose slots hold ``values``, in the order of
    ``cls.__slots__``, made without calling its ``__init__``.  Each array
    among them is made read-only."""
    self = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        _set(self, name, value)
    return self


class Frozen:
    """Immutable, with ``==``, ``hash`` and ``repr`` over the fields that
    ``_fields`` names, and copies that keep every slot.

    A subclass stores each field in a slot of the same name, set with
    ``_set`` in its ``__init__``.  Its ``__slots__`` start with the fields
    and may hold more, which ``==``, ``hash`` and ``repr`` leave out.  Two
    values are equal when they are of one type with equal fields, an array
    field compared cell by cell with NaN equal to NaN.  A value hashes as
    the tuple of its fields, so one with an array field is unhashable.
    Copies and pickles restore every slot as it was, without calling
    ``__init__``, and keep every array read-only.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        # A loop in this frame, as in ``__repr__``.
        for name in self._fields:
            mine, theirs = getattr(self, name), getattr(other, name)
            if isinstance(mine, np.ndarray):
                if not np.array_equal(mine, theirs, equal_nan=True):
                    return False
            elif not mine == theirs:  # ``!=`` takes one frame more a level
                return False
        return True

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        # A loop in this frame: a comprehension or ``str.format`` would add
        # a frame per level of a tree.
        fields = ""
        for name in self._fields:
            fields += f", {name}={getattr(self, name)!r}"
        return f"{type(self).__qualname__}({fields[2:]})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _restore, (type(self), tuple(map(self.__getattribute__, self.__slots__)))
