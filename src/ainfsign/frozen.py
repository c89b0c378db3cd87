"""The base class of the immutable value types.

A ``Frozen`` subclass lists its slots in ``__slots__``.  Its fields are the
slots whose names do not start with ``_``; a slot that does holds a value
derived from the fields, or the wall time a result took.  ``Frozen`` alone
handles the fields:

- ``Frozen.__init__(self, *values)`` sets every slot, in ``__slots__``
  order, and raises ``TypeError`` on a wrong count.  A subclass that
  checks its input or derives slots keeps its own ``__init__`` and ends it
  with this call; a trusted constructor calls it on ``object.__new__``.
- Two instances are equal when they are one object, or of one class with
  equal fields; a derived slot is never compared.
- The hash is that of the tuple of field values, so a class with an
  unhashable field (a ``mappingproxy``) raises ``TypeError`` on ``hash``.
- The repr is ``Class(field=value!r, ...)``.
- ``copy`` and ``pickle`` rebuild an instance from every slot value
  through ``Frozen.__init__``.

An instance refuses assignment and deletion of any attribute with
``dataclasses.FrozenInstanceError``.  ``dataclasses`` is imported only when
a change is refused, so importing ``ainfsign`` never loads it.
"""


def _rebuild(cls, values):
    obj = object.__new__(cls)
    Frozen.__init__(obj, *values)
    return obj


class Frozen:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple([name for name in cls.__slots__ if name[0] != "_"])
        # each slot's own setter, which __setattr__ below does not intercept
        cls._setters = tuple([getattr(cls, name).__set__ for name in cls.__slots__])

    def __init__(self, *values):
        setters = self._setters
        if len(values) != len(setters):
            raise TypeError(f"{type(self).__name__} has {len(setters)} slots, got {len(values)}")
        for set_, value in zip(setters, values):
            set_(self, value)

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        for name in self._fields:
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __hash__(self):
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self):
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return _rebuild, (self.__class__, tuple([getattr(self, name) for name in self.__slots__]))

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
