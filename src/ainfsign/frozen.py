"""The base class of the immutable value types.

A ``Frozen`` instance refuses assignment and deletion of any attribute with
``dataclasses.FrozenInstanceError``; its constructor sets each field with
``object.__setattr__``.  ``dataclasses`` is imported only when a change is
refused, so importing ``ainfsign`` never loads it.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")
