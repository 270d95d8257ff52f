"""The shared base of the named tuples that check their fields."""

from typing import Iterable


class Checked:
    """Listed first in the bases of a named tuple whose `__new__` checks or
    completes its fields, so that `_make`, and `_replace` through it, go
    through `__new__` too.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable: Iterable[object]):
        return cls(*iterable)
