"""Legal clock frequencies: a ladder of levels.

`project` maps a command to a legal level, `in` tests legality, and
`min_level`/`max_level` give the bounds.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isfinite
from typing import Iterable, NamedTuple

from ._record import Checked


class _Levels(NamedTuple):
    levels: tuple[float, ...]


class FrequencySet(Checked, _Levels):
    """Finite ordered set of legal clock frequencies, in GHz.

    A named tuple of one field, `levels`, strictly increasing and positive.
    Instances are immutable and safe to share.
    """

    __slots__ = ()

    def __new__(cls, levels: Iterable[float]) -> "FrequencySet":
        levels = tuple(levels)
        if not levels:
            raise ValueError("frequency set must not be empty")
        for v in levels:
            if not isfinite(v) or v <= 0.0:
                raise ValueError(f"frequency level must be finite and positive, got {v!r}")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("frequency levels must be strictly increasing")
        return tuple.__new__(cls, (levels,))

    @classmethod
    def from_list(cls, values: Iterable[float]) -> "FrequencySet":
        """Build a set from raw values: sorted ascending, duplicates dropped."""
        return cls(sorted({float(v) for v in values}))

    def __contains__(self, value: float) -> bool:
        return value in self.levels

    @property
    def min_level(self) -> float:
        return self.levels[0]

    @property
    def max_level(self) -> float:
        return self.levels[-1]

    def project(self, u: float) -> float:
        """Map a real-valued frequency command to the nearest legal level.

        When two levels are equidistant from u the lower one wins. Commands
        outside the range clamp to the nearest endpoint.
        """
        if not isfinite(u):
            raise ValueError(f"cannot project non-finite frequency {u!r}")
        levels = self.levels
        i = bisect_left(levels, u)
        if i == 0:
            return levels[0]
        if i == len(levels):
            return levels[-1]
        lo, hi = levels[i - 1], levels[i]
        # ties resolve to the lower level
        return lo if u - lo <= hi - u else hi


def check_frequency(phi: float, omega: FrequencySet) -> None:
    """Reject a frequency that is not positive and finite, or not legal in omega."""
    # bool is an int, and True == 1.0 would pass as a 1 GHz level.
    if not (isinstance(phi, (int, float)) and not isinstance(phi, bool)
            and isfinite(phi) and phi > 0.0):
        raise ValueError(f"frequency must be positive and finite, got {phi!r}")
    if phi not in omega:
        raise ValueError(f"frequency {phi!r} is not a legal level")


# The 16-level ladder used as the default configuration (GHz).
DEFAULT_LEVELS = (
    0.8, 1.0, 1.1, 1.3, 1.5, 1.7, 1.8, 2.0,
    2.2, 2.4, 2.5, 2.7, 2.9, 3.1, 3.2, 3.4,
)
