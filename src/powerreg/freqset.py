"""Legal clock frequencies: a ladder of levels, or a continuous range.

Both kinds offer the same surface to the loop: `project` maps a command to a
legal frequency, `in` tests legality, and `min_level`/`max_level` give the
bounds.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable


@dataclass(frozen=True)
class FrequencySet:
    """Finite ordered set of legal clock frequencies, in GHz.

    Levels are strictly increasing and positive. Instances are immutable and
    safe to share.
    """

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.levels:
            raise ValueError("frequency set must not be empty")
        for v in self.levels:
            if not math.isfinite(v) or v <= 0.0:
                raise ValueError(f"frequency level must be finite and positive, got {v!r}")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ValueError("frequency levels must be strictly increasing")

    @classmethod
    def from_list(cls, values: Iterable[float]) -> "FrequencySet":
        """Build a set from raw values: sorted ascending, duplicates dropped."""
        return cls(tuple(sorted({float(v) for v in values})))

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

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
        if not math.isfinite(u):
            raise ValueError(f"cannot project non-finite frequency {u!r}")
        levels = self.levels
        i = bisect.bisect_left(levels, u)
        if i == 0:
            return levels[0]
        if i == len(levels):
            return levels[-1]
        lo, hi = levels[i - 1], levels[i]
        # ties resolve to the lower level
        return lo if u - lo <= hi - u else hi


@dataclass(frozen=True)
class FrequencyRange:
    """Closed interval [min_level, max_level] of legal frequencies, in GHz.

    The actuator range of continuous-frequency operation: any frequency in
    the interval is legal, and commands outside it clamp to the nearest
    bound.
    """

    min_level: float
    max_level: float

    def __post_init__(self) -> None:
        lo, hi = self.min_level, self.max_level
        if not (math.isfinite(lo) and math.isfinite(hi) and 0.0 < lo <= hi):
            raise ValueError(
                f"frequency range must be finite and positive with min <= max, "
                f"got [{lo!r}, {hi!r}]")

    def __contains__(self, value: float) -> bool:
        return self.min_level <= value <= self.max_level

    def project(self, u: float) -> float:
        """Clamp a real-valued frequency command into the range."""
        if not math.isfinite(u):
            raise ValueError(f"cannot project non-finite frequency {u!r}")
        return min(max(u, self.min_level), self.max_level)


def check_frequency(phi: float, omega: FrequencySet | FrequencyRange | None) -> None:
    """Reject a frequency that is not positive and finite, or not legal in
    omega when one is given."""
    if not (isinstance(phi, (int, float)) and math.isfinite(phi) and phi > 0.0):
        raise ValueError(f"frequency must be positive and finite, got {phi!r}")
    if omega is not None and phi not in omega:
        raise ValueError(f"frequency {phi!r} is not a legal level")


# The 16-level ladder used as the default configuration (GHz).
DEFAULT_LEVELS = (
    0.8, 1.0, 1.1, 1.3, 1.5, 1.7, 1.8, 2.0,
    2.2, 2.4, 2.5, 2.7, 2.9, 3.1, 3.2, 3.4,
)

DEFAULT_OMEGA = FrequencySet(DEFAULT_LEVELS)
