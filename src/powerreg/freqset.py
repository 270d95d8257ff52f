"""Legal clock frequencies: a ladder of levels.

`project` maps a command to a legal level, `in` tests legality, and
`min_level`/`max_level` give the bounds.
"""

from __future__ import annotations

from bisect import bisect_left
from math import isfinite, nextafter
from typing import Container, Iterable, NamedTuple

from ._record import Checked


class _Ladder(NamedTuple):
    levels: tuple[float, ...]
    cuts: tuple[float, ...]


def _cut(lo: float, hi: float) -> float:
    """The largest command nearer lo than hi, a tie going to lo: the last u
    in [lo, hi) with u - lo <= hi - u, as evaluated in floats.

    Both sides are monotone in u, so the test holds on a prefix of [lo, hi];
    call its last float c. The float midpoint u is c or the float above it,
    and the test at u itself tells which, so this returns c for every pair
    of positive finite floats lo < hi. M is the real midpoint (lo + hi) / 2:
    - hi <= 2*lo: both subtractions are exact (Sterbenz's lemma), so c is
      the last float at or below M, and u is M rounded.
    - hi > 2*lo: hi - u is exact near M, so c is the last float at or below
      M + g/8, ties to even, where g is the float grid of hi - lo. u is
      within g/4 of M before its own rounding, so it rounds to c or the
      float above it wherever the float spacing s at M is at least g. In
      the one tight case, s = g/2, the tie at M + g/8 in the test and the
      tie in rounding u resolve the same way by parity.
    """
    u = lo + (hi - lo) / 2
    return u if u - lo <= hi - u else nextafter(u, lo)


class FrequencySet(Checked, _Ladder):
    """Finite ordered set of legal clock frequencies, in GHz.

    A named tuple of `levels`, strictly increasing and positive, and `cuts`,
    which the constructor derives from them: cuts[k] is the largest command
    that `project` maps to levels[k] rather than levels[k + 1], so that a
    projection is one bisection. Cuts passed in, as `_replace` and a copy
    pass them, must equal the derived ones; None derives them afresh.
    Instances are immutable and safe to share.
    """

    __slots__ = ()

    def __new__(cls, levels: Iterable[float],
                cuts: Iterable[float] | None = None) -> "FrequencySet":
        levels = tuple(levels)
        if not levels:
            raise ValueError("frequency set must not be empty")
        for v in levels:
            if not isfinite(v) or v <= 0.0:
                raise ValueError(f"frequency level must be finite and positive, got {v!r}")
        if any(b <= a for a, b in zip(levels, levels[1:])):
            raise ValueError("frequency levels must be strictly increasing")
        derived = tuple(_cut(a, b) for a, b in zip(levels, levels[1:]))
        if cuts is not None and tuple(cuts) != derived:
            raise ValueError("cuts must be the ones the levels give")
        return tuple.__new__(cls, (levels, derived))

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
        # levels[k] takes the commands in (cuts[k - 1], cuts[k]]; below
        # cuts[0] is levels[0], above the last cut the top level.
        return self.levels[bisect_left(self.cuts, u)]


def check_frequency(phi: float, omega: Container[float]) -> None:
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
