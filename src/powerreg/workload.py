"""Synthetic activity-factor processes.

The activity factor alpha(t) drives the simulated processor's dynamic power.
It is modeled as a piecewise-constant level process (dwell times exponential,
levels uniform around a mean) multiplied by a stall process: an alternating
busy/stall renewal where stalls scale activity down, mimicking cores waiting
on memory. Profiles for compute-heavy, memory-heavy, and irregular
graph-processing programs differ in jitter, stall fraction, and dwell time.

Each process draws from one random stream, seeded once from the profile's
seed and the process name ("<seed>:levels", "<seed>:stalls"). Intervals are
drawn in index order, each taking two draws, dwell then value, so interval i
always gets draws 2i and 2i+1 of its stream. Sampling is therefore a pure
function of (profile, t): trajectories do not depend on the order in which
the caller asks for times. A profile builds its level and stall processes
once, at construction, and leaves out each one that cannot change alpha.
Each process keeps only its current interval and walks forward from it, so
a profile's memory does not grow with simulated time. A query earlier than
the current interval replays the stream from its start: two consumers that
advance in lockstep should each have their own profile. A query walks only
a process whose interval does not cover its time: at an activity change,
the one whose interval ended. Alpha and the next change are cached for the
last time asked, so the plant's second question at that time costs a compare.
"""

from __future__ import annotations

import math
import random
from operator import attrgetter

# Preset knobs per profile kind. These are calibration values chosen so the
# kinds reproduce the expected ordering of workload variability
# (graph_irregular > memory_bound > compute_bound > constant). The constant
# kind has no preset: it takes WorkloadProfile's defaults, which hold alpha
# at alpha_mean.
_PRESETS: dict[str, dict[str, float]] = {
    "compute_bound": dict(
        alpha_jitter=0.05, switch_period_ms=40.0,
        stall_fraction=0.05, stall_alpha_scale=0.6,
    ),
    "memory_bound": dict(
        alpha_jitter=0.25, switch_period_ms=30.0,
        stall_fraction=0.35, stall_alpha_scale=0.45,
    ),
    "graph_irregular": dict(
        alpha_jitter=0.35, switch_period_ms=15.0,
        stall_fraction=0.45, stall_alpha_scale=0.4,
    ),
}

KINDS = (*_PRESETS, "constant")


class _Renewal:
    """Renewal sequence drawn forward from one random stream.

    Interval i spans [start, end); its dwell is exponential with mean
    means[i % len(means)], and it carries a value draw in [0, 1). Only the
    current interval is kept, in start, end, index and value; a query before
    it re-seeds the stream from key and draws again from interval 0.
    """

    def __init__(self, key: str, means: tuple[float, ...]):
        self._key = key
        self._means = means
        self._rewind()

    def _rewind(self) -> None:
        self._rng = random.Random(self._key)
        self.start = self.end = 0.0
        self.index, self.value = -1, 0.0

    def locate(self, t: float) -> None:
        """Make the interval that covers time t the current one."""
        if t < self.start:
            self._rewind()
        i, end = self.index, self.end
        if end <= t:
            rng, means = self._rng, self._means
            while end <= t:
                i += 1
                start = end
                end = start - means[i % len(means)] * math.log1p(-rng.random())
                value = rng.random()
            self.start, self.end, self.index, self.value = start, end, i, value


_FIELDS = ("kind", "alpha_mean", "alpha_jitter", "switch_period_ms",
           "stall_fraction", "stall_alpha_scale", "seed")
_field_values = attrgetter(*_FIELDS)


class WorkloadProfile:
    """Parameters of one synthetic activity process.

    alpha_mean is the center of the level process; alpha_jitter its relative
    amplitude; stall_fraction the long-run fraction of time spent stalled,
    during which activity is multiplied by stall_alpha_scale. The profile is
    immutable, so the processes built from these fields at construction stay
    in step with them; `_replace` builds a new profile. Equality, hashing and
    repr go by the fields, as for a named tuple. The fields are slots: the
    profile reads them at every activity event, and a slot reads faster
    than a named tuple field.
    """

    _fields = _FIELDS
    __slots__ = _FIELDS + ("_levels", "_stalls", "_last")

    def __init__(self, kind: str, alpha_mean: float = 1.0, alpha_jitter: float = 0.0,
                 switch_period_ms: float = 40.0, stall_fraction: float = 0.0,
                 stall_alpha_scale: float = 1.0, seed: int = 0):
        values = (kind, alpha_mean, alpha_jitter, switch_period_ms, stall_fraction,
                  stall_alpha_scale, seed)
        if kind not in KINDS:
            raise ValueError(f"unknown workload kind {kind!r}; expected one of {KINDS}")
        # The streams are keyed by str(seed): True would key other streams than 1.
        if type(seed) is not int:
            raise ValueError(f"seed must be an int, got {seed!r}")
        for name, value in zip(_FIELDS[1:-1], values[1:-1]):  # the floats
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if alpha_mean <= 0.0:
            raise ValueError("alpha_mean must be positive")
        if not 0.0 <= alpha_jitter < 1.0:
            raise ValueError("alpha_jitter must be in [0, 1)")
        # A renewal walk draws about 1/switch_period_ms intervals per ms.
        if switch_period_ms < 0.001:
            raise ValueError("switch_period_ms must be at least 0.001 (the plant's 1 us step)")
        if not 0.0 <= stall_fraction < 1.0:
            raise ValueError("stall_fraction must be in [0, 1)")
        if not 0.0 < stall_alpha_scale <= 1.0:
            raise ValueError("stall_alpha_scale must be in (0, 1]")
        # The level and stall processes, each None when it cannot change alpha.
        levels = stalls = None
        if alpha_jitter > 0.0:
            levels = _Renewal(f"{seed}:levels", (switch_period_ms,))
        if stall_fraction > 0.0 and stall_alpha_scale < 1.0:
            # Alternating busy/stall dwells; the stall cycle runs faster than
            # the level process so stalls flicker within a level dwell.
            cycle = switch_period_ms / 2.0
            busy_mean = (1.0 - stall_fraction) * cycle
            stall_mean = stall_fraction * cycle
            stalls = _Renewal(f"{seed}:stalls", (busy_mean, stall_mean))
        # _last is [t, alpha, next change] of the last query, set in place.
        for name, value in zip(self.__slots__, values + (levels, stalls, [None] * 3)):
            object.__setattr__(self, name, value)  # once: __setattr__ refuses

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _field_values(self) == _field_values(other)

    def __hash__(self) -> int:
        return hash(_field_values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"WorkloadProfile({fields})"

    def __reduce__(self):
        return WorkloadProfile, _field_values(self)

    def _asdict(self) -> dict[str, object]:
        return dict(zip(_FIELDS, _field_values(self)))

    def _replace(self, /, **changes: object) -> "WorkloadProfile":
        return WorkloadProfile(**{**self._asdict(), **changes})

    def _at(self, t_ms: float) -> list:
        """Cache [t_ms, alpha, next change]; walk only processes not covering t_ms."""
        if not 0.0 <= t_ms < math.inf:
            raise ValueError(f"time must be finite and non-negative, got {t_ms!r}")
        alpha, nxt = self.alpha_mean, math.inf
        levels, stalls = self._levels, self._stalls
        if levels is not None:
            if not levels.start <= t_ms < levels.end:
                levels.locate(t_ms)
            alpha *= 1.0 + self.alpha_jitter * (2.0 * levels.value - 1.0)
            nxt = levels.end
        if stalls is not None:
            if not stalls.start <= t_ms < stalls.end:
                stalls.locate(t_ms)
            if stalls.index % 2 == 1:
                alpha *= self.stall_alpha_scale
            if stalls.end < nxt:
                nxt = stalls.end
        last = self._last
        last[:] = t_ms, alpha, nxt
        return last

    def sample_alpha(self, t_ms: float) -> float:
        """Activity factor at time t_ms; pure function of (profile, t_ms)."""
        last = self._last
        return (last if last[0] == t_ms else self._at(t_ms))[1]

    def next_change_ms(self, t_ms: float) -> float:
        """Earliest time strictly after t_ms at which alpha may change.

        Returns inf for a constant profile. Used by the plant to integrate
        alpha exactly as a piecewise-constant signal.
        """
        last = self._last
        return (last if last[0] == t_ms else self._at(t_ms))[2]


def make_profile(kind: str, seed: int, **overrides: float) -> WorkloadProfile:
    """Build a profile from a kind's preset, optionally overriding fields."""
    params: dict = dict(_PRESETS.get(kind, {}))  # WorkloadProfile rejects an unknown kind
    params.update(overrides)
    return WorkloadProfile(kind=kind, seed=seed, **params)
