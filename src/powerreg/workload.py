"""Synthetic activity-factor processes.

The activity factor alpha(t) drives the simulated processor's dynamic power.
It is modeled as a piecewise-constant level process (dwell times exponential,
levels uniform around a mean) multiplied by a stall process: an alternating
busy/stall renewal where stalls scale activity down, mimicking cores waiting
on memory. Profiles for compute-heavy, memory-heavy, and irregular
graph-processing programs differ in jitter, stall fraction, and dwell time.

Each process draws from one random stream, seeded from the profile's seed
and the process name ("<seed>:levels", "<seed>:stalls"). Intervals are drawn
in index order, each taking two draws, dwell then value, so interval i always
gets draws 2i and 2i+1 of its stream. Sampling is therefore a pure function
of (profile, t): trajectories do not depend on the order in which the caller
asks for times.

One generator merges the two processes, leaving out each one that cannot
change alpha, into alpha's constant segments (start, end, alpha). A profile
keeps only the generator and its current segment, so its memory does not
grow with simulated time, and answers both of the plant's questions at an
activity change, alpha and the next change, from that segment. Moving the
segment is `sample_alpha`'s work: a query past the segment pulls the
generator forward, and a query before it replays the streams from t = 0 in a
fresh generator, so two consumers that advance in lockstep should each have
their own profile.
"""

from __future__ import annotations

import math
import random
from math import inf
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


def _segments(alpha_mean: float, alpha_jitter: float, switch_period_ms: float,
              stall_fraction: float, stall_alpha_scale: float, seed: int):
    """Yield (start, end, alpha) for alpha's constant segments, in time order.

    Merges the level and stall renewal sequences: a segment ends where the
    current interval of either ends. Interval i of a sequence takes draws 2i
    (its dwell, exponential with the sequence's mean for i) and 2i+1 (its
    value) of the sequence's stream. A sequence that cannot change alpha is
    one interval that never ends. A segment may be empty, where a dwell is 0.
    """
    log1p = math.log1p
    level, stalled = alpha_mean, False
    lv_end = st_end = inf
    if alpha_jitter > 0.0:
        lv_draw, lv_end = random.Random(f"{seed}:levels").random, 0.0
    if stall_fraction > 0.0 and stall_alpha_scale < 1.0:
        # Alternating busy/stall dwells; the stall cycle runs faster than
        # the level process so stalls flicker within a level dwell.
        cycle = switch_period_ms / 2.0
        means = ((1.0 - stall_fraction) * cycle, stall_fraction * cycle)
        st_draw, st_end = random.Random(f"{seed}:stalls").random, 0.0
        stalled = True  # toggled as interval 0, which is busy, is drawn
    start = 0.0
    while True:
        if lv_end <= start:
            lv_end -= switch_period_ms * log1p(-lv_draw())
            level = alpha_mean * (1.0 + alpha_jitter * (2.0 * lv_draw() - 1.0))
        if st_end <= start:
            stalled = not stalled
            st_end -= means[stalled] * log1p(-st_draw())
            st_draw()  # the interval's value, which a stall does not use
        end = lv_end if lv_end < st_end else st_end
        yield start, end, level * stall_alpha_scale if stalled else level
        start = end


_FIELDS = ("kind", "alpha_mean", "alpha_jitter", "switch_period_ms",
           "stall_fraction", "stall_alpha_scale", "seed")
_field_values = attrgetter(*_FIELDS)


class WorkloadProfile:
    """Parameters of one synthetic activity process.

    alpha_mean is the center of the level process; alpha_jitter its relative
    amplitude; stall_fraction the long-run fraction of time spent stalled,
    during which activity is multiplied by stall_alpha_scale. The profile is
    immutable, so the walk started from these fields at construction stays
    in step with them; `_replace` builds a new profile. Equality, hashing and
    repr go by the fields, as for a named tuple. The fields are slots for
    speed, though only `_seg` is read at every activity event: as a Checked
    named tuple keeping `_walk` and `_seg` in an instance `__dict__`, the
    class was 20 lines shorter, but irregular_events host_us_per_sim_ms read
    1.161 -> 1.233 (+6.2%), because CPython 3.11 does not specialize the
    lookups on a tuple subclass with a `__dict__`.
    """

    _fields = _FIELDS
    __slots__ = _FIELDS + ("_walk", "_seg")

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
        # The plant reads alpha at most once per us, so it would skip shorter dwells.
        if stall_fraction > 0.0 and (
                min(stall_fraction, 1.0 - stall_fraction) * (switch_period_ms / 2.0) < 0.001):
            raise ValueError("switch_period_ms and stall_fraction must give mean busy and "
                             "stall dwells of at least 0.001 ms (the plant's 1 us step)")
        # The walk and its first segment, [start, end, alpha], copied into a
        # list that each later segment overwrites.
        walk = _segments(*values[1:])
        for name, value in zip(self.__slots__, values + (walk, [*next(walk)])):
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

    def _rewind(self, t_ms: float) -> None:
        """Restart the walk from t = 0, for a query before the cached segment."""
        if not 0.0 <= t_ms < inf:
            raise ValueError(f"time must be finite and non-negative, got {t_ms!r}")
        walk = _segments(*_field_values(self)[1:])
        object.__setattr__(self, "_walk", walk)
        self._seg[:] = next(walk)

    def sample_alpha(self, t_ms: float) -> float:
        """Activity factor at time t_ms; pure function of (profile, t_ms)."""
        seg = self._seg
        # NaN fails every comparison, so it is rewound, and refused there.
        if not seg[0] <= t_ms < inf:
            self._rewind(t_ms)
        if seg[1] <= t_ms:
            for seg[:] in self._walk:
                if t_ms < seg[1]:
                    break
        return seg[2]

    def next_change_ms(self, t_ms: float) -> float:
        """Earliest time strictly after t_ms at which alpha may change.

        Returns inf for a constant profile. Used by the plant to integrate
        alpha exactly as a piecewise-constant signal.
        """
        seg = self._seg
        if not seg[0] <= t_ms < seg[1]:
            self.sample_alpha(t_ms)
        return seg[1]


def make_profile(kind: str, seed: int, **overrides: float) -> WorkloadProfile:
    """Build a profile from a kind's preset, optionally overriding fields."""
    params: dict = dict(_PRESETS.get(kind, {}))  # WorkloadProfile rejects an unknown kind
    params.update(overrides)
    return WorkloadProfile(kind=kind, seed=seed, **params)
