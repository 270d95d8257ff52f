"""Synthetic activity-factor processes.

The activity factor alpha(t) drives the simulated processor's dynamic power.
It is modeled as a piecewise-constant level process (dwell times exponential,
levels uniform around a mean) multiplied by a stall process: an alternating
busy/stall renewal where stalls scale activity down, mimicking cores waiting
on memory. Profiles for compute-heavy, memory-heavy, and irregular
graph-processing programs differ in jitter, stall fraction, and dwell time.

Each process draws from one random stream, seeded once from the profile's
seed and the process name ("<seed>:levels", "<seed>:stalls"). Intervals are
only ever appended at the end, in index order, and each takes two draws,
dwell then value, so interval i always gets draws 2i and 2i+1 of its stream.
Sampling is therefore a pure function of (profile, t): trajectories do not
depend on the order in which the caller asks for times. A profile builds its
level and stall processes once, at construction, and leaves out each one that
cannot change alpha.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass

KINDS = ("compute_bound", "memory_bound", "graph_irregular", "constant")

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


class _Renewal:
    """Lazily built renewal sequence drawn from one random stream.

    Interval i spans [bounds[i], bounds[i+1]); its dwell is exponential with
    mean means[i % len(means)], and it carries a value draw in [0, 1).
    Intervals are appended in index order only, each taking the dwell and
    then the value from the stream seeded by key, so interval i holds draws
    2i and 2i+1 however far ahead the caller has looked.
    """

    def __init__(self, key: str, means: tuple[float, ...]):
        self._rng = random.Random(key)
        self._means = means
        self._bounds: list[float] = [0.0]
        self._values: list[float] = []

    def _extend(self) -> None:
        mean = self._means[len(self._values) % len(self._means)]
        dwell = -mean * math.log1p(-self._rng.random())
        self._bounds.append(self._bounds[-1] + dwell)
        self._values.append(self._rng.random())

    def locate(self, t: float) -> tuple[int, float, float]:
        """Return (index, value draw in [0,1), interval end) for time t."""
        while self._bounds[-1] <= t:
            self._extend()
        i = bisect.bisect_right(self._bounds, t) - 1
        return i, self._values[i], self._bounds[i + 1]


@dataclass(frozen=True)
class WorkloadProfile:
    """Parameters of one synthetic activity process.

    alpha_mean is the center of the level process; alpha_jitter its relative
    amplitude; stall_fraction the long-run fraction of time spent stalled,
    during which activity is multiplied by stall_alpha_scale. The profile is
    frozen, so the processes built from these fields at construction stay
    in step with them.
    """

    kind: str
    alpha_mean: float = 1.0
    alpha_jitter: float = 0.0
    switch_period_ms: float = 40.0
    stall_fraction: float = 0.0
    stall_alpha_scale: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown workload kind {self.kind!r}; expected one of {KINDS}")
        for name in ("alpha_mean", "alpha_jitter", "switch_period_ms",
                     "stall_fraction", "stall_alpha_scale"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.alpha_mean <= 0.0:
            raise ValueError("alpha_mean must be positive")
        if not 0.0 <= self.alpha_jitter < 1.0:
            raise ValueError("alpha_jitter must be in [0, 1)")
        if self.switch_period_ms <= 0.0:
            raise ValueError("switch_period_ms must be positive")
        if not 0.0 <= self.stall_fraction < 1.0:
            raise ValueError("stall_fraction must be in [0, 1)")
        if not 0.0 < self.stall_alpha_scale <= 1.0:
            raise ValueError("stall_alpha_scale must be in (0, 1]")
        # The level and stall processes, each None when it cannot change alpha.
        levels = stalls = None
        if self.alpha_jitter > 0.0:
            levels = _Renewal(f"{self.seed}:levels", (self.switch_period_ms,))
        if self.stall_fraction > 0.0 and self.stall_alpha_scale < 1.0:
            # Alternating busy/stall dwells; the stall cycle runs faster than
            # the level process so stalls flicker within a level dwell.
            cycle = self.switch_period_ms / 2.0
            busy_mean = (1.0 - self.stall_fraction) * cycle
            stall_mean = self.stall_fraction * cycle
            stalls = _Renewal(f"{self.seed}:stalls", (busy_mean, stall_mean))
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_stalls", stalls)

    def sample_alpha(self, t_ms: float) -> float:
        """Activity factor at time t_ms; pure function of (profile, t_ms)."""
        if t_ms < 0.0:
            raise ValueError("time must be non-negative")
        alpha = self.alpha_mean
        if self._levels is not None:
            _, u, _ = self._levels.locate(t_ms)
            alpha = self.alpha_mean * (1.0 + self.alpha_jitter * (2.0 * u - 1.0))
        if self._stalls is not None and self._stalls.locate(t_ms)[0] % 2 == 1:
            alpha *= self.stall_alpha_scale
        return alpha

    def next_change_ms(self, t_ms: float) -> float:
        """Earliest time strictly after t_ms at which alpha may change.

        Returns inf for a constant profile. Used by the plant to integrate
        alpha exactly as a piecewise-constant signal.
        """
        if t_ms < 0.0:
            raise ValueError("time must be non-negative")
        nxt = math.inf
        if self._levels is not None:
            nxt = self._levels.locate(t_ms)[2]
        if self._stalls is not None:
            nxt = min(nxt, self._stalls.locate(t_ms)[2])
        return nxt


def make_profile(kind: str, seed: int, **overrides: float) -> WorkloadProfile:
    """Build a profile from a kind's preset, optionally overriding fields."""
    params: dict = dict(_PRESETS.get(kind, {}))  # WorkloadProfile rejects an unknown kind
    params.update(overrides)
    return WorkloadProfile(kind=kind, seed=seed, **params)
