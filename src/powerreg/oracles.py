"""The plant's reference energy, shipped for the benchmark.

The benchmark checks the plant's energy counter against `reference_energy`,
which shares no code path with the plant's step. The test suite's other
references live in `tests/oracles.py`, which re-exports this one.
"""

from __future__ import annotations

import math
from typing import Sequence

from .plant import PlantParams
from .workload import WorkloadProfile


def reference_energy(
    params: PlantParams,
    profile: WorkloadProfile,
    schedule: Sequence[tuple[float, float]],
    duration_ms: float,
    dt_ms: float = 0.01,
) -> float:
    """Fixed-step quadrature of instantaneous power along a frequency schedule.

    schedule holds (start_ms, frequency) pairs, sorted, first at 0. The
    temperature path is integrated with the same small step. Counter
    quantization is intentionally ignored: this is the ground-truth integral
    the plant's accumulator is checked against.
    """
    if not schedule or schedule[0][0] != 0.0:
        raise ValueError("schedule must start at t=0")
    sched = list(schedule) + [(math.inf, schedule[-1][1])]
    idx = 0
    temp = params.t_amb
    energy = 0.0
    n = int(round(duration_ms / dt_ms))
    for i in range(n):
        t = i * dt_ms
        while sched[idx + 1][0] <= t:
            idx += 1
        phi = sched[idx][1]
        alpha = profile.sample_alpha(t)
        v = params.v0 + params.m * phi
        power = alpha * params.cap * v * v * phi + params.sigma * v * (
            1.0 + params.kappa * (temp - params.t_amb))
        energy += power * dt_ms * 1e-3
        temp += (power * params.r_th - (temp - params.t_amb)) * (dt_ms / params.tau_th)
    return energy
