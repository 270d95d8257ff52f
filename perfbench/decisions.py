"""Control-decision replay: the regulator's per-cycle cost, without the plant.

One decision is what the regulator would run on a real processor each
control cycle: `RlsEstimator.update`, then `CubicModel.derivative`, then
`IntegralController.step`. The replay feeds a recorded trace's
(frequency, measured power) pairs through a fresh estimator and controller,
so it must reproduce the trace's frequency sequence exactly.
"""

from __future__ import annotations

import gc
import math
from time import perf_counter_ns

import numpy as np

from powerreg import CubicModel, IntegralController, RlsEstimator

CHUNK = 2000  # decisions per timed chunk


def _fresh_loop(config) -> tuple[RlsEstimator, IntegralController]:
    estimator = RlsEstimator(
        forgetting=config.rls_forgetting,
        p0=config.rls_p0,
        x0=CubicModel(*config.rls_x0),
    )
    controller = IntegralController(
        config.frequency_set(), config.u0,
        deriv_floor=config.deriv_floor,
        projected_state=config.projected_state,
    )
    return estimator, controller


def check_replay(config, trace) -> tuple[int, float]:
    """Replay untimed; return (frequency mismatches, max log10 trace(P)).

    The covariance trace is read from `RlsEstimator.P` after every update;
    it is the estimator-health figure that exposes forgetting-factor windup.
    """
    estimator, controller = _fresh_loop(config)
    mismatches = 0
    trace_p_max = -math.inf
    for rec, nxt in zip(trace, trace[1:] + [None]):
        model = estimator.update(rec.freq_ghz, rec.power_w)
        u_next = controller.step(config.target_w, rec.power_w,
                                 model.derivative(rec.freq_ghz))
        trace_p_max = max(trace_p_max, float(np.trace(estimator.P)))
        if nxt is not None and u_next != nxt.freq_ghz:
            mismatches += 1
    return mismatches, math.log10(trace_p_max)


def timed_replay(config, freqs: list[float], powers: list[float],
                 close_chunk) -> None:
    """Time each decision of one replay pass, in chunks of about CHUNK.

    After each chunk, `close_chunk` gets its host nanoseconds per decision;
    the caller runs the calibration kernel there, so that every chunk is
    bracketed by it. A whole pass of fast_control lasts longer than the host
    holds one speed; a chunk mostly does not. The pass starts from a full
    collection, so that the collector's own pauses fall on the same decisions
    in every pass.
    """
    estimator, controller = _fresh_loop(config)
    gc.collect()
    update, step, target = estimator.update, controller.step, config.target_w
    n = len(freqs)
    k = max(1, round(n / CHUNK))
    bounds = [n * i // k for i in range(k + 1)]
    for start, stop in zip(bounds, bounds[1:]):
        samples = []
        for u, y in zip(freqs[start:stop], powers[start:stop]):
            t0 = perf_counter_ns()
            step(target, y, update(u, y).derivative(u))
            samples.append(perf_counter_ns() - t0)
        close_chunk(samples)
