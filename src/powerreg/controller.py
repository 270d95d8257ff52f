"""Variable-gain integral controller.

The control law accumulates the tracking error with a gain set to the
inverse of the plant's estimated power-versus-frequency slope, so each cycle
takes (approximately) a Newton step toward the frequency whose power matches
the target. The commanded frequency is projected onto the legal set.

Slope estimates can be non-physical or flat, so they are clamped from below
by a positive floor; that keeps the gain positive and bounded and the
correction pointed the right way on a plant whose true slope is positive.
The floor is no corner case: the default binds on about 15% of the cycles
of a 1 ms compute-bound run and on about 20% of a 10 ms graph-irregular one.
"""

from __future__ import annotations

import sys
from math import isfinite, nan

from .freqset import FrequencySet, check_frequency

DEFAULT_DERIV_FLOOR = 0.1  # watts/GHz; binds on 15-20% of cycles (module docstring)

# The legal floors: the normal positive floats. A subnormal floor would let
# the gain 1/floor overflow to inf; NaN fails both comparisons.
_FLOOR_MIN = sys.float_info.min
_FLOOR_MAX = sys.float_info.max

# Shared by the helpers and by IntegralController.step, which inlines both.
_ESTIMATE_MESSAGE = "derivative estimate must be finite"
_ERROR_MESSAGE = "target, measurement and their difference must be finite"


def gain(deriv_estimate: float, deriv_floor: float = DEFAULT_DERIV_FLOOR) -> float:
    """Integrator gain: reciprocal of the floor-clamped slope estimate.

    Always positive, finite and at most 1/deriv_floor.
    """
    if not isfinite(deriv_estimate):
        raise ValueError(_ESTIMATE_MESSAGE)
    if not _FLOOR_MIN <= deriv_floor <= _FLOOR_MAX:
        raise ValueError("deriv_floor must be a positive, finite, normal float")
    return 1.0 / max(deriv_estimate, deriv_floor)


def tracking_error(target: float, measured: float) -> float:
    """Error signal: target minus measurement, watts.

    Raises if the difference is not finite, which also covers a non-finite
    input: a float difference is finite only if both operands are.
    """
    error = target - measured
    if not isfinite(error):
        raise ValueError(_ERROR_MESSAGE)
    return error


class IntegralController:
    """Integrator state plus the per-cycle update.

    With projected_state (the default) the integrator accumulates from the
    previously applied, projected frequency. Setting it False keeps a raw
    unprojected accumulator and projects only the output; that variant is
    exposed for experimentation with quantization behavior.

    `error` and `gain` are what the last accepted step applied: the tracking
    error, watts, and the gain, GHz/watt; both are nan before the first.

    `omega` is read only through `in` and `project`, which `step` calls
    once, so any domain offering those two will do.
    """

    def __init__(
        self,
        omega: FrequencySet,
        u0: float,
        deriv_floor: float = DEFAULT_DERIV_FLOOR,
        projected_state: bool = True,
    ):
        gain(1.0, deriv_floor)  # gain refuses a bad floor; 1.0 passes its estimate test
        self.omega = omega
        self._floor = deriv_floor
        self.projected_state = projected_state
        check_frequency(u0, omega)
        self.u_prev = u0
        self._u_raw = u0
        self.error = self.gain = nan

    @property
    def deriv_floor(self) -> float:
        """Lower clamp on the slope estimate, watts/GHz. Read-only, so the
        constructor's check covers every step."""
        return self._floor

    def step(self, target: float, y_prev: float, deriv_estimate: float) -> float:
        """Compute the next frequency from last cycle's measured power.

        Inlines tracking_error, then gain, with their checks and messages,
        and keeps both as `error` and `gain`. Leaves the state unchanged if
        any input is rejected.
        """
        e = target - y_prev
        if not isfinite(e):
            raise ValueError(_ERROR_MESSAGE)
        if not isfinite(deriv_estimate):
            raise ValueError(_ESTIMATE_MESSAGE)
        floor = self._floor
        base = self.u_prev if self.projected_state else self._u_raw
        # gain's max(deriv_estimate, floor), by one comparison and no builtin
        # call: two-argument max keeps its first item unless the second is greater.
        g = 1.0 / (floor if floor > deriv_estimate else deriv_estimate)
        raw = base + g * e
        u = self.omega.project(raw)
        self._u_raw = raw
        self.u_prev = u
        self.error, self.gain = e, g
        return u
