"""Variable-gain integral controller.

The control law accumulates the tracking error with a gain set to the
inverse of the plant's estimated power-versus-frequency slope, so each cycle
takes (approximately) a Newton step toward the frequency whose power matches
the target. The commanded frequency is projected onto the legal set when one
is configured.

Slope estimates can be transiently non-physical while identification warms
up, so they are clamped from below by a positive floor; that keeps the gain
positive and bounded and the correction pointed the right way on a plant
whose true slope is positive.
"""

from __future__ import annotations

import math

from .freqset import FrequencyRange, FrequencySet, check_frequency

DEFAULT_DERIV_FLOOR = 0.1  # watts/GHz; binds only on degenerate estimates


def _check_floor(deriv_floor: float) -> None:
    if not (math.isfinite(deriv_floor) and deriv_floor > 0.0):
        raise ValueError("deriv_floor must be positive and finite")


def gain(deriv_estimate: float, deriv_floor: float = DEFAULT_DERIV_FLOOR) -> float:
    """Integrator gain: reciprocal of the floor-clamped slope estimate.

    Always positive and at most 1/deriv_floor.
    """
    if not math.isfinite(deriv_estimate):
        raise ValueError("derivative estimate must be finite")
    _check_floor(deriv_floor)
    return 1.0 / max(deriv_estimate, deriv_floor)


def tracking_error(target: float, measured: float) -> float:
    """Error signal: target minus measurement, watts."""
    if not (math.isfinite(target) and math.isfinite(measured)):
        raise ValueError("target and measurement must be finite")
    return target - measured


class IntegralController:
    """Integrator state plus the per-cycle update.

    With projected_state (the default) the integrator accumulates from the
    previously applied, projected frequency. Setting it False keeps a raw
    unprojected accumulator and projects only the output; that variant is
    exposed for experimentation with quantization behavior.
    """

    def __init__(
        self,
        omega: FrequencySet | FrequencyRange | None,
        u0: float,
        deriv_floor: float = DEFAULT_DERIV_FLOOR,
        projected_state: bool = True,
    ):
        _check_floor(deriv_floor)
        self.omega = omega
        self.deriv_floor = deriv_floor
        self.projected_state = projected_state
        self.reset(u0)

    def reset(self, u0: float) -> None:
        """Restart from frequency u0 with zero accumulated error."""
        check_frequency(u0, self.omega)
        self.u_prev = u0
        self._u_raw = u0
        self.e_prev = 0.0

    def step(self, target: float, y_prev: float, deriv_estimate: float) -> float:
        """Compute the next frequency from last cycle's measured power.

        Leaves the state unchanged if any input is rejected.
        """
        e = tracking_error(target, y_prev)
        a = gain(deriv_estimate, self.deriv_floor)
        base = self.u_prev if self.projected_state else self._u_raw
        raw = base + a * e
        u = self.omega.project(raw) if self.omega is not None else raw
        self._u_raw = raw
        self.u_prev = u
        self.e_prev = e
        return u
