"""Simulated multicore processor plant.

Power model: total power is dynamic switching power plus leakage. Dynamic
power is alpha * C * V^2 * phi with an affine voltage law V = v0 + m * phi,
which makes it a cubic polynomial in frequency for fixed activity. Leakage
scales with voltage and rises linearly with temperature above ambient, and
temperature follows a first-order law driven by total power, closing the
power/temperature loop.

Energy is exposed the way commodity hardware exposes it: a counter that
updates only on a 1 ms grid whose phase is unknown to the consumer. Callers
derive average power as delta(counter) / delta(time).

Time is tracked in integer microseconds. A frequency command takes effect
from the next advance, so activity changes are the only events. Between
events alpha and phi are constant, so the thermal ODE is linear and
temperature and energy are advanced in one exact closed-form step per event.
`advance` walks its interval in one loop that stops only at events and at the
last grid instant it crosses, the only one a read can see and so the one at
which the counter is snapshotted. The step's coefficients are plant state,
recomputed only when they can change: when `apply_frequency` changes the
frequency, and at each activity event. `advance` just reads them. The part
that depends on frequency alone is computed for every level at construction,
so a change of level looks it up.
The class implements the same apply/advance/read seam a hardware driver would.
"""

from __future__ import annotations

import random
from math import ceil, expm1, inf, isfinite
from typing import NamedTuple

from ._record import Checked
from .freqset import FrequencySet, check_frequency
from .workload import WorkloadProfile

# Energy counter grid period, microseconds.
_GRID_US = 1000


class _PlantFields(NamedTuple):
    cap: float = 2.0
    v0: float = 0.6
    m: float = 0.2
    sigma: float = 1.5
    kappa: float = 0.005
    t_amb: float = 40.0
    r_th: float = 2.0
    tau_th: float = 200.0


class PlantParams(Checked, _PlantFields):
    """Physical parameters of the simulated processor, an immutable named tuple.

    cap: effective switched capacitance, scaled so alpha*cap*V^2*phi is watts
      with V in volts and phi in GHz.
    v0, m: affine voltage law V = v0 + m*phi (volts, volts/GHz).
    sigma: leakage scale (watts per volt).
    kappa: leakage temperature sensitivity (1/degC).
    t_amb: ambient temperature (degC).
    r_th: thermal resistance (degC per watt).
    tau_th: thermal time constant (ms).
    """

    __slots__ = ()

    def __new__(cls, *args: float, **kwargs: float) -> "PlantParams":
        self = super().__new__(cls, *args, **kwargs)
        checks = [
            (self.cap > 0.0, "cap must be > 0"),
            (self.v0 > 0.0, "v0 must be > 0"),
            (self.m >= 0.0, "m must be >= 0"),
            (self.sigma >= 0.0, "sigma must be >= 0"),
            (self.kappa >= 0.0, "kappa must be >= 0"),
            (self.tau_th > 0.0, "tau_th must be > 0"),
            (self.r_th >= 0.0, "r_th must be >= 0"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(msg)
        for name, value in zip(self._fields, self):
            if not isfinite(value):
                raise ValueError(f"{name} must be finite")
        return self


def _freq_coefficients(p: PlantParams, freq: float) -> tuple[float, float, float, float, float]:
    """The step coefficients that depend on freq alone: (v, sigma*v, g*tau, beta, -beta)."""
    # With x = temp - t_amb, power is q + g*x and tau*x' = r_th*q - beta*x.
    v = p.v0 + p.m * freq
    sv = p.sigma * v
    g = sv * p.kappa
    beta = 1.0 - p.r_th * g
    if beta <= 0.0:
        raise ValueError(f"thermal runaway: leakage feedback gain >= 1 at {freq} GHz")
    return v, sv, g * p.tau_th, beta, -beta


class Plant:
    """Simulated processor with an energy counter and a thermal state.

    Owned by a single experiment loop. Every frequency it runs at is a level
    of omega, and every level is checked for runaway at construction, so that
    check covers the whole run.
    """

    def __init__(
        self,
        params: PlantParams,
        profile: WorkloadProfile,
        u0: float,
        omega: FrequencySet,
        seed: int = 0,
        counter_phase_ms: float | None = None,
    ):
        # The fields the step reads at every advance and activity event, as
        # attributes: a named tuple's fields read slower.
        self._cap, self._r_th = params.cap, params.r_th
        self._t_amb, self._tau = params.t_amb, params.tau_th
        self.profile = profile
        check_frequency(u0, omega)
        # Every level's coefficients, computed once; the table's keys are the
        # ladder that apply_frequency checks a command against. beta falls as
        # phi rises (see _freq_coefficients), also in floats, as each
        # operation rounds monotonically: the top level runs away first, so
        # computing it first makes a runaway error name it.
        self._level_parts = {level: _freq_coefficients(params, level)
                             for level in reversed(omega.levels)}
        self.freq = u0
        self._freq_part = self._level_parts[u0]
        self.temp = params.t_amb
        self.energy_acc = 0.0
        self.counter_joules = 0.0
        if counter_phase_ms is None:
            self._phase_us = random.Random(seed).randrange(_GRID_US)
        else:
            if not 0.0 <= counter_phase_ms < 1.0:
                raise ValueError("counter_phase_ms must be in [0, 1)")
            # A phase that rounds up to a whole grid period is phase 0.
            self._phase_us = int(round(counter_phase_ms * 1000.0)) % _GRID_US
        self._clock_us = 0
        self._retune(0)

    # -- contract surface -------------------------------------------------

    @property
    def counter_phase_ms(self) -> float:
        return self._phase_us / 1000.0

    def apply_frequency(self, phi: float) -> None:
        """Command a frequency; it takes effect from the next `advance`."""
        # The running level was checked when it was applied, and a level is
        # looked up. Anything else is checked, then looked up: the type test
        # sends an int and True (== 1.0) on to the check, NaN equals no level,
        # and an int level hashes as its float.
        if type(phi) is float:
            if phi == self.freq:
                return
            part = self._level_parts.get(phi)
        else:
            part = None
        if part is None:
            check_frequency(phi, self._level_parts)
            part = self._level_parts[phi]
        self.freq = phi
        self._freq_part = part
        self._retune()

    def read_energy(self) -> float:
        """Energy counter value: last grid-aligned snapshot, joules."""
        return self.counter_joules

    def advance(self, dt_ms: float) -> None:
        """Advance simulated time by dt_ms milliseconds."""
        # Checked in us, so a dt_ms whose us overflow to inf is refused too.
        dt_us = dt_ms * 1000.0
        if not (isfinite(dt_us) and dt_us > 0.0):
            raise ValueError("dt_ms must be positive and finite")
        dt_us = round(dt_us)  # an int: round of one float
        if dt_us < 1:
            raise ValueError("dt_ms must be at least 1 microsecond")
        clock, temp, energy = self._clock_us, self.temp, self.energy_acc
        end_us = clock + dt_us
        # The last grid instant at or before end_us; earlier ones are
        # overwritten before anyone can read them.
        snap_us = end_us - (end_us - self._phase_us) % _GRID_US
        t_amb, tau, event_us = self._t_amb, self._tau, self._next_alpha_us
        q, x_inf, g_tau, beta, nbeta = self._step
        while clock < end_us:
            stop_us = snap_us if clock < snap_us else end_us
            seg_us = event_us if event_us < stop_us else stop_us
            t_ms = (seg_us - clock) * 1e-3
            dx = (x_inf - (temp - t_amb)) * -expm1(nbeta * t_ms / tau)
            # kappa >= 0 and temp >= t_amb keep power >= q > 0: no clamp needed.
            # Energy from tau*dx = r_th*E - integral(x dt), in mJ, then J.
            energy += (q * t_ms - g_tau * dx) / beta * 1e-3
            temp += dx
            clock = seg_us
            if clock == snap_us:
                self.counter_joules = energy
            if clock == event_us:
                event_us = self._retune(clock)
                q, x_inf, g_tau, beta, nbeta = self._step
        self._clock_us, self.temp, self.energy_acc = clock, temp, energy

    # -- internals ---------------------------------------------------------

    def _retune(self, now: int | None = None) -> int:
        """Recompute the step coefficients (q, x_inf, g*tau, beta, -beta) and
        return the time of alpha's next change, us.

        At an activity event, at time now (us), alpha is sampled first and its
        next change scheduled after. A frequency change passes no time: alpha
        and the schedule stay. Both share this method so that q is written
        once and an event makes one call.
        """
        if now is not None:
            t_ms, profile = now / 1000.0, self.profile
            self.alpha = profile.sample_alpha(t_ms)
        v, sv, g_tau, beta, nbeta = self._freq_part
        q = self.alpha * self._cap * v * v * self.freq + sv
        self._step = q, self._r_th * q / beta, g_tau, beta, nbeta
        if now is None:
            return self._next_alpha_us
        # Up to the next whole us, and at least 1 us on; inf stays inf.
        nxt = profile.next_change_ms(t_ms) * 1000.0
        nxt_us = ceil(nxt) if nxt < inf else nxt
        self._next_alpha_us = nxt_us = nxt_us if nxt_us > now else now + 1
        return nxt_us
