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

Time is tracked in integer microseconds. Between events (activity switches
and pending frequency changes) alpha and phi are constant, so the thermal
ODE is linear and temperature and energy are advanced in one exact
closed-form step per event. The step's coefficients depend only on the
operating point (phi, alpha), so they are cached and recomputed only when
phi or alpha differs from the values they were computed for. A read sees
only the last grid instant at or before the end of an advance, so that is
the one instant at which the counter is snapshotted. The class implements the same apply/advance/read
seam a hardware driver would.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .freqset import FrequencyRange, FrequencySet, check_frequency
from .workload import WorkloadProfile

# Energy counter grid period, microseconds.
_GRID_US = 1000

_RUNAWAY = "thermal runaway: leakage feedback gain >= 1"


@dataclass(frozen=True)
class PlantParams:
    """Physical parameters of the simulated processor.

    cap: effective switched capacitance, scaled so alpha*cap*V^2*phi is watts
      with V in volts and phi in GHz.
    v0, m: affine voltage law V = v0 + m*phi (volts, volts/GHz).
    sigma: leakage scale (watts per volt).
    kappa: leakage temperature sensitivity (1/degC).
    t_amb: ambient temperature (degC).
    r_th: thermal resistance (degC per watt).
    tau_th: thermal time constant (ms).
    latency_ms: actuation delay between a frequency command and its effect.
    """

    cap: float = 2.0
    v0: float = 0.6
    m: float = 0.2
    sigma: float = 1.5
    kappa: float = 0.005
    t_amb: float = 40.0
    r_th: float = 2.0
    tau_th: float = 200.0
    latency_ms: float = 0.0

    def __post_init__(self) -> None:
        checks = [
            (self.cap > 0.0, "cap must be > 0"),
            (self.v0 > 0.0, "v0 must be > 0"),
            (self.m >= 0.0, "m must be >= 0"),
            (self.sigma >= 0.0, "sigma must be >= 0"),
            (self.kappa >= 0.0, "kappa must be >= 0"),
            (self.tau_th > 0.0, "tau_th must be > 0"),
            (self.r_th >= 0.0, "r_th must be >= 0"),
            (0.0 <= self.latency_ms <= 5.0, "latency_ms must be in [0, 5]"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ValueError(msg)
        for name in ("cap", "v0", "m", "sigma", "kappa", "t_amb", "r_th",
                     "tau_th", "latency_ms"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    def voltage(self, phi: float) -> float:
        """Supply voltage at frequency phi (GHz)."""
        if not phi > 0.0:
            raise ValueError("frequency must be positive")
        return self.v0 + self.m * phi

    def dynamic_power(self, alpha: float, phi: float) -> float:
        """Switching power alpha*cap*V(phi)^2*phi, watts."""
        if not alpha > 0.0:
            raise ValueError("activity factor must be positive")
        v = self.voltage(phi)
        return alpha * self.cap * v * v * phi


class Plant:
    """Simulated processor with an energy counter and a thermal state.

    Owned by a single experiment loop. A frequency set or range may be
    supplied to enforce legal operating points; omit it to accept any
    positive frequency.
    """

    def __init__(
        self,
        params: PlantParams,
        profile: WorkloadProfile,
        u0: float,
        omega: FrequencySet | FrequencyRange | None = None,
        seed: int = 0,
        counter_phase_ms: float | None = None,
    ):
        self.params = params
        self.profile = profile
        self.omega = omega
        check_frequency(u0, omega)
        if omega is not None:
            # beta falls as phi rises (see _integrate_to), so the top level
            # is the first to run away.
            top = omega.max_level
            if 1.0 - params.r_th * params.sigma * params.voltage(top) * params.kappa <= 0.0:
                raise ValueError(f"{_RUNAWAY} at {top} GHz")
        self.freq = u0
        self.alpha = profile.sample_alpha(0.0)
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
        # The operating point of the last integration and its step
        # coefficients: (freq, alpha, q, g*tau, beta, -beta, r_th*q/beta).
        # No operating point matches (None, None), so the first integration
        # computes them.
        self._op: tuple = (None, None)
        self._pending: list[tuple[int, float]] = []
        self._next_alpha_us = self._alpha_change_after(0)

    # -- contract surface -------------------------------------------------

    @property
    def clock_ms(self) -> float:
        return self._clock_us / 1000.0

    @property
    def counter_phase_ms(self) -> float:
        return self._phase_us / 1000.0

    def static_power(self) -> float:
        """Leakage power at the current operating point and temperature."""
        v = self.params.voltage(self.freq)
        return self.params.sigma * v * (
            1.0 + self.params.kappa * (self.temp - self.params.t_amb))

    def apply_frequency(self, phi: float) -> None:
        """Command a frequency; takes effect after the configured latency."""
        check_frequency(phi, self.omega)
        if self.params.latency_ms <= 0.0:
            self.freq = phi
        else:
            due = self._clock_us + int(round(self.params.latency_ms * 1000.0))
            self._pending.append((due, phi))

    def read_energy(self) -> float:
        """Energy counter value: last grid-aligned snapshot, joules."""
        return self.counter_joules

    def advance(self, dt_ms: float) -> None:
        """Advance simulated time by dt_ms milliseconds."""
        if not (math.isfinite(dt_ms) and dt_ms > 0.0):
            raise ValueError("dt_ms must be positive and finite")
        dt_us = int(round(dt_ms * 1000.0))
        if dt_us < 1:
            raise ValueError("dt_ms must be at least 1 microsecond")
        end_us = self._clock_us + dt_us
        # The last grid instant at or before end_us; earlier ones are
        # overwritten before anyone can read them.
        snap_us = end_us - (end_us - self._phase_us) % _GRID_US
        if snap_us > self._clock_us:
            self._run_to(snap_us)
            self.counter_joules = self.energy_acc
        self._run_to(end_us)

    # -- internals ---------------------------------------------------------

    def _alpha_change_after(self, clock_us: int) -> float:
        nxt_ms = self.profile.next_change_ms(clock_us / 1000.0)
        if math.isinf(nxt_ms):
            return math.inf
        return max(math.ceil(nxt_ms * 1000.0), clock_us + 1)

    def _run_to(self, end_us: int) -> None:
        while self._clock_us < end_us:
            due_us = self._pending[0][0] if self._pending else math.inf
            self._integrate_to(min(end_us, self._next_alpha_us, due_us))
            self._fire_events()

    def _integrate_to(self, event_us: int) -> None:
        p = self.params
        freq, alpha = self.freq, self.alpha
        op = self._op
        if freq == op[0] and alpha == op[1]:
            _, _, q, g_tau, beta, nbeta, x_inf = op
        else:
            # With x = temp - t_amb, power is q + g*x and tau*x' = r_th*q - beta*x.
            v = p.voltage(freq)
            sv = p.sigma * v
            q = alpha * p.cap * v * v * freq + sv
            g = sv * p.kappa
            beta = 1.0 - p.r_th * g
            if beta <= 0.0:
                raise ValueError(_RUNAWAY)
            g_tau, nbeta, x_inf = g * p.tau_th, -beta, p.r_th * q / beta
            self._op = (freq, alpha, q, g_tau, beta, nbeta, x_inf)
        t_ms = (event_us - self._clock_us) * 1e-3
        x = self.temp - p.t_amb
        dx = (x_inf - x) * -math.expm1(nbeta * t_ms / p.tau_th)
        # kappa >= 0 and temp >= t_amb keep power >= q > 0: no clamp needed.
        # Energy from tau*dx = r_th*E - integral(x dt), in mJ, then J.
        self.energy_acc += (q * t_ms - g_tau * dx) / beta * 1e-3
        self.temp += dx
        self._clock_us = event_us

    def _fire_events(self) -> None:
        now = self._clock_us
        if now >= self._next_alpha_us:
            self.alpha = self.profile.sample_alpha(now / 1000.0)
            self._next_alpha_us = self._alpha_change_after(now)
        while self._pending and self._pending[0][0] <= now:
            _, phi = self._pending.pop(0)
            self.freq = phi
