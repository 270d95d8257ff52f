"""Per-layer host time and counts of the real experiment loop.

`traced_experiment` does what `powerreg run --out PATH` does (parse the
config, run the closed loop, write the CSV, compute the printed metrics) and
times each call into a module from here. Nothing inside `src/` is
instrumented and the loop is not copied: for the one call to
`harness.run_experiment`, the names that function looks up in its module are
replaced by timing proxies, and restored afterwards:

- `Plant` builds the real plant behind a proxy that times `advance`,
  `read_energy` and `apply_frequency`; the workload profile handed to the
  plant is itself a proxy, so `workload` time is taken out of `advance`;
- `RlsEstimator` builds the real estimator behind a proxy that times
  `update`; `CubicModel.derivative`, which the loop calls on the model
  `update` returns, is swapped for a timed wrapper;
- `IntegralController` builds the real controller with a frequency-set
  proxy, so `freqset` time is taken out of `step`;
- `gain` and `tracking_error` (the harness's own second call) and
  `TraceRecord` are timed wrappers of the real ones.

A layer's self time is its span minus its child spans. `harness.loop_self_us`
is what no named span covers: the loop's own bookkeeping (power from the
counter delta, evaluating the trace record's fields, loop counters), object
construction, and the proxies' own call overhead.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter_ns

from powerreg import (
    CubicModel,
    IntegralController,
    Plant,
    RlsEstimator,
    TraceRecord,
    config_from_pairs,
    gain,
    harness,
    mean_frequency,
    run_experiment,
    settling_time,
    steady_error,
    tracking_error,
    write_csv,
)

_derivative = CubicModel.derivative


class TimedProfile:
    """Workload profile proxy that times `sample_alpha` and `next_change_ms`."""

    def __init__(self, profile):
        self._sample = profile.sample_alpha
        self._next = profile.next_change_ms
        self.sample_ns = self.sample_calls = 0
        self.next_ns = self.next_calls = 0

    @property
    def total_ns(self) -> int:
        return self.sample_ns + self.next_ns

    def sample_alpha(self, t_ms: float) -> float:
        t0 = perf_counter_ns()
        alpha = self._sample(t_ms)
        self.sample_ns += perf_counter_ns() - t0
        self.sample_calls += 1
        return alpha

    def next_change_ms(self, t_ms: float) -> float:
        t0 = perf_counter_ns()
        nxt = self._next(t_ms)
        self.next_ns += perf_counter_ns() - t0
        self.next_calls += 1
        return nxt


class TimedFrequencySet:
    """Frequency-set proxy that times `project`; membership is passed through."""

    def __init__(self, omega):
        self._omega = omega
        self._project = omega.project
        self.project_ns = self.project_calls = 0

    def __contains__(self, value: float) -> bool:
        return value in self._omega

    def project(self, u: float) -> float:
        t0 = perf_counter_ns()
        level = self._project(u)
        self.project_ns += perf_counter_ns() - t0
        self.project_calls += 1
        return level


class TimedPlant:
    """Plant proxy; `advance_ns` includes the workload calls made inside it."""

    def __init__(self, params, profile, *args, **kwargs):
        self.timed_profile = TimedProfile(profile)
        self._plant = Plant(params, self.timed_profile, *args, **kwargs)
        self._advance = self._plant.advance
        self._read = self._plant.read_energy
        self._apply = self._plant.apply_frequency
        self._freq = self._plant.freq
        # Workload calls made while the plant was built, not inside advance.
        self.profile_ns_at_start = self.timed_profile.total_ns
        self.advance_ns = self.advance_calls = self.read_ns = 0
        self.apply_ns = self.freq_changes = 0

    def __getattr__(self, name: str):
        return getattr(self._plant, name)

    def advance(self, dt_ms: float) -> None:
        t0 = perf_counter_ns()
        self._advance(dt_ms)
        self.advance_ns += perf_counter_ns() - t0
        self.advance_calls += 1

    def read_energy(self) -> float:
        t0 = perf_counter_ns()
        energy = self._read()
        self.read_ns += perf_counter_ns() - t0
        return energy

    def apply_frequency(self, phi: float) -> None:
        t0 = perf_counter_ns()
        self._apply(phi)
        self.apply_ns += perf_counter_ns() - t0
        self.freq_changes += phi != self._freq
        self._freq = phi


class TimedEstimator:
    """Estimator proxy that times `update`."""

    def __init__(self, *args, **kwargs):
        self._estimator = RlsEstimator(*args, **kwargs)
        self._update = self._estimator.update
        self.update_ns = self.update_calls = 0

    def __getattr__(self, name: str):
        return getattr(self._estimator, name)

    def update(self, u: float, y: float) -> CubicModel:
        t0 = perf_counter_ns()
        model = self._update(u, y)
        self.update_ns += perf_counter_ns() - t0
        self.update_calls += 1
        return model


class TimedController:
    """Controller proxy; `step_ns` includes the frequency set's `project`."""

    def __init__(self, omega, *args, **kwargs):
        self.timed_omega = TimedFrequencySet(omega) if omega is not None else None
        self._controller = IntegralController(self.timed_omega, *args, **kwargs)
        self._step = self._controller.step
        self._floor = self._controller.deriv_floor
        self.step_ns = self.floor_hits = 0

    def __getattr__(self, name: str):
        return getattr(self._controller, name)

    def step(self, target: float, y_prev: float, deriv_estimate: float) -> float:
        t0 = perf_counter_ns()
        u = self._step(target, y_prev, deriv_estimate)
        self.step_ns += perf_counter_ns() - t0
        self.floor_hits += deriv_estimate < self._floor
        return u


class Tracer:
    """The proxies of one traced `run_experiment` call and their totals."""

    def __init__(self):
        self.plant: TimedPlant | None = None
        self.estimator: TimedEstimator | None = None
        self.controller: TimedController | None = None
        self.gain_ns = self.record_ns = self.derivative_ns = 0

    def _plant(self, *args, **kwargs) -> TimedPlant:
        self.plant = TimedPlant(*args, **kwargs)
        return self.plant

    def _estimator(self, *args, **kwargs) -> TimedEstimator:
        self.estimator = TimedEstimator(*args, **kwargs)
        return self.estimator

    def _controller(self, *args, **kwargs) -> TimedController:
        self.controller = TimedController(*args, **kwargs)
        return self.controller

    def _gain(self, deriv: float, floor: float) -> float:
        t0 = perf_counter_ns()
        value = gain(deriv, floor)
        self.gain_ns += perf_counter_ns() - t0
        return value

    def _tracking_error(self, target: float, measured: float) -> float:
        t0 = perf_counter_ns()
        value = tracking_error(target, measured)
        self.gain_ns += perf_counter_ns() - t0
        return value

    def _record(self, *args, **kwargs) -> TraceRecord:
        t0 = perf_counter_ns()
        record = TraceRecord(*args, **kwargs)
        self.record_ns += perf_counter_ns() - t0
        return record

    @contextmanager
    def installed(self):
        """Swap the proxies in for the duration.

        They replace the names `powerreg.harness` looks up, and
        `CubicModel.derivative`, which the loop reaches through the model
        `update` returns.
        """
        tracer = self

        def derivative(model: CubicModel, phi: float) -> float:
            t0 = perf_counter_ns()
            value = _derivative(model, phi)
            tracer.derivative_ns += perf_counter_ns() - t0
            return value

        CubicModel.derivative = derivative
        proxies = {
            "Plant": self._plant,
            "RlsEstimator": self._estimator,
            "IntegralController": self._controller,
            "gain": self._gain,
            "tracking_error": self._tracking_error,
            "TraceRecord": self._record,
        }
        saved = {name: getattr(harness, name) for name in proxies}
        for name, proxy in proxies.items():
            setattr(harness, name, proxy)
        try:
            yield self
        finally:
            CubicModel.derivative = _derivative
            for name, original in saved.items():
                setattr(harness, name, original)


def traced_experiment(pairs: dict[str, str]) -> tuple[list[TraceRecord], dict, float, float]:
    """Run one experiment with spans at every layer boundary.

    Returns the trace; the per-layer totals of this one experiment, keyed by
    metric name, in microseconds (names ending in `_us`) or counts; the host
    microseconds of the whole traced experiment; and those of its loop plus
    CSV write, which compare with an untraced `run_experiment` plus
    `write_csv`.
    """
    t_start = perf_counter_ns()
    config = config_from_pairs(pairs)
    t_config = perf_counter_ns()
    with Tracer().installed() as tracer:
        t_run = perf_counter_ns()
        trace = run_experiment(config)
        t_loop = perf_counter_ns()
    write_csv(trace, config.out_path)
    t_csv = perf_counter_ns()
    settled = settling_time(trace, config.target_w, config.settle_band_frac)
    if settled is not None:
        steady_error(trace, config.target_w, settled)
    mean_frequency(trace, settled or 0.0)
    t_end = perf_counter_ns()

    plant, estimator, controller = tracer.plant, tracer.estimator, tracer.controller
    profile, omega = plant.timed_profile, controller.timed_omega
    project = omega.project_ns if omega is not None else 0
    step_self = controller.step_ns - project
    advance_self = plant.advance_ns - (profile.total_ns - plant.profile_ns_at_start)
    loop_children = (advance_self + profile.total_ns + plant.read_ns
                     + plant.apply_ns + estimator.update_ns + tracer.derivative_ns
                     + tracer.gain_ns + step_self + project + tracer.record_ns)
    us = 1e-3
    totals = {
        "plant.advance_self_us": advance_self * us,
        "plant.advance_calls": plant.advance_calls,
        "plant.read_energy_us": plant.read_ns * us,
        "plant.apply_frequency_us": plant.apply_ns * us,
        "plant.freq_changes": plant.freq_changes,
        "workload.sample_alpha_us": profile.sample_ns * us,
        "workload.sample_alpha_calls": profile.sample_calls,
        "workload.next_change_us": profile.next_ns * us,
        "workload.next_change_calls": profile.next_calls,
        "sysid.update_us": estimator.update_ns * us,
        "sysid.update_calls": estimator.update_calls,
        "sysid.derivative_us": tracer.derivative_ns * us,
        "controller.step_self_us": step_self * us,
        "controller.gain_us": tracer.gain_ns * us,
        "controller.floor_hits": controller.floor_hits,
        "freqset.project_us": project * us,
        "freqset.project_calls": omega.project_calls if omega is not None else 0,
        "harness.record_us": tracer.record_ns * us,
        "harness.write_csv_us": (t_csv - t_loop) * us,
        "harness.metrics_us": (t_end - t_csv) * us,
        "harness.config_us": (t_config - t_start) * us,
        "harness.loop_self_us": ((t_loop - t_run) - loop_children) * us,
    }
    return trace, totals, (t_end - t_start) * us, (t_csv - t_run) * us


# Self times of the named spans; with harness.loop_self_us they sum to host_us,
# up to the few microseconds spent swapping the proxies in and out. The proxies'
# own call overhead falls in harness.loop_self_us, not in these.
NAMED_SELF_KEYS = (
    "plant.advance_self_us", "plant.read_energy_us", "plant.apply_frequency_us",
    "workload.sample_alpha_us", "workload.next_change_us",
    "sysid.update_us", "sysid.derivative_us",
    "controller.step_self_us", "controller.gain_us", "freqset.project_us",
    "harness.record_us", "harness.write_csv_us", "harness.metrics_us",
    "harness.config_us",
)
