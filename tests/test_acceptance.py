"""Acceptance gate: each test checks one release criterion at its stated
tolerance and prints a PASS/FAIL line (visible under pytest -s)."""

import math
import random
import statistics
import time
from typing import NamedTuple

import numpy as np
import pytest

from powerreg.controller import IntegralController
from powerreg.freqset import DEFAULT_LEVELS, DEFAULT_OMEGA
from powerreg.harness import (
    ExperimentConfig,
    parse_config,
    run_experiment,
    settling_band,
    settling_time,
    steady_error,
    write_csv,
)
from powerreg.plant import Plant, PlantParams
from powerreg.sysid import RlsEstimator
from powerreg.workload import make_profile
from oracles import (Interval, adjacent_power_gap, batch_cubic_fit, reference_energy,
                     static_share, steady_power, true_cubic_coeffs)

# Static test plant: the default simulated part at alpha=1, kappa=0, whose
# power is exactly cubic in frequency and increasing over the range.
A, B, C, D = true_cubic_coeffs(PlantParams(), alpha=1.0)


def g(u):
    return ((A * u + B) * u + C) * u + D


def dg(u):
    return (3.0 * A * u + 2.0 * B) * u + C


# A frequency range the Newton gates never reach, so no clamp binds.
WIDE = Interval(0.1, 10.0)


def report(name, ok):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_newton_contraction():
    t0 = time.perf_counter()
    ctrl = IntegralController(WIDE, u0=2.0)
    u, err = 2.0, abs(10.0 - g(2.0))
    steps = 0
    ok = True
    while err > 1e-9 and ok:
        u = ctrl.step(10.0, g(u), dg(u))
        new_err = abs(10.0 - g(u))
        ok = new_err < 0.8 * err
        err = new_err
        steps += 1
        if steps > 20:
            ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and err <= 1e-9 and steps <= 20 and elapsed < 1.0
    report(f"newton contraction (theta=0.8, {steps} steps, {elapsed * 1e3:.0f} ms)", ok)


def test_derivative_error_robustness():
    failures = 0
    worst = 0
    for seed in range(100):
        rng = random.Random(seed)
        ctrl = IntegralController(WIDE, u0=2.0)
        u = 2.0
        converged_at = None
        for k in range(1, 61):
            deriv = dg(u) * (1.0 + rng.uniform(-0.5, 0.5))
            u = ctrl.step(10.0, g(u), deriv)
            if abs(10.0 - g(u)) < 1e-6:
                converged_at = k
                break
        if converged_at is None:
            failures += 1
        else:
            worst = max(worst, converged_at)
    ok = failures == 0
    report(f"derivative-error robustness (100 seeds, worst {worst} steps)", ok)


def test_rls_oracle_equivalence():
    phis = [0.8, 1.5, 2.2, 2.9, 3.4]
    ys = [g(p) for p in phis]
    est = RlsEstimator(forgetting=1.0, p0=1e12)
    for phi, y in zip(phis, ys):
        est.update(phi, y)
    expected = batch_cubic_fit(phis, ys)
    rel = np.max(np.abs(np.array(est.coefficients) - expected)) / np.max(np.abs(expected))
    ok = rel <= 1e-8
    report(f"RLS vs batch least squares (rel dev {rel:.2e})", ok)


def test_closed_loop_cubic_recovery():
    cfg = parse_config(
        "plant.kappa=0\nplant.counter_phase=0\nrls.lambda=1.0\nrls.p0=1e12\n"
        "u0=0.8\ntarget_w=9.0\nduration_ms=600")
    trace = run_experiment(cfg)
    rec = trace[49]
    dev = max(abs(rec.coeff_a - A), abs(rec.coeff_b - B),
              abs(rec.coeff_c - C), abs(rec.coeff_d - D))
    ok = dev <= 1e-6
    report(f"closed-loop cubic recovery after 50 cycles (dev {dev:.2e})", ok)


def quantized_steady_band(phase):
    target = 6.8
    cfg = parse_config(
        f"plant.kappa=0\nplant.counter_phase={phase}\ntarget_w={target}\n"
        "duration_ms=4000")
    trace = run_experiment(cfg)

    lo, hi, gap = adjacent_power_gap(PlantParams(kappa=0), 1.0, DEFAULT_LEVELS, target)

    tail = [r.freq_ghz for r in trace[-100:]]
    periodic = all(tail[i] == tail[i + 2] for i in range(len(tail) - 2))
    distinct = sorted(set(tail))
    adjacent = len(distinct) == 1 or (
        len(distinct) == 2
        and DEFAULT_LEVELS.index(distinct[1]) - DEFAULT_LEVELS.index(distinct[0]) == 1
        and set(distinct) <= {lo, hi})
    err = steady_error(trace, target, 2000.0)
    ok = periodic and adjacent and err <= gap / 2.0
    report(
        f"quantized steady band at counter phase {phase} "
        f"(levels {distinct}, err {err:.3f} <= {gap / 2.0:.3f})",
        ok)


def test_quantized_steady_band():
    quantized_steady_band(0)


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP open item 3: the projected law's dead zone holds 2.2 GHz at this "
    "counter phase, 0.481 W off the 6.8 W target against the 0.450 W bound"))
@pytest.mark.parametrize("phase", [0.25, 0.5])
def test_quantized_steady_band_at_other_counter_phases(phase):
    quantized_steady_band(phase)


class StepProfile(NamedTuple):
    """A test-only workload: activity alpha0 before step_ms and alpha1 from
    then on. It has the two methods the plant calls and the kind a run
    summary names, and is used as an ExperimentConfig's workload."""

    alpha0: float
    alpha1: float
    step_ms: float
    kind: str = "step"

    def sample_alpha(self, t_ms):
        return self.alpha0 if t_ms < self.step_ms else self.alpha1

    def next_change_ms(self, t_ms):
        return self.step_ms if t_ms < self.step_ms else math.inf


def item2(why, raises=AssertionError):
    return pytest.mark.xfail(strict=True, raises=raises, reason=(
        f"ROADMAP open item 2, bound the estimator's covariance: {why}"))


DEGENERATE = item2("the run raises 'RLS covariance is degenerate'", ValueError)


@pytest.mark.parametrize("cycle_ms, alpha0, alpha1, step_ms", [
    pytest.param(1, 0.75, 1.0, 2000.0, marks=item2("power never re-settles")),
    pytest.param(1, 1.0, 0.75, 2000.0, marks=item2("power re-settles in 754 ms")),
    pytest.param(1, 0.75, 1.0, 60000.0, marks=DEGENERATE),
    pytest.param(1, 1.0, 0.75, 60000.0, marks=DEGENERATE),
    pytest.param(10, 0.75, 1.0, 2000.0, marks=item2("power re-settles in 1610 ms")),
    (10, 0.75, 1.0, 60000.0),
    (10, 1.0, 0.75, 2000.0),
    (10, 1.0, 0.75, 60000.0),
])
def test_resettles_after_activity_step(cycle_ms, alpha0, alpha1, step_ms):
    # From 100 ms after the step to 4 s after it, every cycle's power is in
    # the settling band.
    config = ExperimentConfig(cycle_ms=cycle_ms, duration_ms=step_ms + 4000.0,
                              workload=StepProfile(alpha0, alpha1, step_ms))
    trace = run_experiment(config)
    lo, hi = settling_band(config.target_w, config.settle_band_frac)
    outside = [t_ms for t_ms, power in zip(trace.column("t_ms"), trace.column("power_w"))
               if t_ms >= step_ms + 100.0 and not lo <= power <= hi]
    report(f"re-settling after alpha {alpha0} -> {alpha1} at {step_ms:.0f} ms, "
           f"{cycle_ms} ms cycles ({len(outside)} cycles out of band after 100 ms)",
           not outside)


def test_metric_reproduction_on_shaped_trace():
    from test_harness import synthetic_trace

    powers = [6.0] * 72 + [10.2604] * 328
    trace = synthetic_trace(powers, cycle_ms=10, target_w=10.0)
    settled = settling_time(trace, 10.0, 0.05)
    err = steady_error(trace, 10.0, 720.0)
    ok = settled == 720.0 and err == pytest.approx(0.2604, abs=1e-12)
    report(f"metric reproduction (settling {settled} ms, error {err:.4f} W)", ok)


def test_ordinal_workload_behavior():
    settles = {"compute_bound": [], "memory_bound": []}
    variances = {"compute_bound": [], "memory_bound": [], "graph_irregular": []}
    for kind in variances:
        for seed in range(1, 21):
            cfg = parse_config(f"workload.kind={kind}\nseed={seed}")
            trace = run_experiment(cfg)
            variances[kind].append(
                statistics.pvariance([r.power_w for r in trace]))
            if kind in settles:
                s = settling_time(trace, cfg.target_w, cfg.settle_band_frac)
                settles[kind].append(s if s is not None else float("inf"))
    med_settle = {k: statistics.median(v) for k, v in settles.items()}
    med_var = {k: statistics.median(v) for k, v in variances.items()}
    ok = (med_settle["memory_bound"] > med_settle["compute_bound"]
          and med_var["graph_irregular"] > med_var["memory_bound"]
          > med_var["compute_bound"])
    report(
        "ordinal workload behavior (settling "
        f"mem {med_settle['memory_bound']:.0f} > comp {med_settle['compute_bound']:.0f} ms; "
        f"variance {med_var['graph_irregular']:.2f} > {med_var['memory_bound']:.2f} "
        f"> {med_var['compute_bound']:.2f} W^2)",
        ok)


def test_static_power_share():
    # Total power from the energy counter over whole grid periods; leakage is
    # what it holds above the dynamic power, the fixed point without leakage.
    params = PlantParams()
    plant = Plant(params, make_profile("constant", seed=1), u0=2.0,
                  omega=DEFAULT_OMEGA, counter_phase_ms=0.0)
    plant.advance(4000.0)  # 20 thermal time constants
    start = plant.read_energy()
    plant.advance(1000.0)
    p_total = plant.read_energy() - start  # joules over 1 s
    share = 1.0 - steady_power(params._replace(sigma=0.0), plant.alpha, 2.0) / p_total
    ref_share = static_share(params, plant.alpha, 2.0)
    ok = (0.20 <= share <= 0.30
          and share == pytest.approx(ref_share, rel=1e-6)
          and p_total == pytest.approx(steady_power(params, plant.alpha, 2.0), rel=1e-6))
    report(f"static power share at 2.0 GHz steady state ({share:.4f}, "
           f"reference {ref_share:.4f})", ok)


def test_energy_conservation():
    params = PlantParams()
    profile = make_profile("memory_bound", seed=11)
    plant = Plant(params, profile, u0=2.0, omega=DEFAULT_OMEGA, seed=3)
    rng = random.Random(7)
    schedule = [(0.0, 2.0)]
    for k in range(1, 400):
        schedule.append((k * 10.0, rng.choice(DEFAULT_LEVELS)))
    for k in range(1, 400):
        plant.advance(10.0)
        plant.apply_frequency(schedule[k][1])
    plant.advance(10.0)
    ref = reference_energy(params, profile, schedule, 4000.0, dt_ms=0.01)
    rel = abs(plant.energy_acc - ref) / ref
    ok = rel <= 1e-3
    report(f"energy conservation over 4000 ms (rel dev {rel:.2e})", ok)


def test_csv_determinism(tmp_path):
    text = "workload.kind=graph_irregular\nseed=42"
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(run_experiment(parse_config(text)), str(a))
    write_csv(run_experiment(parse_config(text)), str(b))
    ok = a.read_bytes() == b.read_bytes()
    report("byte-identical CSV for identical config and seed", ok)


def test_runtime_performance():
    cfg = parse_config("workload.kind=memory_bound\nduration_ms=4000\ncycle_ms=10")
    t0 = time.perf_counter()
    trace = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0 and len(trace) == 400
    report(f"4000 ms experiment runtime ({elapsed * 1e3:.0f} ms)", ok)
