"""Measurement and checks for one benchmark run; see run.py for the metrics.

Every timing is taken in units (one experiment, one chunk of a replay pass,
one probe, one traced repetition), each bracketed by the calibration kernel
and scaled to the reference host speed (calibrate.py says why). Experiments
and replays are interleaved so that both sample the whole window, and each
metric is the median over its scaled samples; the decision percentiles are
taken over each decision's median across the replay passes.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import decisions
import layers
from calibrate import Calibrated
from powerreg import (
    Plant,
    config_from_pairs,
    make_profile,
    run_experiment,
    settling_time,
    steady_error,
    write_csv,
)
from powerreg.oracles import reference_energy
from workloads import config_pairs

HERE = Path(__file__).resolve().parent

PROBES = 5                 # fresh-interpreter set-up samples per run
REPLAY_SHARE = 0.3         # replay time per unit of experiment time
MIN_SAMPLES = 3            # timed experiments, traced repetitions
MIN_PASSES = 5             # replay passes, for each decision's median
ENERGY_PREFIX_MS = 200.0   # simulated prefix checked against the quadrature
ENERGY_REL_TOL = 1e-3
SELF_TIME_TOL = 0.10       # layer self times must add up to host time within this


class RunFailed(Exception):
    """Nothing more can be measured in this run: the program raised."""


def sha256_file(path: Path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4g} median={q2:.4g} q3={q3:.4g}"


class Bench:
    """One benchmark invocation: a workload, a seed, a window, a scratch dir."""

    def __init__(self, name: str, seed: int, seconds: float, src: Path, tmp: Path):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.src = src
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, dict[str, float | str]] = {}

    # -- reporting --------------------------------------------------------------

    def report(self, name: str, value: float, unit: str, note: str = "",
               keep: bool = True) -> None:
        print(f"  {name:<30} {value:>14.6g} {unit:<10} {note}".rstrip())
        if keep:
            self.metrics[name] = {"value": value, "unit": unit}

    def check(self, name: str, ok: bool, detail: str) -> None:
        print(f"  check {name:<24} {'ok' if ok else 'FAIL'}  {detail}")
        if not ok:
            self.problems.append(name)

    def pairs(self, csv_name: str) -> dict[str, str]:
        return config_pairs(self.name, self.seed, str(self.tmp / csv_name))

    def attempt(self, fn, *args):
        """Call fn, counting the attempt; a raise counts as a failed run."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # a run that raises is a measured failure
            self.failed += 1
            print(f"  run failed: {type(exc).__name__}: {exc}")
            return None

    def repeat(self, fn, *args):
        """Call fn again on an input that has already run once without raising."""
        result = self.attempt(fn, *args)
        if result is None:
            raise RunFailed(f"seed {self.seed}: a repeated run raised; not reproducible")
        return result

    def timed_run(self) -> float:
        """Host us per simulated ms of run_experiment plus write_csv."""
        # A fresh config each time: its workload profile caches its draws.
        config = config_from_pairs(self.pairs("timed.csv"))
        t0 = time.perf_counter()
        write_csv(self.repeat(run_experiment, config), config.out_path)
        return (time.perf_counter() - t0) * 1e6 / config.duration_ms

    # -- checks -----------------------------------------------------------------

    def reference(self):
        """The --seed experiment as `powerreg run --out` runs it, untimed.

        It also warms the interpreter before anything is timed.
        """
        config = config_from_pairs(self.pairs("reference.csv"))
        trace = self.attempt(run_experiment, config)
        if trace is None:
            # Every experiment of the run uses this seed, so none could be timed.
            self.report("failed_frac", 1.0, "frac", "the seed's experiment raised", keep=False)
            raise RunFailed(f"seed {self.seed}: run_experiment raised; nothing to measure")
        write_csv(trace, config.out_path)
        digest = sha256_file(Path(config.out_path))
        print(f"  trace_sha256 {digest}")
        return config, trace, digest

    def check_outputs(self, config, trace, digest: str) -> None:
        traced = self.attempt(layers.traced_experiment, self.pairs("traced.csv"))
        self.check("traced_records", traced is not None and traced[0] == trace,
                   "run_experiment under the timing proxies returns the same records"
                   if traced is not None else "run_experiment under the timing proxies raised")
        if traced is not None:
            self.check("traced_csv_sha256", sha256_file(self.tmp / "traced.csv") == digest,
                       "the traced run's CSV is byte-identical")

        mismatches, self.trace_p_log10_max = decisions.check_replay(config, trace)
        self.check("decision_replay", mismatches == 0,
                   f"{mismatches} of {len(trace) - 1} next frequencies differ")

        self.energy_rel_err, prefix_ms = self.plant_energy_error(config, trace)
        self.check("plant_energy", self.energy_rel_err <= ENERGY_REL_TOL,
                   f"rel err {self.energy_rel_err:.3g} against reference_energy over "
                   f"{prefix_ms:.0f} ms (tol {ENERGY_REL_TOL:g})")

        settled = settling_time(trace, config.target_w, config.settle_band_frac)
        self.check("settles", settled is not None,
                   "measured power enters the settling band")
        self.settling_ms = math.nan if settled is None else settled
        self.steady_error_w = (math.nan if settled is None
                               else steady_error(trace, config.target_w, settled))

    def plant_energy_error(self, config, trace) -> tuple[float, float]:
        """Relative gap between Plant.energy_acc and the quadrature oracle.

        The plant is driven open loop through the first cycles of the trace's
        frequency schedule; the oracle integrates the same schedule on its own
        copy of the workload profile.
        """
        cycle = config.cycle_ms
        n = min(len(trace), math.ceil(ENERGY_PREFIX_MS / cycle))
        schedule = [(float(k * cycle), trace[k].freq_ghz) for k in range(n)]
        kind = config.workload.kind
        plant = Plant(config.plant, make_profile(kind, seed=config.seed),
                      u0=trace[0].freq_ghz, omega=config.frequency_set(),
                      seed=config.seed, counter_phase_ms=config.counter_phase_ms)
        for _, freq in schedule:
            plant.apply_frequency(freq)
            plant.advance(cycle)
        ref = reference_energy(config.plant, make_profile(kind, seed=config.seed),
                               schedule, n * cycle)
        return abs(plant.energy_acc - ref) / ref, n * cycle

    # -- trace 0: end to end ------------------------------------------------------

    def probe(self, index: int, digest: str) -> dict | None:
        self.attempted += 1
        pairs = self.pairs(f"probe{index}.csv")
        out = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), str(self.src),
             *(f"{key}={value}" for key, value in pairs.items())],
            capture_output=True, text=True, timeout=120)
        if out.returncode != 0:
            self.failed += 1
            print(f"  probe failed: {out.stderr.strip()[-300:]}")
            return None
        result = json.loads(out.stdout.splitlines()[-1])
        self.check(f"probe{index}_csv_sha256", result["sha256"] == digest,
                   "a fresh process wrote the same CSV")
        return result

    def end_to_end(self) -> None:
        config, trace, digest = self.reference()
        self.check_outputs(config, trace, digest)
        freqs = [rec.freq_ghz for rec in trace]
        powers = [rec.power_w for rec in trace]

        # --seconds of experiments and replays; the probes come on top, spread
        # evenly over the window.
        cal = Calibrated()
        raw_host, host, setup, rss = [], [], [], []
        passes = []  # scaled host us of each decision, one list per replay pass

        def close_chunk(samples: list[int]) -> None:
            factor = cal.close_unit() * 1e-3
            passes[-1].extend(t * factor for t in samples)

        probes = 0
        spent = 0.0
        while (spent < self.seconds or probes < PROBES or len(host) < MIN_SAMPLES
               or len(passes) < MIN_PASSES):
            if probes < PROBES and spent >= probes * self.seconds / PROBES:
                probe = self.probe(probes, digest)
                probes += 1
                factor = cal.close_unit()
                if probe is not None:
                    setup.append(probe["setup_s"] * factor)
                    rss.append(probe["peak_rss_mb"])
            t0 = time.perf_counter()
            cost = self.timed_run()
            factor = cal.close_unit()
            raw_host.append(cost)
            host.append(cost * factor)
            t1 = time.perf_counter()
            replay_until = t1 + REPLAY_SHARE * (t1 - t0)
            while True:
                passes.append([])
                decisions.timed_replay(config, freqs, powers, close_chunk)
                if time.perf_counter() >= replay_until:
                    break
            spent += time.perf_counter() - t0
        if not setup:
            raise RunFailed("every set-up probe failed")

        # Each decision's median over the passes: host interruptions land on
        # different decisions in each pass and drop out, while the decisions
        # that are dear in themselves keep their cost.
        profile = np.median(np.array(passes), axis=0)
        percentiles = statistics.quantiles(profile, n=100)
        note = f"over {len(freqs)} decisions, each the median of {len(passes)} passes"
        self.report("host_us_per_sim_ms", statistics.median(host), "us/sim_ms",
                    f"median of {spread(host)}")
        self.report("decision_us_p50", float(np.median(profile)), "us", note)
        self.report("decision_us_p99", percentiles[98], "us", note)
        self.report("setup_s", statistics.median(setup), "s", f"median of {spread(setup)}")
        self.report("peak_rss_mb", statistics.median(rss), "MB", f"median of {spread(rss)}")
        # Exact for a fixed seed, and spread across seeds by more than any
        # regression bound allows: printed here, and pinned by the digest.
        self.report("steady_error_w", self.steady_error_w, "W",
                    f"seed {self.seed}", keep=False)
        self.report("settling_ms", self.settling_ms, "sim_ms",
                    f"seed {self.seed}", keep=False)
        self.report("failed_frac", self.failed / self.attempted, "frac",
                    f"{self.failed} of {self.attempted} runs raised", keep=False)
        self.report("raw_host_us_per_sim_ms", statistics.median(raw_host), "us/sim_ms",
                    f"unscaled, median of {spread(raw_host)}", keep=False)
        self.report("speed_scale", statistics.median(cal.factors), "ratio",
                    f"reference over measured kernel time, {spread(cal.factors)}",
                    keep=False)

    # -- trace 1: per layer ---------------------------------------------------------

    def per_layer(self) -> None:
        config, trace, digest = self.reference()
        self.check_outputs(config, trace, digest)

        cal = Calibrated()
        untraced, traced = [], []  # traced: (host us, loop + CSV us, totals)
        deadline = time.perf_counter() + self.seconds
        while time.perf_counter() < deadline or len(traced) < MIN_SAMPLES:
            untraced.append(self.timed_run() * cal.close_unit())
            _, totals, host_us, loop_csv_us = self.repeat(
                layers.traced_experiment, self.pairs("traced.csv"))
            f = cal.close_unit()
            traced.append((host_us * f, loop_csv_us * f,
                           {key: value * f if key.endswith("_us") else value
                            for key, value in totals.items()}))

        # The traced repetition of median host time, whole, so that its self
        # times stay coherent with each other.
        traced.sort(key=lambda t: t[0])
        host_us, _, mid = traced[len(traced) // 2]
        for key, value in mid.items():
            self.report(key, value, "us" if key.endswith("_us") else "count")
        self.report("sysid.trace_p_log10_max", self.trace_p_log10_max, "log10",
                    "max over cycles of log10 trace(P)")
        self.report("plant.energy_rel_err", self.energy_rel_err, "ratio")

        traced_cost = statistics.median(t[1] for t in traced) / config.duration_ms
        untraced_cost = statistics.median(untraced)
        overhead = traced_cost - untraced_cost
        self.report("harness.tracing_overhead_us", overhead, "us/sim_ms",
                    f"median traced {traced_cost:.4g} minus untraced "
                    f"{untraced_cost:.4g} us/sim_ms, {len(traced)} pairs")
        self.report("harness.tracing_overhead_frac", overhead / untraced_cost, "frac",
                    "the same, as a share of the untraced figure")
        # harness.loop_self_us is the rest of the run_experiment span, so the
        # self times add up exactly unless spans overlap; an overlap, a child
        # span counted in its parent's self time too, drives a self time below
        # zero. The named module spans' own share is printed as well.
        named = sum(mid[key] for key in layers.NAMED_SELF_KEYS)
        total = named + mid["harness.loop_self_us"]
        self.report("harness.named_self_frac", named / host_us, "frac",
                    "share of the traced host time the module spans cover; the "
                    "rest is harness.loop_self_us")
        self.check("self_time_sum", abs(total / host_us - 1.0) <= SELF_TIME_TOL,
                   f"layer self times add up to {total / host_us:.4f} of the traced "
                   f"host time {host_us:.0f} us (tol {SELF_TIME_TOL})")
        negative = [key for key, value in mid.items() if value < 0]
        self.check("self_times_nonnegative", not negative,
                   f"negative self times: {', '.join(negative) or 'none'}")
        self.report("harness.settling_ms", self.settling_ms, "sim_ms", f"seed {self.seed}")
        self.report("harness.steady_error_w", self.steady_error_w, "W", f"seed {self.seed}")
