import math
import random
import re

import pytest
from hypothesis import assume, given, settings, strategies as st

from powerreg.freqset import FrequencySet
from powerreg.plant import Plant, PlantParams
from powerreg.sysid import RlsEstimator
from powerreg.workload import make_profile
from oracles import (DEFAULT_OMEGA, first_order_rise, reference_energy, steady_power,
                     true_cubic_coeffs)


def constant_profile(seed=0, alpha=1.0):
    return make_profile("constant", seed=seed, alpha_mean=alpha)


def ten_watt_params(**overrides):
    # alpha*C*V^2*phi = 1*2*1*2 = 4 W dynamic, sigma*V = 6 W static, kappa = 0
    return PlantParams(cap=2.0, v0=1.0, m=0.0, sigma=6.0, kappa=0.0, **overrides)


class TestDynamicPower:
    # sigma=0 removes leakage, so the counter measures the dynamic power alone
    @staticmethod
    def measured_power(params, alpha, phi):
        plant = Plant(params, constant_profile(alpha=alpha), u0=phi,
                      omega=FrequencySet.from_list([phi]), counter_phase_ms=0.0)
        plant.advance(10.0)
        return plant.read_energy() / 10e-3

    def test_linear_in_activity(self):
        p = PlantParams(sigma=0.0)
        assert self.measured_power(p, 1.0, 2.5) == pytest.approx(
            2.0 * self.measured_power(p, 0.5, 2.5))

    def test_cubic_in_frequency(self):
        p = PlantParams(cap=1.7, v0=0.7, m=0.25, sigma=0.0)
        alpha = 0.9
        a, b, c, d = true_cubic_coeffs(p, alpha)
        for phi in (0.8, 1.5, 2.2, 2.9, 3.4):
            poly = ((a * phi + b) * phi + c) * phi + d
            assert self.measured_power(p, alpha, phi) == pytest.approx(poly, rel=1e-12)


class TestStaticPower:
    def test_no_thermal_uplift_at_ambient(self):
        # r_th = 0 holds the plant at ambient: leakage is sigma*V on top of
        # the alpha*C*V^2*phi = 1*2*1*2 = 4 W dynamic power
        params = PlantParams(v0=1.0, m=0.0, sigma=1.5, r_th=0.0)
        plant = Plant(params, constant_profile(), u0=2.0, omega=DEFAULT_OMEGA,
                      counter_phase_ms=0.0)
        plant.advance(10.0)
        assert plant.read_energy() == pytest.approx((4.0 + 1.5) * 10e-3)

    def test_kappa_zero_removes_temperature_dependence(self):
        params = PlantParams(kappa=0.0)
        plant = Plant(params, constant_profile(), u0=2.0, omega=DEFAULT_OMEGA,
                      counter_phase_ms=0.0)
        plant.advance(10.0)
        before = plant.read_energy()
        plant.advance(490.0)  # heats up
        assert plant.temp > params.t_amb
        start = plant.read_energy()
        plant.advance(10.0)
        assert plant.read_energy() - start == pytest.approx(before, rel=1e-12)


class TestApplyFrequency:
    def test_effective_from_next_advance(self):
        params = ten_watt_params()
        plant = Plant(params, constant_profile(), u0=1.0, omega=DEFAULT_OMEGA,
                      counter_phase_ms=0.0)
        plant.apply_frequency(2.0)
        plant.advance(10.0)
        # 10 W at 2.0 GHz for 10 ms
        assert plant.energy_acc == pytest.approx(0.100, rel=1e-9)

    def test_off_ladder_frequency_rejected(self):
        plant = Plant(PlantParams(), constant_profile(), u0=2.0,
                      omega=DEFAULT_OMEGA, counter_phase_ms=0.0)
        # Between two levels, and one ulp above a level: neither is in the
        # plant's table of levels, so check_frequency refuses both.
        for phi in (0.9, math.nextafter(2.2, 3.0)):
            with pytest.raises(ValueError,
                               match=f"^frequency {re.escape(repr(phi))} is not a legal level$"):
                plant.apply_frequency(phi)
        assert plant.freq == 2.0

    def test_int_level_is_accepted_and_runs_as_its_float(self):
        # An int misses the table of float levels and goes through the check,
        # which accepts it; the step it runs is the float level's, bit for bit.
        plants = []
        for level in (1, 1.0):
            plant = Plant(PlantParams(), make_profile("graph_irregular", seed=2),
                          u0=2.0, omega=DEFAULT_OMEGA, seed=2)
            plant.advance(7.0)
            plant.apply_frequency(level)
            plant.advance(13.0)
            plants.append(plant)
        as_int, as_float = plants
        assert as_int.freq == 1.0
        assert (as_int.energy_acc, as_int.temp, as_int.read_energy()) == (
            as_float.energy_acc, as_float.temp, as_float.read_energy())

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(1, 10_000),
           schedule=st.lists(st.tuples(st.integers(1, 15_000),
                                       st.sampled_from(DEFAULT_OMEGA.levels)),
                             min_size=1, max_size=12))
    def test_reapplying_the_running_level_changes_nothing(self, seed, schedule):
        # An unchanged command skips the check and the coefficient update.
        # Advancing over graph_irregular's activity events between level
        # changes covers the updates made at both.
        assume(any(level != 2.0 for _, level in schedule))
        plants = []
        for reapply in (False, True):
            plant = Plant(PlantParams(), make_profile("graph_irregular", seed=seed),
                          u0=2.0, omega=DEFAULT_OMEGA, seed=seed)
            for step_us, level in schedule:
                if reapply:
                    plant.apply_frequency(plant.freq)
                plant.advance(step_us / 1000.0)
                plant.apply_frequency(level)
            plants.append(plant)
        plain, reapplied = plants
        assert reapplied.energy_acc == plain.energy_acc
        assert reapplied.temp == plain.temp
        assert reapplied.read_energy() == plain.read_energy()

    def test_running_level_is_rechecked_for_bool_and_nan(self):
        # True == 1.0, but a bool is not a frequency; NaN equals nothing. At
        # 1.0 True would pass as the running level, at 2.0 as a table hit.
        for u0 in (1.0, 2.0):
            plant = Plant(PlantParams(), constant_profile(), u0=u0,
                          omega=DEFAULT_OMEGA, counter_phase_ms=0.0)
            for bad in (True, math.nan):
                with pytest.raises(ValueError, match="frequency must be positive and finite"):
                    plant.apply_frequency(bad)
            assert plant.freq == u0

    def test_many_level_schedule_energy_matches_quadrature(self):
        # A 90-level ladder, some levels revisited after others: each change
        # looks its level up in the plant's table.
        params = PlantParams()
        rng = random.Random(5)
        freqs = [rng.uniform(0.8, 3.4) for _ in range(90)]
        freqs += rng.sample(freqs, 10)
        omega = FrequencySet.from_list(freqs)
        assert len(omega.levels) == 90
        profile = make_profile("graph_irregular", seed=6)
        plant = Plant(params, profile, u0=freqs[0], omega=omega, seed=2)
        for phi in freqs:
            plant.apply_frequency(phi)
            plant.advance(4.0)
        schedule = [(k * 4.0, phi) for k, phi in enumerate(freqs)]
        ref = reference_energy(params, profile, schedule, 4.0 * len(freqs))
        assert plant.energy_acc == pytest.approx(ref, rel=1e-3)


class TestAdvance:
    def test_energy_is_power_times_time(self):
        plant = Plant(ten_watt_params(), constant_profile(), u0=2.0,
                      omega=DEFAULT_OMEGA, counter_phase_ms=0.0)
        plant.advance(100.0)
        assert plant.energy_acc == pytest.approx(1.0, rel=1e-9)

    def test_no_thermal_resistance_keeps_ambient(self):
        params = PlantParams(r_th=0.0)
        plant = Plant(params, constant_profile(), u0=2.0, omega=DEFAULT_OMEGA,
                      counter_phase_ms=0.0)
        plant.advance(1000.0)
        assert plant.temp == pytest.approx(params.t_amb, abs=1e-12)

    @pytest.mark.parametrize("t_ms, tau_th", [
        (1.0, 200.0), (100.0, 200.0), (700.0, 200.0), (100.0, 100.0),
    ], ids=["1.0", "100.0", "700.0", "one_time_constant"])
    def test_kappa_zero_rise_is_exact(self, t_ms, tau_th):
        # constant 10 W: the closed-form step is exact, not just first-order
        params = ten_watt_params(tau_th=tau_th)
        plant = Plant(params, constant_profile(), u0=2.0, omega=DEFAULT_OMEGA,
                      counter_phase_ms=0.0)
        plant.advance(t_ms)
        expected = first_order_rise(10.0, params.r_th, params.tau_th, t_ms)
        assert plant.temp - params.t_amb == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(1, 10_000),
           warmup_us=st.integers(1, 20_000), total_us=st.integers(1, 20_000),
           cuts=st.lists(st.integers(1, 19_999), max_size=12),
           level=st.sampled_from(DEFAULT_OMEGA.levels))
    def test_split_advance_matches_one_advance(self, seed, warmup_us,
                                               total_us, cuts, level):
        # how an interval is cut into advance calls must not change the state
        bounds = sorted({c for c in cuts if c < total_us} | {0, total_us})
        pieces = [b - a for a, b in zip(bounds, bounds[1:])]
        plants = []
        for steps in ([total_us], pieces):
            plant = Plant(PlantParams(),
                          make_profile("graph_irregular", seed=seed), u0=2.0,
                          omega=DEFAULT_OMEGA, seed=seed)
            plant.advance(warmup_us / 1000.0)
            plant.apply_frequency(level)
            for step_us in steps:
                plant.advance(step_us / 1000.0)
            plants.append(plant)
        one, split = plants
        assert split._clock_us == one._clock_us
        assert split.energy_acc == pytest.approx(one.energy_acc, rel=1e-12)
        assert split.temp == pytest.approx(one.temp, rel=1e-12)
        assert split.read_energy() == pytest.approx(one.read_energy(), rel=1e-12)

    def test_thermal_runaway_raises(self):
        # sigma*V*kappa*r_th = 1.5*1.28*0.3*2 = 1.15 at 3.4 GHz: beta < 0. The
        # top level is checked at construction, whatever the start frequency.
        for u0 in (2.0, 3.4):
            with pytest.raises(ValueError, match=r"thermal runaway.* at 3\.4 GHz$"):
                Plant(PlantParams(kappa=0.3), constant_profile(), u0=u0,
                      omega=DEFAULT_OMEGA, counter_phase_ms=0.0)

    @settings(max_examples=300, deadline=None)
    @given(sigma=st.floats(0.5, 3.0), r_th=st.floats(0.5, 5.0), ulps=st.integers(-4, 4))
    def test_plant_that_passes_construction_does_not_run_away(self, sigma, r_th, ulps):
        # kappa within 4 ulps of the runaway boundary at 3.4 GHz: the
        # construction check must round beta as the step does
        defaults = PlantParams()
        kappa = 1.0 / (r_th * sigma * (defaults.v0 + defaults.m * 3.4))
        params = PlantParams(sigma=sigma, kappa=kappa + ulps * math.ulp(kappa), r_th=r_th)
        try:
            plant = Plant(params, constant_profile(), u0=3.4, omega=DEFAULT_OMEGA,
                          counter_phase_ms=0.0)
        except ValueError as exc:
            assert "thermal runaway" in str(exc)
        else:
            plant.advance(1.0)

    def test_rejects_bad_dt(self):
        plant = Plant(PlantParams(), constant_profile(), u0=2.0, omega=DEFAULT_OMEGA,
                      counter_phase_ms=0.0)
        for dt in (0.0, -1.0, float("nan"), float("inf"), 0.0004, 1e306):
            with pytest.raises(ValueError, match="dt_ms"):
                plant.advance(dt)

    def test_temperature_never_below_ambient(self):
        rng = random.Random(8)
        params = PlantParams()
        plant = Plant(params, make_profile("graph_irregular", seed=4), u0=0.8,
                      omega=DEFAULT_OMEGA, seed=9)
        for _ in range(200):
            plant.advance(rng.uniform(0.5, 12.0))
            plant.apply_frequency(rng.choice(DEFAULT_OMEGA.levels))
            assert plant.temp >= params.t_amb - 1e-9


class TestEnergyCounter:
    def test_counter_is_stale_between_grid_crossings(self):
        plant = Plant(ten_watt_params(), constant_profile(), u0=2.0,
                      omega=DEFAULT_OMEGA, counter_phase_ms=0.5)
        plant.advance(0.6)  # crosses 0.5 ms
        first = plant.read_energy()
        plant.advance(0.3)  # now at 0.9 ms: no crossing since
        assert plant.read_energy() == first
        plant.advance(0.7)  # crosses 1.5 ms
        assert plant.read_energy() > first

    def test_grid_aligned_delta_over_30ms(self):
        plant = Plant(ten_watt_params(), constant_profile(), u0=2.0,
                      omega=DEFAULT_OMEGA, counter_phase_ms=0.0)
        start = plant.read_energy()
        plant.advance(30.0)
        assert plant.read_energy() - start == pytest.approx(0.300, rel=1e-9)

    def test_phase_offset_power_error_is_bounded(self):
        # derived power over a 10 ms window can be off by at most one grid
        # period's worth of the peak power
        params = PlantParams(kappa=0.0)
        shifted = Plant(params, constant_profile(), u0=0.8, omega=DEFAULT_OMEGA,
                        counter_phase_ms=0.5)
        exact = Plant(params, constant_profile(), u0=0.8, omega=DEFAULT_OMEGA,
                      counter_phase_ms=0.0)
        for plant in (shifted, exact):
            rng = random.Random(21)
            for _ in range(5):
                plant.advance(2.0)
                plant.apply_frequency(rng.choice(DEFAULT_OMEGA.levels))
        p_max = steady_power(params, 1.0, 3.4)
        derived = shifted.read_energy() / 10e-3
        true_avg = exact.energy_acc / 10e-3
        assert abs(derived - true_avg) <= (1.0 / 10.0) * p_max

    def test_phase_rounding_up_to_a_full_period_is_phase_zero(self):
        # 0.9996 ms rounds to 1000 us, one whole grid period: the snapshot
        # instants are those of phase 0, and so is every reading.
        readings = {}
        for phase in (0.9996, 0.0):
            plant = Plant(ten_watt_params(), constant_profile(), u0=2.0,
                          omega=DEFAULT_OMEGA, counter_phase_ms=phase)
            assert 0.0 <= plant.counter_phase_ms < 1.0
            rng = random.Random(5)
            readings[phase] = []
            for _ in range(50):
                plant.advance(rng.choice((0.3, 1.0, 2.7)))
                plant.apply_frequency(rng.choice(DEFAULT_OMEGA.levels))
                readings[phase].append(plant.read_energy())
        assert readings[0.9996] == readings[0.0]

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(1, 10_000), phase_us=st.integers(0, 999),
           warmup_ms=st.integers(0, 4),
           warmup_offset_us=st.sampled_from([0, 1, 999, 337]),
           steps_us=st.lists(st.sampled_from([1, 999, 1000, 1001, 2500, 10_000])
                             | st.integers(1, 12_000), min_size=1, max_size=10),
           level=st.sampled_from(DEFAULT_OMEGA.levels))
    def test_counter_holds_the_energy_at_the_last_grid_instant(
            self, seed, phase_us, warmup_ms, warmup_offset_us, steps_us, level):
        # A warm-up ending on a grid instant (offset 0) makes the frequency
        # change at the very instant the counter is snapshotted.
        warmup_us = warmup_ms * 1000 + (phase_us + warmup_offset_us) % 1000

        def new_plant():
            return Plant(PlantParams(),
                         make_profile("graph_irregular", seed=seed), u0=2.0,
                         omega=DEFAULT_OMEGA, counter_phase_ms=phase_us / 1000.0)

        def twin_energy(grid_us):
            # A twin at grid_us, advanced past the warm-up in one call.
            twin = new_plant()
            if grid_us > warmup_us:
                if warmup_us:
                    twin.advance(warmup_us / 1000.0)
                twin.apply_frequency(level)
                twin.advance((grid_us - warmup_us) / 1000.0)
            elif grid_us > 0:
                twin.advance(grid_us / 1000.0)
            return twin.energy_acc

        plant = new_plant()
        if warmup_us:
            plant.advance(warmup_us / 1000.0)
        plant.apply_frequency(level)
        clock_us = warmup_us
        for step_us in steps_us:
            plant.advance(step_us / 1000.0)
            clock_us += step_us
            grid_us = clock_us - (clock_us - phase_us) % 1000
            assert plant.read_energy() == pytest.approx(
                twin_energy(grid_us), rel=1e-12, abs=0.0)

    def test_counter_never_decreases(self):
        rng = random.Random(77)
        plant = Plant(PlantParams(), make_profile("memory_bound", seed=13),
                      u0=2.0, omega=DEFAULT_OMEGA, seed=5)
        last = plant.read_energy()
        for _ in range(300):
            plant.advance(rng.uniform(0.2, 4.0))
            now = plant.read_energy()
            assert now >= last
            last = now


class TestDeterminism:
    def test_identical_runs_are_bit_identical(self):
        def run():
            plant = Plant(PlantParams(), make_profile("graph_irregular", seed=31),
                          u0=2.0, omega=DEFAULT_OMEGA, seed=31)
            out = []
            for k in range(100):
                plant.advance(10.0)
                plant.apply_frequency(DEFAULT_OMEGA.levels[k % 16])
                out.append((plant.energy_acc, plant.temp, plant.read_energy(),
                            plant.alpha))
            return out

        assert run() == run()

    def test_phase_drawn_from_seed(self):
        a = Plant(PlantParams(), constant_profile(), u0=2.0, omega=DEFAULT_OMEGA, seed=3)
        b = Plant(PlantParams(), constant_profile(), u0=2.0, omega=DEFAULT_OMEGA, seed=3)
        c = Plant(PlantParams(), constant_profile(), u0=2.0, omega=DEFAULT_OMEGA, seed=4)
        assert a.counter_phase_ms == b.counter_phase_ms
        assert 0.0 <= a.counter_phase_ms < 1.0
        assert 0.0 <= c.counter_phase_ms < 1.0


class CountingProfile:
    """A profile seen only through sample_alpha and next_change_ms, with no
    __getattr__, as the benchmark's timing proxy sees it; counts both calls."""

    def __init__(self, profile):
        self._profile = profile
        self.sample_calls = self.next_calls = 0

    def sample_alpha(self, t_ms):
        self.sample_calls += 1
        return self._profile.sample_alpha(t_ms)

    def next_change_ms(self, t_ms):
        self.next_calls += 1
        return self._profile.next_change_ms(t_ms)


class TestProfileContract:
    def test_plant_asks_each_question_once_per_activity_change(self):
        # Frequency changes between the advances ask the profile nothing.
        counting = CountingProfile(make_profile("graph_irregular", seed=5))
        plants = [Plant(PlantParams(), profile, u0=2.0, omega=DEFAULT_OMEGA, seed=5)
                  for profile in (counting, make_profile("graph_irregular", seed=5))]
        for plant in plants:
            for k in range(200):
                plant.advance(10.0)
                plant.apply_frequency(DEFAULT_OMEGA.levels[k * 7 % 16])
        wrapped, bare = plants
        assert (wrapped.energy_acc, wrapped.counter_joules, wrapped.temp) == (
            bare.energy_acc, bare.counter_joules, bare.temp)
        # The activity changes in (0, 2000] ms, walked on a fresh profile.
        changes, t = 0, 0.0
        walk = make_profile("graph_irregular", seed=5)
        while (t := walk.next_change_ms(t)) <= 2000.0:
            changes += 1
        assert changes > 400  # graph_irregular changes about every 3 ms
        assert counting.sample_calls == counting.next_calls == changes + 1


class TestCubicGroundTruth:
    def test_rls_recovers_plant_polynomial(self):
        # fixed activity and kappa=0 make total power an exact cubic; the
        # estimator fed plant samples must find its coefficients
        params = PlantParams(kappa=0.0)
        for alpha in (0.85, 0.425):
            profile = constant_profile(alpha=alpha)
            est = RlsEstimator(forgetting=1.0, p0=1e9)
            for phi in DEFAULT_OMEGA.levels:
                plant = Plant(params, profile, u0=phi, omega=DEFAULT_OMEGA,
                              counter_phase_ms=0.0)
                plant.advance(10.0)
                est.update(phi, plant.read_energy() / 10e-3)
            a, b, c, d = true_cubic_coeffs(params, alpha)
            assert est.coefficients == pytest.approx((a, b, c, d), abs=1e-6)


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        dict(cap=0.0), dict(cap=-1.0), dict(v0=0.0), dict(m=-0.1),
        dict(sigma=-0.5), dict(tau_th=0.0), dict(r_th=-1.0),
        dict(cap=float("inf")), dict(tau_th=float("inf")),
        dict(t_amb=float("nan")), dict(kappa=-0.01),
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            PlantParams(**kwargs)

    def test_bad_counter_phase_rejected(self):
        with pytest.raises(ValueError):
            Plant(PlantParams(), constant_profile(), u0=2.0, omega=DEFAULT_OMEGA,
                  counter_phase_ms=1.0)

    def test_bad_u0_rejected(self):
        with pytest.raises(ValueError):
            Plant(PlantParams(), constant_profile(), u0=0.9, omega=DEFAULT_OMEGA)
