import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from powerreg.freqset import DEFAULT_OMEGA
from powerreg.oracles import first_order_rise
from powerreg.plant import Plant, PlantParams
from powerreg.sysid import RlsEstimator
from powerreg.workload import make_profile


def constant_profile(seed=0, alpha=1.0):
    return make_profile("constant", seed=seed, alpha_mean=alpha)


def ten_watt_params():
    # alpha*C*V^2*phi = 1*2*1*2 = 4 W dynamic, sigma*V = 6 W static, kappa = 0
    return PlantParams(cap=2.0, v0=1.0, m=0.0, sigma=6.0, kappa=0.0)


class TestVoltage:
    def test_affine_law(self):
        assert PlantParams(v0=0.6, m=0.2).voltage(2.0) == pytest.approx(1.0)

    def test_constant_voltage_when_slope_zero(self):
        p = PlantParams(v0=0.75, m=0.0)
        for phi in (0.8, 1.7, 3.4):
            assert p.voltage(phi) == 0.75

    def test_top_of_range(self):
        assert PlantParams(v0=0.6, m=0.2).voltage(3.4) == pytest.approx(1.28)


class TestDynamicPower:
    def test_point_value(self):
        p = PlantParams(cap=2.0, v0=1.0, m=0.0)
        assert p.dynamic_power(0.5, 2.0) == pytest.approx(2.0)

    def test_linear_in_activity(self):
        p = PlantParams()
        assert p.dynamic_power(1.0, 2.5) == pytest.approx(2.0 * p.dynamic_power(0.5, 2.5))

    def test_cubic_in_frequency(self):
        # expanding alpha*C*(v0+m*phi)^2*phi gives the cubic below
        p = PlantParams(cap=1.7, v0=0.7, m=0.25)
        alpha = 0.9
        a = alpha * p.cap * p.m**2
        b = 2.0 * alpha * p.cap * p.v0 * p.m
        c = alpha * p.cap * p.v0**2
        for phi in (0.8, 1.5, 2.2, 2.9, 3.4):
            poly = ((a * phi + b) * phi + c) * phi
            assert p.dynamic_power(alpha, phi) == pytest.approx(poly, rel=1e-12)

    def test_rejects_non_positive_activity(self):
        with pytest.raises(ValueError):
            PlantParams().dynamic_power(0.0, 2.0)


class TestStaticPower:
    def test_no_thermal_uplift_at_ambient(self):
        params = PlantParams(v0=1.0, m=0.0, sigma=1.5)
        plant = Plant(params, constant_profile(), u0=2.0, counter_phase_ms=0.0)
        assert plant.static_power() == pytest.approx(1.5)

    def test_kappa_zero_removes_temperature_dependence(self):
        params = PlantParams(kappa=0.0)
        plant = Plant(params, constant_profile(), u0=2.0, counter_phase_ms=0.0)
        before = plant.static_power()
        plant.advance(500.0)  # heats up
        assert plant.temp > params.t_amb
        assert plant.static_power() == before

    def test_default_static_share_in_band(self):
        params = PlantParams()
        plant = Plant(params, constant_profile(), u0=2.0, counter_phase_ms=0.0)
        plant.advance(3000.0)  # 15 thermal time constants
        p_total = params.dynamic_power(plant.alpha, plant.freq) + plant.static_power()
        share = plant.static_power() / p_total
        assert 0.20 <= share <= 0.30
        # independent fixed-point oracle: iterate P = P_dyn + sigma*V*(1+kappa*r_th*P)
        p = params.dynamic_power(1.0, 2.0)
        for _ in range(200):
            p = params.dynamic_power(1.0, 2.0) + params.sigma * params.voltage(2.0) * (
                1.0 + params.kappa * params.r_th * p)
        assert p_total == pytest.approx(p, rel=1e-6)


class TestApplyFrequency:
    def test_effective_from_next_advance(self):
        params = ten_watt_params()
        plant = Plant(params, constant_profile(), u0=1.0, counter_phase_ms=0.0)
        plant.apply_frequency(2.0)
        plant.advance(10.0)
        # 10 W at 2.0 GHz for 10 ms
        assert plant.energy_acc == pytest.approx(0.100, rel=1e-9)

    def test_latency_delays_the_change(self):
        params = PlantParams(cap=2.0, v0=1.0, m=0.0, sigma=6.0, kappa=0.0,
                             latency_ms=2.0)
        plant = Plant(params, constant_profile(), u0=1.0, counter_phase_ms=0.0)
        plant.apply_frequency(2.0)
        plant.advance(10.0)
        # 2 ms at 1.0 GHz (2+6 W), then 8 ms at 2.0 GHz (10 W)
        assert plant.energy_acc == pytest.approx(8.0 * 2e-3 + 10.0 * 8e-3, rel=1e-9)
        assert plant.freq == 2.0

    def test_off_ladder_frequency_rejected(self):
        plant = Plant(PlantParams(), constant_profile(), u0=2.0,
                      omega=DEFAULT_OMEGA, counter_phase_ms=0.0)
        with pytest.raises(ValueError):
            plant.apply_frequency(0.9)

    def test_continuous_mode_accepts_any_positive(self):
        plant = Plant(PlantParams(), constant_profile(), u0=2.0, counter_phase_ms=0.0)
        plant.apply_frequency(0.9)
        assert plant.freq == 0.9
        with pytest.raises(ValueError):
            plant.apply_frequency(-1.0)


class TestAdvance:
    def test_energy_is_power_times_time(self):
        plant = Plant(ten_watt_params(), constant_profile(), u0=2.0,
                      counter_phase_ms=0.0)
        plant.advance(100.0)
        assert plant.energy_acc == pytest.approx(1.0, rel=1e-9)

    def test_no_thermal_resistance_keeps_ambient(self):
        params = PlantParams(r_th=0.0)
        plant = Plant(params, constant_profile(), u0=2.0, counter_phase_ms=0.0)
        plant.advance(1000.0)
        assert plant.temp == pytest.approx(params.t_amb, abs=1e-12)

    def test_first_order_step_response(self):
        params = PlantParams(cap=2.0, v0=1.0, m=0.0, sigma=6.0, kappa=0.0,
                             r_th=2.0, tau_th=100.0)
        plant = Plant(params, constant_profile(), u0=2.0, counter_phase_ms=0.0)
        plant.advance(100.0)  # one time constant at constant 10 W
        expected = params.t_amb + 10.0 * params.r_th * (1.0 - math.exp(-1.0))
        assert plant.temp == pytest.approx(expected, rel=0.01)

    @pytest.mark.parametrize("t_ms", [1.0, 100.0, 700.0])
    def test_kappa_zero_rise_is_exact(self, t_ms):
        # constant 10 W: the closed-form step is exact, not just first-order
        params = ten_watt_params()
        plant = Plant(params, constant_profile(), u0=2.0, counter_phase_ms=0.0)
        plant.advance(t_ms)
        expected = first_order_rise(10.0, params.r_th, params.tau_th, t_ms)
        assert plant.temp - params.t_amb == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(1, 10_000), latency_ms=st.sampled_from([0.0, 1.3]),
           warmup_us=st.integers(1, 20_000), total_us=st.integers(1, 20_000),
           cuts=st.lists(st.integers(1, 19_999), max_size=12),
           level=st.sampled_from(DEFAULT_OMEGA.levels))
    def test_split_advance_matches_one_advance(self, seed, latency_ms, warmup_us,
                                               total_us, cuts, level):
        # how an interval is cut into advance calls must not change the state
        bounds = sorted({c for c in cuts if c < total_us} | {0, total_us})
        pieces = [b - a for a, b in zip(bounds, bounds[1:])]
        plants = []
        for steps in ([total_us], pieces):
            plant = Plant(PlantParams(latency_ms=latency_ms),
                          make_profile("graph_irregular", seed=seed), u0=2.0,
                          omega=DEFAULT_OMEGA, seed=seed)
            plant.advance(warmup_us / 1000.0)
            plant.apply_frequency(level)
            for step_us in steps:
                plant.advance(step_us / 1000.0)
            plants.append(plant)
        one, split = plants
        assert split.clock_ms == one.clock_ms
        assert split.energy_acc == pytest.approx(one.energy_acc, rel=1e-12)
        assert split.temp == pytest.approx(one.temp, rel=1e-12)
        assert split.read_energy() == pytest.approx(one.read_energy(), rel=1e-12)

    def test_thermal_runaway_raises(self):
        # sigma*V*kappa*r_th = 1.5*1.28*0.3*2 = 1.15 at 3.4 GHz: beta < 0
        plant = Plant(PlantParams(kappa=0.3), constant_profile(), u0=3.4,
                      counter_phase_ms=0.0)
        with pytest.raises(ValueError, match="thermal runaway"):
            plant.advance(1.0)

    def test_thermal_runaway_raises_after_a_frequency_change(self):
        # beta = 1 - 1.5*1.0*0.3*2 = 0.1 at 2.0 GHz, but < 0 at 3.4 GHz
        plant = Plant(PlantParams(kappa=0.3), constant_profile(), u0=2.0,
                      counter_phase_ms=0.0)
        plant.advance(5.0)
        plant.apply_frequency(3.4)
        for _ in range(2):
            with pytest.raises(ValueError, match="thermal runaway"):
                plant.advance(1.0)
        assert plant.clock_ms == 5.0

    def test_rejects_bad_dt(self):
        plant = Plant(PlantParams(), constant_profile(), u0=2.0, counter_phase_ms=0.0)
        for dt in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
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
                      counter_phase_ms=0.5)
        plant.advance(0.6)  # crosses 0.5 ms
        first = plant.read_energy()
        plant.advance(0.3)  # now at 0.9 ms: no crossing since
        assert plant.read_energy() == first
        plant.advance(0.7)  # crosses 1.5 ms
        assert plant.read_energy() > first

    def test_grid_aligned_delta_over_30ms(self):
        plant = Plant(ten_watt_params(), constant_profile(), u0=2.0,
                      counter_phase_ms=0.0)
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
        p_max = params.dynamic_power(1.0, 3.4) + params.sigma * params.voltage(3.4)
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
        a = Plant(PlantParams(), constant_profile(), u0=2.0, seed=3)
        b = Plant(PlantParams(), constant_profile(), u0=2.0, seed=3)
        c = Plant(PlantParams(), constant_profile(), u0=2.0, seed=4)
        assert a.counter_phase_ms == b.counter_phase_ms
        assert 0.0 <= a.counter_phase_ms < 1.0
        assert 0.0 <= c.counter_phase_ms < 1.0


class TestCubicGroundTruth:
    def test_rls_recovers_plant_polynomial(self):
        # fixed activity and kappa=0 make total power an exact cubic; the
        # estimator fed plant samples must find its coefficients
        params = PlantParams(kappa=0.0)
        alpha = 0.85
        profile = constant_profile(alpha=alpha)
        est = RlsEstimator(forgetting=1.0, p0=1e9)
        for phi in DEFAULT_OMEGA:
            plant = Plant(params, profile, u0=phi, omega=DEFAULT_OMEGA,
                          counter_phase_ms=0.0)
            plant.advance(10.0)
            est.update(phi, plant.read_energy() / 10e-3)
        a = alpha * params.cap * params.m**2
        b = 2.0 * alpha * params.cap * params.v0 * params.m
        c = alpha * params.cap * params.v0**2 + params.sigma * params.m
        d = params.sigma * params.v0
        got = est.model
        assert got.a == pytest.approx(a, abs=1e-6)
        assert got.b == pytest.approx(b, abs=1e-6)
        assert got.c == pytest.approx(c, abs=1e-6)
        assert got.d == pytest.approx(d, abs=1e-6)


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        dict(cap=0.0), dict(cap=-1.0), dict(v0=0.0), dict(m=-0.1),
        dict(sigma=-0.5), dict(tau_th=0.0), dict(r_th=-1.0),
        dict(latency_ms=-1.0), dict(latency_ms=6.0), dict(t_amb=float("nan")),
        dict(kappa=-0.01),
    ])
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises(ValueError):
            PlantParams(**kwargs)

    def test_bad_counter_phase_rejected(self):
        with pytest.raises(ValueError):
            Plant(PlantParams(), constant_profile(), u0=2.0, counter_phase_ms=1.0)

    def test_bad_u0_rejected(self):
        with pytest.raises(ValueError):
            Plant(PlantParams(), constant_profile(), u0=0.9, omega=DEFAULT_OMEGA)
