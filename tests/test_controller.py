import math
import random
import sys

import pytest
from hypothesis import example, given, strategies as st

from powerreg.controller import IntegralController, gain, tracking_error
from oracles import DEFAULT_OMEGA, Interval, newton_path
from test_acceptance import WIDE, dg, g

# Any float, with the values that break a naive step weighted in.
EDGE_FLOATS = st.one_of(st.floats(),
                        st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]))


class TestGain:
    def test_rejects_non_finite_estimate(self):
        with pytest.raises(ValueError, match="^derivative estimate must be finite$"):
            gain(float("nan"), 0.1)

    def test_rejects_bad_floor(self):
        with pytest.raises(ValueError):
            gain(1.0, 0.0)
        with pytest.raises(ValueError):
            gain(1.0, -1.0)

    @pytest.mark.parametrize("floor", [5e-324, 1e-310, math.nextafter(sys.float_info.min, 0.0),
                                       math.nan, math.inf])
    def test_rejects_floor_that_is_not_a_normal_float(self, floor):
        # 1/5e-324 is inf: a subnormal floor would pass an infinite gain on
        with pytest.raises(ValueError, match="deriv_floor"):
            gain(0.0, floor)
        with pytest.raises(ValueError, match="deriv_floor"):
            IntegralController(DEFAULT_OMEGA, 2.0, deriv_floor=floor)

    @pytest.mark.parametrize("floor", [sys.float_info.min, sys.float_info.max])
    def test_extreme_normal_floors_give_a_finite_gain(self, floor):
        assert 0.0 < gain(-1.0, floor) < math.inf
        IntegralController(DEFAULT_OMEGA, 2.0, deriv_floor=floor)


class TestTrackingError:
    # the last row: a 5 W target against a 7.749 W starting measurement
    @pytest.mark.parametrize("target, measured, error", [
        (10.0, 8.0, 2.0), (10.0, 10.0, 0.0), (5.0, 7.749, pytest.approx(-2.749))],
        ids=["basic", "zero", "negative_when_over_target"])
    def test_is_target_minus_measurement(self, target, measured, error):
        assert tracking_error(target, measured) == error

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            tracking_error(float("inf"), 1.0)
        with pytest.raises(ValueError):
            tracking_error(1.0, float("nan"))

    def test_rejects_a_difference_past_the_float_range(self):
        # both inputs are finite, but their difference is inf
        with pytest.raises(ValueError, match="difference must be finite"):
            tracking_error(1e308, -1e308)
        ctrl = IntegralController(DEFAULT_OMEGA, u0=2.0)
        with pytest.raises(ValueError):
            ctrl.step(1e308, -1e308, 4.0)
        assert ctrl.u_prev == 2.0


# Raw commands an aimed step reaches with unit gain: each midpoint of the
# default ladder and its float neighbours, and commands past both clamps.
_LEVELS = DEFAULT_OMEGA.levels
_MIDPOINTS = [(a + b) / 2 for a, b in zip(_LEVELS, _LEVELS[1:])]
AIMS = sorted({c for m in _MIDPOINTS
               for c in (math.nextafter(m, 0.0), m, math.nextafter(m, math.inf))}
              | {-1.0, math.nextafter(0.8, 0.0), math.nextafter(3.4, math.inf), 100.0})

# A step is either any three inputs or an aimed command, from which the test
# builds (command - base, 0.0, 1.0).
STEPS = st.lists(st.one_of(st.tuples(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS),
                           st.sampled_from(AIMS)), min_size=1, max_size=12)

_MID = _MIDPOINTS[9]  # 2.45, between 2.4 and 2.5


class TestStep:
    @given(steps=STEPS,
           floor=st.one_of(st.just(0.1), st.floats(min_value=sys.float_info.min,
                                                  max_value=sys.float_info.max)),
           ranged=st.booleans(), projected=st.booleans())
    # A quarter-gain step; zero error; a non-finite measurement refused before a
    # NaN estimate; an infinite estimate.
    @example(steps=[(10.0, 8.0, 4.0)], floor=0.1, ranged=False, projected=True)
    @example(steps=[(10.0, 10.0, 4.0)], floor=0.1, ranged=False, projected=True)
    @example(steps=[(10.0, -math.inf, math.nan)], floor=0.1, ranged=False, projected=True)
    @example(steps=[(10.0, 8.0, math.inf)], floor=0.1, ranged=False, projected=True)
    @example(steps=[(math.nan, 8.0, math.nan)], floor=0.1, ranged=False, projected=True)
    @example(steps=[(1e308, -1e308, -math.inf)], floor=0.1, ranged=True, projected=False)
    @example(steps=[(1e308, 0.0, -1.0)], floor=sys.float_info.min, ranged=True,
             projected=True)
    # At and beside a midpoint, back and forth, then strictly inside its cell.
    @example(steps=[math.nextafter(_MID, 0.0), _MID, math.nextafter(_MID, math.inf), _MID,
                    math.nextafter(_MID, 0.0), (10.0, 10.0, 4.0), 2.425],
             floor=0.1, ranged=False, projected=True)
    @example(steps=[math.nextafter(_MID, 0.0), _MID, math.nextafter(_MID, math.inf), _MID],
             floor=0.1, ranged=False, projected=False)
    # Past both clamps, twice each.
    @example(steps=[100.0, math.nextafter(3.4, math.inf), 100.0, -1.0,
                    math.nextafter(0.8, 0.0), -1.0], floor=0.1, ranged=True, projected=True)
    def test_matches_its_reference_composition(self, steps, floor, ranged, projected):
        omega = Interval(0.8, 3.4) if ranged else DEFAULT_OMEGA
        ctrl = IntegralController(omega, 2.0, deriv_floor=floor, projected_state=projected)
        u_prev = u_raw = 2.0  # the reference composition's state
        # the first step is off the ladder: u_prev and u_raw can differ
        for step in [(10.0, 8.3, 4.0)] + steps:
            base = u_prev if projected else u_raw
            target, y_prev, deriv = ((step - base, 0.0, 1.0) if isinstance(step, float)
                                     else step)
            kept = ctrl.error, ctrl.gain
            try:
                e = tracking_error(target, y_prev)
                a = gain(deriv, floor)
                raw = base + a * e
                expected = omega.project(raw)
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    ctrl.step(target, y_prev, deriv)
                assert str(info.value) == str(exc)
                assert (ctrl.error, ctrl.gain) == kept
            else:
                assert ctrl.step(target, y_prev, deriv).hex() == expected.hex()
                assert ctrl.error.hex() == e.hex()
                assert ctrl.gain.hex() == a.hex()
                u_prev, u_raw = expected, raw
            assert (ctrl.u_prev.hex(), ctrl._u_raw.hex()) == (u_prev.hex(), u_raw.hex())

    def test_cube_root_iterates_match_reference_newton(self):
        ctrl = IntegralController(WIDE, u0=1.0)
        ref = newton_path(lambda u: u**3, lambda u: 3.0 * u * u, 8.0, 1.0,
                          max_steps=12, tol=-math.inf)
        u = 1.0
        for expected in ref[1:]:
            u = ctrl.step(8.0, u**3, 3.0 * u * u)
            assert u == pytest.approx(expected, rel=1e-13)


class TestNewtonBehavior:
    def test_matches_reference_to_machine_precision(self):
        ctrl = IntegralController(WIDE, u0=2.0)
        # a negative tol never stops the reference early: all 10 iterates count
        ref = newton_path(g, dg, 10.0, 2.0, max_steps=10, tol=-math.inf)
        u = 2.0
        for expected in ref[1:]:
            u = ctrl.step(10.0, g(u), dg(u))
            assert u == pytest.approx(expected, rel=1e-14)

    def test_recovers_from_transient_negative_estimates(self):
        # floor-clamped gain on early garbage estimates drives the command to
        # both range limits; it must not prevent convergence once estimates
        # become sane
        ctrl = IntegralController(Interval(0.8, 3.4), u0=2.0)
        u = 2.0
        path = []
        for k in range(40):
            deriv = -1.0 if k < 2 else dg(u)
            u = ctrl.step(10.0, g(u), deriv)
            path.append(u)
        assert path[:3] == [3.4, 0.8, 3.4]
        assert abs(10.0 - g(u)) < 1e-6

    def test_quantized_loop_enters_short_cycle(self):
        # with projection on, the loop must end in a cycle over at most two
        # adjacent levels
        ctrl = IntegralController(DEFAULT_OMEGA, u0=0.8)
        u = 0.8
        seq = []
        for _ in range(80):
            u = ctrl.step(6.8, g(u), dg(u))
            seq.append(u)
        tail = seq[-20:]
        assert all(tail[i] == tail[i + 2] for i in range(len(tail) - 2))
        distinct = sorted(set(tail))
        assert len(distinct) <= 2
        if len(distinct) == 2:
            levels = DEFAULT_OMEGA.levels
            assert levels.index(distinct[1]) - levels.index(distinct[0]) == 1


class TestRawStateVariant:
    def test_raw_accumulator_still_converges(self):
        ctrl = IntegralController(DEFAULT_OMEGA, u0=0.8, projected_state=False)
        u = 0.8
        for _ in range(80):
            u = ctrl.step(6.8, g(u), dg(u))
        assert u in DEFAULT_OMEGA
        assert abs(6.8 - g(u)) < 1.0

    def test_variants_differ_only_via_shadow_state(self):
        proj = IntegralController(DEFAULT_OMEGA, u0=2.0, projected_state=True)
        raw = IntegralController(DEFAULT_OMEGA, u0=2.0, projected_state=False)
        # one step from a common state is identical
        assert proj.step(10.0, 8.0, 4.0) == raw.step(10.0, 8.0, 4.0)


class CountingOmega:
    """A frequency domain seen only through `project` and `in`, with no
    __getattr__, as the benchmark's timing proxy sees it; counts projections."""

    def __init__(self, omega):
        self._omega = omega
        self.project_calls = 0

    def __contains__(self, value):
        return value in self._omega

    def project(self, u):
        self.project_calls += 1
        return self._omega.project(u)


@pytest.mark.parametrize("omega", [DEFAULT_OMEGA, Interval(0.8, 3.4)])
def test_controller_reads_omega_only_through_project_and_in(omega):
    counting = CountingOmega(omega)
    rng = random.Random(4)
    steps = [(rng.uniform(2.0, 12.0), rng.uniform(2.0, 12.0), rng.uniform(-1.0, 8.0))
             for _ in range(100)]
    paths = []
    for domain in (counting, omega):
        ctrl = IntegralController(domain, u0=2.0)
        paths.append([ctrl.step(*step) for step in steps])
    assert paths[0] == paths[1]
    assert counting.project_calls == len(steps)


def test_deriv_floor_is_read_only():
    ctrl = IntegralController(DEFAULT_OMEGA, u0=2.0, deriv_floor=0.5)
    with pytest.raises(AttributeError):
        ctrl.deriv_floor = 1e-310  # step trusts the floor checked at construction
    assert ctrl.deriv_floor == 0.5


def test_starts_from_u0():
    assert IntegralController(DEFAULT_OMEGA, u0=0.8).u_prev == 0.8
    # a domain without quantization accepts a start frequency off the ladder
    assert IntegralController(Interval(0.8, 3.4), u0=0.9).u_prev == 0.9


def test_invalid_u0_rejected():
    with pytest.raises(ValueError):
        IntegralController(DEFAULT_OMEGA, u0=0.9)
    with pytest.raises(ValueError):
        IntegralController(Interval(0.8, 3.4), u0=-1.0)
    with pytest.raises(ValueError):
        IntegralController(Interval(0.8, 3.4), u0=math.nan)
