import math
import random

import pytest
from hypothesis import example, given, strategies as st

from powerreg.freqset import (
    DEFAULT_LEVELS,
    FrequencySet,
    check_frequency,
)
from oracles import DEFAULT_OMEGA, Interval, nearest_level_brute, nearest_level_pair


class TestFromList:
    def test_default_ladder_has_16_levels(self):
        fs = FrequencySet.from_list(DEFAULT_LEVELS)
        assert len(fs.levels) == 16
        assert fs.levels == DEFAULT_LEVELS

    def test_singleton(self):
        fs = FrequencySet.from_list([2.0])
        assert fs.levels == (2.0,)

    def test_sort_and_dedupe(self):
        fs = FrequencySet.from_list([1.0, 1.0, 0.8])
        assert fs.levels == (0.8, 1.0)

    @pytest.mark.parametrize("bad", [[], [0.0], [-1.2], [float("nan")], [float("inf")]])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            FrequencySet.from_list(bad)

    def test_rejects_non_increasing_direct_construction(self):
        with pytest.raises(ValueError):
            FrequencySet((2.0, 1.0))

    def test_direct_construction_from_a_list_stores_a_tuple(self):
        fs = FrequencySet([1.0, 2.0])
        assert fs == FrequencySet((1.0, 2.0)) and hash(fs) == hash(FrequencySet((1.0, 2.0)))

    def test_cuts_are_derived_from_the_levels(self):
        fs = FrequencySet((1.0, 2.0))
        assert fs.cuts == (1.5,) and FrequencySet((1.0, 2.0), (1.5,)) == fs
        assert fs._replace(levels=(1.0, 3.0), cuts=None).cuts == (2.0,)
        for changes in (dict(cuts=(1.2,)), dict(levels=(1.0, 3.0))):
            with pytest.raises(ValueError, match="cuts"):
                fs._replace(**changes)


class TestProject:
    def test_exact_tie_resolves_to_lower_level(self):
        fs = FrequencySet((1.0, 2.0))
        assert fs.project(1.5) == 1.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            DEFAULT_OMEGA.project(bad)

    def test_random_inputs_agree_with_brute_force(self):
        rng = random.Random(1234)
        for _ in range(2000):
            u = rng.uniform(-1.0, 5.0)
            got = DEFAULT_OMEGA.project(u)
            assert got in DEFAULT_OMEGA
            assert got == nearest_level_brute(DEFAULT_LEVELS, u)
            # no member is closer, and projection is idempotent
            assert all(abs(got - u) <= abs(v - u) for v in DEFAULT_OMEGA.levels)
            assert DEFAULT_OMEGA.project(got) == got

    def test_random_ladders(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 12)
            levels = sorted({round(rng.uniform(0.1, 8.0), 3) for _ in range(n)})
            fs = FrequencySet.from_list(levels)
            u = rng.uniform(-2.0, 10.0)
            assert fs.project(u) == nearest_level_brute(fs.levels, u)


def probe_commands(levels, extra):
    """Sorted commands where a slip in project's arithmetic would show: each
    level and each midpoint with their float neighbours, and `extra`."""
    points = list(levels) + [(a + b) / 2 for a, b in zip(levels, levels[1:])]
    commands = set(extra)
    for p in points:
        commands.update((math.nextafter(p, -math.inf), p, math.nextafter(p, math.inf)))
    return sorted(commands)


# project bisects the cut points, which is sound only if the nearest-level
# rule it stands for is monotone; the pair rule checks each cut to the ulp.
@given(levels=st.lists(st.floats(min_value=0.0, exclude_min=True, max_value=1e300),
                       min_size=1, max_size=12),
       extra=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
@example(levels=list(DEFAULT_LEVELS), extra=[-1.0, 0.0, 100.0])
@example(levels=[1.0, 2.0, 1.8014398509481988e+16], extra=[])  # brute force differs here
# The float spacing at the midpoint is half the grid of hi - lo, so the
# midpoint is one float above the cut.
@example(levels=[float.fromhex("0x1.0000000000002p-2"), 1.5], extra=[])
@example(levels=[float.fromhex("0x1.0000000000005p-2"), 1.5], extra=[])
@example(levels=[5e-324, 1.5e-323, 1e-300, 1e300], extra=[])  # subnormal and wide pairs
def test_project_is_monotone(levels, extra):
    fs = FrequencySet.from_list(levels)
    commands = probe_commands(fs.levels, extra)
    for omega in (fs, Interval(fs.min_level, fs.max_level)):
        projected = [omega.project(u) for u in commands]
        # u <= v gives project(u) <= project(v): the images of sorted commands are sorted
        assert projected == sorted(projected)
    assert [fs.project(u) for u in commands] == [nearest_level_pair(fs.levels, u)
                                                 for u in commands]


def test_min_max_levels():
    assert DEFAULT_OMEGA.min_level == 0.8
    assert DEFAULT_OMEGA.max_level == 3.4


def test_contains_is_exact():
    assert 2.9 in DEFAULT_OMEGA
    assert 0.9 not in DEFAULT_OMEGA
    assert math.nextafter(2.9, 3.0) not in DEFAULT_OMEGA


def test_illegal_frequency_error_names_the_value():
    with pytest.raises(ValueError) as excinfo:
        check_frequency(5.0, DEFAULT_OMEGA)
    assert str(excinfo.value) == "frequency 5.0 is not a legal level"


# The ladder, and the interval on which the controller tests check a start
# frequency; check_frequency asks either domain only through `in`.
@pytest.mark.parametrize("omega", [DEFAULT_OMEGA, Interval(0.8, 3.4)],
                         ids=["omega1", "omega2"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, "2.0", True, False])
def test_check_frequency_rejects_what_is_not_a_positive_number(omega, bad):
    # True == 1.0 is a level of the default ladder and inside the interval
    with pytest.raises(ValueError, match="must be positive and finite"):
        check_frequency(bad, omega)
