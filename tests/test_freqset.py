import math
import random

import pytest

from powerreg.freqset import DEFAULT_LEVELS, DEFAULT_OMEGA, FrequencyRange, FrequencySet


def brute_nearest(levels, u):
    # exhaustive argmin; first (lowest) level wins ties because of the scan order
    best = levels[0]
    for v in levels[1:]:
        if abs(v - u) < abs(best - u):
            best = v
    return best


class TestFromList:
    def test_default_ladder_has_16_levels(self):
        fs = FrequencySet.from_list(DEFAULT_LEVELS)
        assert len(fs) == 16
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


class TestProject:
    def test_tie_resolves_to_lower_level(self):
        # 1.9 sits midway between 1.8 and 2.0
        assert DEFAULT_OMEGA.project(1.9) == 1.8

    def test_exact_tie_resolves_to_lower_level(self):
        fs = FrequencySet((1.0, 2.0))
        assert fs.project(1.5) == 1.0

    def test_below_range_clamps_to_minimum(self):
        assert DEFAULT_OMEGA.project(0.5) == 0.8

    def test_above_range_clamps_to_maximum(self):
        assert DEFAULT_OMEGA.project(99.0) == 3.4

    def test_interior_value_matches_brute_force(self):
        assert DEFAULT_OMEGA.project(2.55) == 2.5
        assert DEFAULT_OMEGA.project(2.55) == brute_nearest(DEFAULT_LEVELS, 2.55)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            DEFAULT_OMEGA.project(bad)

    def test_members_project_to_themselves(self):
        for v in DEFAULT_OMEGA:
            assert DEFAULT_OMEGA.project(v) == v

    def test_random_inputs_agree_with_brute_force(self):
        rng = random.Random(1234)
        for _ in range(2000):
            u = rng.uniform(-1.0, 5.0)
            got = DEFAULT_OMEGA.project(u)
            assert got in DEFAULT_OMEGA
            assert got == brute_nearest(DEFAULT_LEVELS, u)
            # no member is closer, and projection is idempotent
            assert all(abs(got - u) <= abs(v - u) for v in DEFAULT_OMEGA)
            assert DEFAULT_OMEGA.project(got) == got

    def test_random_ladders(self):
        rng = random.Random(99)
        for _ in range(200):
            n = rng.randint(1, 12)
            levels = sorted({round(rng.uniform(0.1, 8.0), 3) for _ in range(n)})
            fs = FrequencySet.from_list(levels)
            u = rng.uniform(-2.0, 10.0)
            assert fs.project(u) == brute_nearest(fs.levels, u)


def test_immutable():
    with pytest.raises(AttributeError):
        DEFAULT_OMEGA.levels = (1.0,)


def test_min_max_levels():
    assert DEFAULT_OMEGA.min_level == 0.8
    assert DEFAULT_OMEGA.max_level == 3.4


def test_contains_is_exact():
    assert 2.9 in DEFAULT_OMEGA
    assert 0.9 not in DEFAULT_OMEGA
    assert math.nextafter(2.9, 3.0) not in DEFAULT_OMEGA


class TestFrequencyRange:
    def test_project_clamps_to_the_bounds(self):
        r = FrequencyRange(0.8, 3.4)
        assert r.project(-0.03) == 0.8
        assert r.project(99.0) == 3.4
        assert r.project(2.345) == 2.345

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_project_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            FrequencyRange(0.8, 3.4).project(bad)

    def test_contains_is_the_closed_interval(self):
        r = FrequencyRange(0.8, 3.4)
        assert 0.8 in r and 3.4 in r and 2.345 in r
        assert math.nextafter(0.8, 0.0) not in r
        assert math.nextafter(3.4, 4.0) not in r
        assert float("nan") not in r
        assert (r.min_level, r.max_level) == (0.8, 3.4)

    @pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (-1.0, 1.0), (2.0, 1.0),
                                        (1.0, float("inf")), (float("nan"), 1.0)])
    def test_rejects_bad_bounds(self, lo, hi):
        with pytest.raises(ValueError, match="frequency range"):
            FrequencyRange(lo, hi)

    def test_single_point_range(self):
        r = FrequencyRange(2.0, 2.0)
        assert r.project(0.1) == r.project(5.0) == 2.0
