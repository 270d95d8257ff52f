import bisect
import math
import random
import statistics

import pytest
from hypothesis import given, settings, strategies as st

from powerreg.workload import KINDS, WorkloadProfile, make_profile

VARYING_KINDS = tuple(k for k in KINDS if k != "constant")


def reference_intervals(key, means, n):
    """The first n (bounds, values) of a renewal process, drawn as specified:
    one stream seeded by key, each interval taking its dwell, then its value."""
    rng = random.Random(key)
    bounds, values = [0.0], []
    for i in range(n):
        mean = means[i % len(means)]
        bounds.append(bounds[-1] - mean * math.log1p(-rng.random()))
        values.append(rng.random())
    return bounds, values


class TestMakeProfile:
    def test_constant_is_flat(self):
        p = make_profile("constant", seed=3)
        assert all(p.sample_alpha(t) == p.alpha_mean for t in (0.0, 1.5, 99.9, 5000.0))

    def test_memory_bound_stalls_more_than_compute_bound(self):
        mem = make_profile("memory_bound", seed=1)
        comp = make_profile("compute_bound", seed=1)
        assert mem.stall_fraction > comp.stall_fraction
        assert mem.alpha_jitter > comp.alpha_jitter

    def test_same_kind_and_seed_gives_identical_records(self):
        assert make_profile("graph_irregular", seed=9) == make_profile("graph_irregular", seed=9)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            make_profile("video_bound", seed=1)

    def test_overrides_apply(self):
        p = make_profile("compute_bound", seed=1, alpha_mean=0.5, stall_fraction=0.2)
        assert p.alpha_mean == 0.5
        assert p.stall_fraction == 0.2
        assert p.alpha_jitter == 0.05  # preset untouched

    @pytest.mark.parametrize("kwargs", [
        dict(alpha_mean=0.0), dict(alpha_mean=-1.0), dict(alpha_jitter=1.0),
        dict(alpha_jitter=-0.1), dict(switch_period_ms=0.0),
        dict(stall_fraction=1.0), dict(stall_alpha_scale=0.0),
        dict(stall_alpha_scale=1.5), dict(alpha_mean=float("nan")),
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_profile("memory_bound", seed=1, **kwargs)


class TestSampleAlpha:
    def test_pure_function_of_time(self):
        p = make_profile("memory_bound", seed=17)
        rng = random.Random(4)
        ts = [rng.uniform(0, 2000) for _ in range(50)]
        first = [p.sample_alpha(t) for t in ts]
        second = [p.sample_alpha(t) for t in reversed(ts)]
        assert first == list(reversed(second))
        # a fresh profile with the same parameters agrees at every t
        q = make_profile("memory_bound", seed=17)
        assert [q.sample_alpha(t) for t in ts] == first

    def test_always_positive(self):
        rng = random.Random(12)
        for kind in KINDS:
            p = make_profile(kind, seed=6)
            for _ in range(500):
                assert p.sample_alpha(rng.uniform(0.0, 10000.0)) > 0.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            make_profile("constant", seed=1).sample_alpha(-0.1)

    def test_long_run_average(self):
        # time average over 100 s approaches mean*(1 - f*(1 - s))
        p = make_profile("memory_bound", seed=23)
        vals = [p.sample_alpha(t * 1.0) for t in range(100_000)]
        expected = p.alpha_mean * (
            1.0 - p.stall_fraction * (1.0 - p.stall_alpha_scale))
        assert statistics.fmean(vals) == pytest.approx(expected, rel=0.02)

    def test_variance_ordering_over_10s(self):
        var = {}
        for kind in KINDS:
            p = make_profile(kind, seed=41)
            vals = [p.sample_alpha(t * 1.0) for t in range(10_000)]
            var[kind] = statistics.pvariance(vals)
        assert var["graph_irregular"] > var["memory_bound"]
        assert var["memory_bound"] > var["compute_bound"]
        assert var["compute_bound"] > var["constant"]
        assert var["constant"] == 0.0

    def test_levels_stay_within_jitter_band(self):
        p = make_profile("graph_irregular", seed=2)
        lo = p.alpha_mean * (1.0 - p.alpha_jitter) * p.stall_alpha_scale
        hi = p.alpha_mean * (1.0 + p.alpha_jitter)
        for t in range(0, 20000, 7):
            assert lo - 1e-12 <= p.sample_alpha(float(t)) <= hi + 1e-12


class TestNextChange:
    def test_alpha_constant_until_reported_change(self):
        p = make_profile("graph_irregular", seed=19)
        t = 0.0
        for _ in range(200):
            nxt = p.next_change_ms(t)
            assert nxt > t
            a_here = p.sample_alpha(t)
            assert p.sample_alpha((t + nxt) / 2.0) == a_here
            assert p.sample_alpha(math.nextafter(nxt, t)) == a_here
            t = nxt

    def test_constant_profile_never_changes(self):
        p = make_profile("constant", seed=1)
        assert p.next_change_ms(0.0) == math.inf
        assert p.next_change_ms(1234.5) == math.inf

    def test_dwell_times_average_near_mean(self):
        p = WorkloadProfile(kind="compute_bound", alpha_jitter=0.1,
                            switch_period_ms=20.0, seed=55)
        bounds = [0.0]
        while bounds[-1] < 50_000.0:
            bounds.append(p.next_change_ms(bounds[-1]))
        dwells = [b - a for a, b in zip(bounds, bounds[1:])]
        assert statistics.fmean(dwells) == pytest.approx(20.0, rel=0.1)


class TestStreamContract:
    @pytest.mark.parametrize("kind", VARYING_KINDS)
    @pytest.mark.parametrize("seed", [1, 9001])
    def test_first_200_intervals_match_reference(self, kind, seed):
        p = make_profile(kind, seed=seed)
        cycle = p.switch_period_ms / 2.0
        lv_b, lv_v = reference_intervals(f"{seed}:levels", (p.switch_period_ms,), 2000)
        st_b, _ = reference_intervals(
            f"{seed}:stalls",
            ((1.0 - p.stall_fraction) * cycle, p.stall_fraction * cycle), 2000)
        horizon = max(lv_b[200], st_b[200])
        assert horizon < min(lv_b[-1], st_b[-1])
        changes = sorted(set(lv_b[1:] + st_b[1:]))
        t = 0.0
        for expected_next in changes:
            if t > horizon:
                break
            i = bisect.bisect_right(lv_b, t) - 1
            j = bisect.bisect_right(st_b, t) - 1
            alpha = p.alpha_mean * (1.0 + p.alpha_jitter * (2.0 * lv_v[i] - 1.0))
            if j % 2 == 1:
                alpha *= p.stall_alpha_scale
            assert p.sample_alpha(t) == alpha
            assert p.next_change_ms(t) == expected_next
            t = expected_next


class TestQueryOrder:
    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**31),
           times=st.lists(st.floats(0.0, 5000.0), min_size=1, max_size=30),
           data=st.data())
    def test_answers_do_not_depend_on_query_order(self, kind, seed, times, data):
        def answers(profile, order):
            got = {t: (profile.sample_alpha(t), profile.next_change_ms(t)) for t in order}
            return [got[t] for t in times]

        in_order = answers(make_profile(kind, seed=seed), times)
        shuffled = data.draw(st.permutations(times))
        assert answers(make_profile(kind, seed=seed), shuffled) == in_order
        latest_first = make_profile(kind, seed=seed)
        latest_first.sample_alpha(max(times))
        latest_first.next_change_ms(max(times))
        assert answers(latest_first, times) == in_order
