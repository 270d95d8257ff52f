import bisect
import copy
import math
import pickle
import random
import statistics
import tracemalloc

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


def reference_profile(p, n):
    """A varying profile's reference: a function from t to (alpha, next
    change), and the bounds of the first n intervals of its level and stall
    processes, drawn by reference_intervals, which that function covers."""
    cycle = p.switch_period_ms / 2.0
    lv_b, lv_v = reference_intervals(f"{p.seed}:levels", (p.switch_period_ms,), n)
    st_b, _ = reference_intervals(
        f"{p.seed}:stalls", ((1.0 - p.stall_fraction) * cycle, p.stall_fraction * cycle), n)

    def at(t):
        i = bisect.bisect_right(lv_b, t) - 1
        j = bisect.bisect_right(st_b, t) - 1
        assert i < n and j < n, "t is beyond the reference intervals"
        alpha = p.alpha_mean * (1.0 + p.alpha_jitter * (2.0 * lv_v[i] - 1.0))
        if j % 2 == 1:
            alpha *= p.stall_alpha_scale
        return alpha, min(lv_b[i + 1], st_b[j + 1])

    return at, lv_b, st_b


def walk(p, t, until_ms):
    """Walk p as the plant does, alpha then the next change at each change
    time, from t to the first change at or past until_ms; return that time."""
    while t < until_ms:
        p.sample_alpha(t)
        t = p.next_change_ms(t)
    return t


class TestMakeProfile:
    def test_constant_is_flat(self):
        p = make_profile("constant", seed=3)
        assert all(p.sample_alpha(t) == p.alpha_mean for t in (0.0, 1.5, 99.9, 5000.0))

    def test_memory_bound_stalls_more_than_compute_bound(self):
        mem = make_profile("memory_bound", seed=1)
        comp = make_profile("compute_bound", seed=1)
        assert mem.stall_fraction > comp.stall_fraction
        assert mem.alpha_jitter > comp.alpha_jitter

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
        dict(seed=True), dict(seed=1.0), dict(switch_period_ms=1e-7),
        # mean stall dwell 0.35 * 0.002 and mean busy dwell 0.00005 * 15 ms
        dict(switch_period_ms=0.004), dict(stall_fraction=0.99995),
    ])
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_profile("memory_bound", **{"seed": 1, **kwargs})


class TestSampleAlpha:
    def test_always_positive(self):
        rng = random.Random(12)
        for kind in KINDS:
            p = make_profile(kind, seed=6)
            for _ in range(500):
                assert p.sample_alpha(rng.uniform(0.0, 10000.0)) > 0.0

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            make_profile("constant", seed=1).sample_alpha(-0.1)
        with pytest.raises(ValueError):
            make_profile("constant", seed=1).next_change_ms(-0.1)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, kind, t):
        p = make_profile(kind, seed=1)
        for query in (p.sample_alpha, p.next_change_ms):
            with pytest.raises(ValueError, match="finite"):
                query(t)
        # after a finite query too, and the profile still answers afterwards
        p.sample_alpha(3.0)
        for query in (p.sample_alpha, p.next_change_ms):
            with pytest.raises(ValueError, match="finite"):
                query(t)
        assert p.sample_alpha(3.0) == make_profile(kind, seed=1).sample_alpha(3.0)

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

    def test_forward_walk_keeps_memory_flat(self):
        # Walked forward as the plant walks it, alpha then the next change at
        # each change time, a profile keeps only its current intervals.
        p = make_profile("graph_irregular", seed=1)

        def walk(t, until_ms):
            while t < until_ms:
                p.sample_alpha(t)
                t = p.next_change_ms(t)
            return t

        # tracemalloc counts a float that comes from the allocator, but not
        # one reused from CPython's float free list. Fill that list first
        # (it keeps at most 100), so the figures count the profile's memory
        # alone and not how many floats earlier code left parked there.
        spare = [i + 0.5 for i in range(1000)]
        del spare
        # The same free list hides a leak of up to 100 floats, so the second
        # leg is long: from 120 s to 600 s the walk passes about 160,000
        # activity changes, and a leak of one float per 1000 changes
        # outgrows the list.
        tracemalloc.start()
        try:
            t = walk(0.0, 120_000.0)
            at_120s = tracemalloc.get_traced_memory()[0]
            walk(t, 600_000.0)
            at_600s = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert at_120s < 64 * 1024
        assert at_600s <= at_120s
        # a query before the current interval replays the streams from 0
        fresh = make_profile("graph_irregular", seed=1)
        for t in (0.0, 33_333.3):
            assert (p.sample_alpha(t), p.next_change_ms(t)) == (
                fresh.sample_alpha(t), fresh.next_change_ms(t))

    def test_dwell_times_average_near_mean(self):
        p = WorkloadProfile(kind="compute_bound", alpha_jitter=0.1,
                            switch_period_ms=20.0, seed=55)
        bounds = [0.0]
        while bounds[-1] < 50_000.0:
            bounds.append(p.next_change_ms(bounds[-1]))
        dwells = [b - a for a, b in zip(bounds, bounds[1:])]
        assert statistics.fmean(dwells) == pytest.approx(20.0, rel=0.1)


@pytest.fixture
def seedings(monkeypatch):
    """The keys of the random streams seeded from now on: powerreg.workload
    seeds one per level or stall process each time it starts a walk."""
    keys = []

    class Counted(random.Random):
        def __init__(self, key):
            keys.append(key)
            super().__init__(key)

    monkeypatch.setattr(random, "Random", Counted)
    return keys


class TestWalkState:
    @pytest.mark.parametrize("kind", KINDS)
    def test_copies_answer_as_fresh_profiles(self, kind, seedings):
        # A generator does not pickle, and a copy sharing the walk would have
        # to replay it to answer at t = 0 while the original walks on.
        p = make_profile(kind, seed=8)
        t = walk(p, 0.0, 10_000.0)
        for c in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), p._replace()):
            assert c == p
            fresh = make_profile(kind, seed=8)
            seedings.clear()
            c_t = 0.0
            while c_t < 1_000.0:
                assert (c.sample_alpha(c_t), c.next_change_ms(c_t)) == (
                    fresh.sample_alpha(c_t), fresh.next_change_ms(c_t))
                c_t = c.next_change_ms(c_t)
                t = walk(p, t, t + 1.0)  # the original walks on meanwhile
            assert seedings == []

    def test_backward_query_replays_only_before_the_segment(self, seedings):
        p = make_profile("graph_irregular", seed=3)
        assert seedings == ["3:levels", "3:stalls"]
        start = walk(p, 0.0, 1_000.0)
        end = p.next_change_ms(start)
        mid = (start + end) / 2.0
        expected = [(p.sample_alpha(u), p.next_change_ms(u)) for u in (mid, start)]
        seedings.clear()
        p.sample_alpha(math.nextafter(end, start))
        assert [(p.sample_alpha(u), p.next_change_ms(u)) for u in (mid, start)] == expected
        assert seedings == []
        before = math.nextafter(start, 0.0)
        fresh = make_profile("graph_irregular", seed=3)
        seedings.clear()
        assert (p.sample_alpha(before), p.next_change_ms(before)) == (
            fresh.sample_alpha(before), fresh.next_change_ms(before))
        assert seedings == ["3:levels", "3:stalls"]


class TestStreamContract:
    @pytest.mark.parametrize("kind", VARYING_KINDS)
    @pytest.mark.parametrize("seed", [1, 9001])
    def test_first_200_intervals_match_reference(self, kind, seed):
        p = make_profile(kind, seed=seed)
        at, lv_b, st_b = reference_profile(p, 2000)
        horizon = max(lv_b[200], st_b[200])
        assert horizon < min(lv_b[-1], st_b[-1])
        changes = sorted(set(lv_b[1:] + st_b[1:]))
        t = 0.0
        for expected_next in changes:
            if t > horizon:
                break
            alpha, nxt = at(t)
            assert nxt == expected_next
            assert p.sample_alpha(t) == alpha
            assert p.next_change_ms(t) == expected_next
            t = expected_next

    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from(VARYING_KINDS), seed=st.integers(0, 2**31),
           start=st.integers(0, 299),
           moves=st.lists(st.one_of(st.integers(-3, 3), st.integers(-300, 300)),
                          min_size=1, max_size=40),
           where=st.lists(st.sampled_from(["at", "ulp_before", "mid"]), min_size=40,
                          max_size=40),
           next_first=st.booleans())
    def test_any_query_order_matches_reference(self, kind, seed, start, moves, where,
                                               next_first):
        # Walk the change times back and forth, in small steps and long jumps,
        # querying exactly at a change, one ulp before it or between two: a
        # lookup that reused a stale interval would answer for the wrong one.
        p = make_profile(kind, seed=seed)
        at, lv_b, st_b = reference_profile(p, 400)
        changes = sorted(set(lv_b[1:] + st_b[1:]))
        assert changes[299] < min(lv_b[-1], st_b[-1])
        k = start
        for move, spot in zip(moves, where):
            k = min(max(k + move, 1), 299)
            t = {"at": changes[k], "ulp_before": math.nextafter(changes[k], 0.0),
                 "mid": (changes[k - 1] + changes[k]) / 2.0}[spot]
            if next_first:
                nxt = p.next_change_ms(t)
                assert (p.sample_alpha(t), nxt) == at(t)
            else:
                assert (p.sample_alpha(t), p.next_change_ms(t)) == at(t)


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
