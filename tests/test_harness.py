import csv
import hashlib
import io
import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from powerreg.freqset import DEFAULT_LEVELS, FrequencyRange
from powerreg.harness import (
    CSV_COLUMNS,
    DEFAULT_CONFIG_TEXT,
    ConfigError,
    ExperimentConfig,
    TraceRecord,
    config_from_pairs,
    mean_frequency,
    parse_config,
    parse_pairs,
    read_csv,
    run_experiment,
    run_sweep,
    settling_time,
    summarize,
    steady_error,
    write_csv,
    write_sweep_csv,
)
from powerreg.workload import KINDS, make_profile


def make_record(t_ms, power_w, target_w=10.0, freq=2.0):
    err = target_w - power_w
    return TraceRecord(t_ms, freq, power_w, target_w, err, 0.25,
                       0.08, 0.48, 1.02, 0.9, 4.0,
                       abs(err) <= 0.05 * target_w)


def synthetic_trace(powers, cycle_ms=10, target_w=10.0):
    return [make_record(float(k * cycle_ms), p, target_w) for k, p in enumerate(powers)]


# Edge cases of %.6g text: signed zeros, non-finite values, subnormals, the
# switch to exponent form, ties at the sixth digit and the largest float.
SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                  1e16, 123456.5, 1234565.0, 0.1, 9.9999995, 1e-5, 1.7976931348623157e308)


# SHA-256 of the seed-1 trace CSV of each benchmark config (workload kind,
# cycle_ms), cut to 4 s. Refactors and speed-ups keep these traces
# byte-identical. A change that alters a trajectory on purpose updates the
# digests and says so in CHANGES.md.
BENCHMARK_TRACE_DIGESTS = {
    ("constant", 30): "6a165a6e3a81668751d93f56d82153bafc363b826be61fb9e50087cd6d6c63b5",
    ("graph_irregular", 10): "2c4b7df93827c30eb3ef7c2634afadf9690855861c6ec1a99fcf917e4a556118",
    ("compute_bound", 1): "6690d704458ffca7b8354cff1ae331b2417c526529c91bd7fbca1edd2bef70e6",
}


def reference_csv(trace):
    """The trace CSV as csv.writer writes it, fields formatted one by one."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in trace:
        writer.writerow([format(getattr(rec, name), ".6g") for name in CSV_COLUMNS[:-1]]
                        + ["1" if rec.settled else "0"])
    return buf.getvalue()


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg.target_w == 10.0
        assert cfg.cycle_ms == 10
        assert cfg.duration_ms == 4000.0
        assert cfg.omega == DEFAULT_LEVELS
        assert cfg.u0 == 2.0
        assert cfg.workload.kind == "constant"
        assert cfg.rls_forgetting == 0.98
        assert cfg.rls_p0 == 1e3
        assert cfg.deriv_floor == 0.1
        assert cfg.projected_state is True
        assert cfg.settle_band_frac == 0.05
        assert cfg.seed == 1

    def test_thirty_ms_cycles(self):
        cfg = parse_config("cycle_ms=30")
        assert cfg.cycle_ms == 30

    def test_fractional_cycle_rejected(self):
        with pytest.raises(ConfigError, match="cycle_ms"):
            parse_config("cycle_ms=7.5")

    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="cycle_mss"):
            parse_config("cycle_mss=10")

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# heading\n\ntarget_w = 5.0  # inline\n")
        assert cfg.target_w == 5.0

    def test_garbage_line_rejected(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config("just some words")

    @pytest.mark.parametrize("text,key", [
        ("target_w=-3", "target_w"),
        ("target_w=nan", "target_w"),
        ("settle_band_frac=0.7", "settle_band_frac"),
        ("u0=0.9", "u0"),
        ("omega=0.0,1.0", "frequency"),
        ("rls.lambda=1.5", "forgetting"),
        ("rls.x0=1,2,3", "rls.x0"),
        ("plant.cap=-1", "cap"),
        ("workload.kind=banana", "workload.kind"),
        ("controller.deriv_floor=0", "deriv_floor"),
        ("plant.counter_phase=1.5", "counter_phase"),
        ("duration_ms=5\ncycle_ms=10", "duration_ms"),
        ("omega_continuous=maybe", "omega_continuous"),
    ])
    def test_invalid_values_name_the_key(self, text, key):
        with pytest.raises(ConfigError, match=key):
            parse_config(text)

    def test_workload_overrides_merge_with_preset(self):
        cfg = parse_config("workload.kind=memory_bound\nworkload.alpha_mean=0.7")
        assert cfg.workload.kind == "memory_bound"
        assert cfg.workload.alpha_mean == 0.7
        assert cfg.workload.stall_fraction == 0.35  # preset value retained

    def test_seed_feeds_workload_profile(self):
        cfg = parse_config("seed=77")
        assert cfg.seed == 77
        assert cfg.workload.seed == 77

    def test_pairs_interface_matches_text_interface(self):
        assert config_from_pairs({"cycle_ms": "30"}) == parse_config("cycle_ms = 30")

    def test_omega_parsing_dedupes(self):
        cfg = parse_config("omega=2.0,1.0,1.0\nu0=1.0")
        assert cfg.frequency_set().levels == (1.0, 2.0)

    def test_defaults_are_stated_once(self):
        assert ExperimentConfig() == parse_config("") == parse_config(DEFAULT_CONFIG_TEXT)
        assert ExperimentConfig(seed=5) == parse_config("seed=5")
        assert ExperimentConfig(seed=5).workload.seed == 5

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match=r"line 3: 'target_w' is already set on line 1"):
            parse_pairs("target_w=5\ncycle_ms=10\ntarget_w=7")

    @pytest.mark.parametrize("changes,key", [
        (dict(deriv_floor=0.0), "deriv_floor"),
        (dict(counter_phase_ms=1.5), "counter_phase"),
        (dict(rls_forgetting=0.0), "forgetting"),
        (dict(rls_x0=(1.0, 2.0, 3.0)), "rls.x0"),
    ])
    def test_validate_reaches_each_owner(self, changes, key):
        # A config built directly, not parsed, is checked by the same rules.
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**changes).validate()


class TestRunExperiment:
    def test_record_count_is_duration_over_cycle(self):
        cfg = parse_config("duration_ms=4000\ncycle_ms=10")
        assert len(run_experiment(cfg)) == 400

    def test_partial_final_cycle_is_dropped(self):
        cfg = parse_config("duration_ms=95\ncycle_ms=10")
        assert len(run_experiment(cfg)) == 9

    def test_time_advances_by_cycle(self):
        cfg = parse_config("duration_ms=300\ncycle_ms=30")
        trace = run_experiment(cfg)
        assert [r.t_ms for r in trace] == [float(t) for t in range(0, 300, 30)]

    def test_frequencies_are_ladder_members(self):
        cfg = parse_config("workload.kind=memory_bound\nduration_ms=1000")
        for rec in run_experiment(cfg):
            assert rec.freq_ghz in DEFAULT_LEVELS

    def test_first_cycle_runs_at_u0(self):
        cfg = parse_config("u0=1.3\nduration_ms=200")
        trace = run_experiment(cfg)
        assert trace[0].freq_ghz == 1.3

    def test_continuous_mode_converges_tightly(self):
        cfg = parse_config(
            "omega_continuous=true\nplant.kappa=0\nplant.counter_phase=0\n"
            "duration_ms=600")
        trace = run_experiment(cfg)
        assert abs(trace[50].error_w) < 1e-3 * cfg.target_w

    def test_continuous_mode_spans_the_ladder(self):
        cfg = parse_config("omega_continuous=true\nomega=3.1,1.0,2.0")
        assert cfg.frequency_set() == FrequencyRange(1.0, 3.1)

    @pytest.mark.slow
    @pytest.mark.parametrize("kind", KINDS)
    def test_continuous_mode_holds_range_for_60_s(self, kind):
        # Unbounded, the Newton step commanded negative frequencies within
        # 60 s on every kind but constant.
        for seed in range(1, 11):
            cfg = config_from_pairs({"omega_continuous": "true", "workload.kind": kind,
                                     "seed": str(seed), "duration_ms": "60000"})
            trace = run_experiment(cfg)
            assert all(0.8 <= rec.freq_ghz <= 3.4 for rec in trace)

    def test_determinism_same_seed_same_bytes(self, tmp_path):
        text = "workload.kind=graph_irregular\nseed=5\nduration_ms=1500"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(parse_config(text)), str(a))
        write_csv(run_experiment(parse_config(text)), str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_changes_trace(self):
        t1 = run_experiment(parse_config("workload.kind=graph_irregular\nseed=1\nduration_ms=500"))
        t2 = run_experiment(parse_config("workload.kind=graph_irregular\nseed=2\nduration_ms=500"))
        assert [r.power_w for r in t1] != [r.power_w for r in t2]

    def test_invalid_config_fails_before_simulation(self):
        cfg = parse_config("")
        bad = replace(cfg, cycle_ms=0)
        with pytest.raises(ConfigError):
            run_experiment(bad)


class TestSettlingTime:
    def test_first_entry_into_band(self):
        powers = [6.0, 7.0, 8.0] + [10.1] * 5
        assert settling_time(synthetic_trace(powers), 10.0, 0.05) == 30.0

    def test_trace_starting_inside_band(self):
        assert settling_time(synthetic_trace([10.0, 10.1]), 10.0, 0.05) == 0.0

    def test_never_entering_returns_none(self):
        assert settling_time(synthetic_trace([5.0, 6.0, 20.0]), 10.0, 0.05) is None

    def test_band_entry_at_cycle_72(self):
        powers = [6.0] * 72 + [9.8] * 328
        assert settling_time(synthetic_trace(powers), 10.0, 0.05) == 720.0

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            settling_time([], 10.0, 0.05)


class TestSteadyError:
    def test_zero_when_all_on_target(self):
        trace = synthetic_trace([10.0] * 100)
        assert steady_error(trace, 10.0, 300.0) == 0.0

    def test_reported_mean_offset(self):
        powers = [6.0] * 72 + [10.2604] * 328
        trace = synthetic_trace(powers)
        assert steady_error(trace, 10.0, 720.0) == pytest.approx(0.2604, abs=1e-12)

    def test_symmetric_oscillation_averages_out(self):
        powers = [9.5, 10.5] * 50
        assert steady_error(synthetic_trace(powers), 10.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_settle_beyond_trace_end_rejected(self):
        trace = synthetic_trace([10.0] * 10)
        with pytest.raises(ValueError):
            steady_error(trace, 10.0, 95.0)


class TestCsv:
    def test_empty_trace_writes_header_only(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv([], str(path))
        assert path.read_text() == ",".join(CSV_COLUMNS) + "\n"

    def test_one_line_per_record_plus_header(self, tmp_path):
        trace = synthetic_trace([10.0] * 400)
        path = tmp_path / "t.csv"
        write_csv(trace, str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 401
        assert path.read_text().endswith("\n")

    def test_round_trip_preserves_six_significant_digits(self, tmp_path):
        cfg = parse_config("workload.kind=memory_bound\nduration_ms=800")
        trace = run_experiment(cfg)
        path = tmp_path / "t.csv"
        write_csv(trace, str(path))
        back = read_csv(str(path))
        assert len(back) == len(trace)
        for orig, rt in zip(trace, back):
            for name in ("t_ms", "freq_ghz", "power_w", "target_w", "error_w",
                         "gain", "coeff_a", "coeff_b", "coeff_c", "coeff_d",
                         "deriv_est"):
                a, b = getattr(orig, name), getattr(rt, name)
                assert b == pytest.approx(a, rel=1e-5, abs=1e-9)
            assert rt.settled == orig.settled

    @pytest.mark.parametrize("row", [
        "0,2,10,10,0,0.25,0,0,0,0,4",          # short row
        "0,2,10,10,0,0.25,0,0,0,0,4,1,extra",  # extra column
        "0,2,10,10,0,0.25,0,0,0,0,4,yes",      # settled not 0/1
    ])
    def test_malformed_row_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "t.csv"
        good = "0,2,10,10,0,0.25,0,0,0,0,4,1"
        path.write_text(",".join(CSV_COLUMNS) + f"\n{good}\n{row}\n")
        with pytest.raises(ValueError, match=rf"t\.csv, line 3: expected 12 columns"):
            read_csv(str(path))

    def test_write_failure_carries_path(self, tmp_path):
        with pytest.raises(OSError):
            write_csv([], str(tmp_path / "missing" / "t.csv"))

    @settings(max_examples=100, deadline=None)
    @given(trace=st.lists(st.builds(
        TraceRecord, *[st.floats() | st.sampled_from(SPECIAL_FLOATS)] * 11,
        settled=st.booleans())))
    @example(trace=[])
    @example(trace=[TraceRecord(*SPECIAL_FLOATS[:11], settled=True),
                    TraceRecord(*SPECIAL_FLOATS[-11:], settled=False)])
    def test_rows_match_csv_writer_reference(self, tmp_path_factory, trace):
        path = tmp_path_factory.getbasetemp() / "rows.csv"
        write_csv(trace, str(path))
        assert path.read_bytes() == reference_csv(trace).encode()
        back = read_csv(str(path))
        assert len(back) == len(trace)
        for orig, rt in zip(trace, back):
            assert rt.settled == orig.settled
            values = [getattr(orig, name) for name in CSV_COLUMNS[:-1]]
            if all(map(math.isfinite, values)):
                assert [getattr(rt, name) for name in CSV_COLUMNS[:-1]] == [
                    float(format(v, ".6g")) for v in values]

    @pytest.mark.parametrize("kind, cycle_ms", BENCHMARK_TRACE_DIGESTS)
    def test_benchmark_trace_digests_are_pinned(self, tmp_path, kind, cycle_ms):
        cfg = config_from_pairs({"workload.kind": kind, "cycle_ms": str(cycle_ms),
                                 "duration_ms": "4000", "seed": "1"})
        path = tmp_path / "t.csv"
        write_csv(run_experiment(cfg), str(path))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == BENCHMARK_TRACE_DIGESTS[kind, cycle_ms]


class TestMeanFrequency:
    def test_mean_over_window(self):
        trace = [make_record(float(t * 10), 10.0, freq=f)
                 for t, f in enumerate([1.0, 2.0, 3.0, 3.0])]
        assert mean_frequency(trace) == pytest.approx(2.25)
        assert mean_frequency(trace, 20.0) == pytest.approx(3.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            mean_frequency(synthetic_trace([10.0]), 50.0)


class TestSummarize:
    def test_settled_run(self):
        trace = synthetic_trace([5.0, 8.0, 10.1, 9.9, 10.3])
        cfg = ExperimentConfig(cycle_ms=10)
        row = summarize(trace, cfg)
        assert (row.scenario, row.cycle_ms, row.settling_ms) == ("constant", 10, 20.0)
        assert row.error_w == pytest.approx(steady_error(trace, 10.0, 20.0))
        assert row.mean_freq_ghz == mean_frequency(trace, 20.0)

    def test_unsettled_run_has_no_error_and_averages_the_whole_run(self):
        trace = [make_record(float(t * 10), 3.0, freq=f) for t, f in enumerate([1.0, 2.0])]
        row = summarize(trace, ExperimentConfig())
        assert (row.settling_ms, row.error_w, row.mean_freq_ghz) == (None, None, 1.5)


class TestSweep:
    def test_rows_are_sorted_and_complete(self, tmp_path):
        base = parse_config("duration_ms=600")
        rows = run_sweep(base, kinds=("memory_bound", "compute_bound"),
                         cycles=(30, 10))
        assert [(r.scenario, r.cycle_ms) for r in rows] == [
            ("compute_bound", 10), ("compute_bound", 30),
            ("memory_bound", 10), ("memory_bound", 30),
        ]
        out = tmp_path / "sweep.csv"
        write_sweep_csv(rows, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "scenario,cycle_ms,settling_ms,error_w,mean_freq_ghz"
        assert len(lines) == 5

    def test_row_is_the_run_summary(self):
        base = parse_config("duration_ms=600\nseed=4")
        [row] = run_sweep(base, kinds=("graph_irregular",), cycles=(30,))
        cfg = replace(base, cycle_ms=30, workload=make_profile("graph_irregular", seed=4))
        assert row == summarize(run_experiment(cfg), cfg)

    def test_sweep_is_deterministic(self):
        base = parse_config("duration_ms=400\nseed=9")
        r1 = run_sweep(base, kinds=("compute_bound",), cycles=(10,))
        r2 = run_sweep(base, kinds=("compute_bound",), cycles=(10,))
        assert r1 == r2


def test_config_validate_accepts_defaults():
    ExperimentConfig().validate()


def test_config_rejects_bad_band():
    cfg = ExperimentConfig(settle_band_frac=0.5)
    with pytest.raises(ConfigError):
        cfg.validate()


def test_record_count_matches_floor_formula():
    for duration, cycle in ((4000, 10), (4000, 30), (100, 30), (31, 30)):
        cfg = parse_config(f"duration_ms={duration}\ncycle_ms={cycle}")
        assert len(run_experiment(cfg)) == math.floor(duration / cycle)
