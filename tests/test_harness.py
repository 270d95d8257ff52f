import copy
import csv
import hashlib
import io
import math
import pickle
import re
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from powerreg import harness
from powerreg.controller import IntegralController, gain, tracking_error
from powerreg.freqset import DEFAULT_LEVELS, DEFAULT_OMEGA
from powerreg.harness import (
    _CHUNK_ROWS,
    _KEYS,
    _parse_float_list,
    CSV_COLUMNS,
    DEFAULT_CONFIG_TEXT,
    ConfigError,
    ExperimentConfig,
    Trace,
    TraceRecord,
    config_from_pairs,
    error_split,
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
from powerreg.plant import Plant, PlantParams
from powerreg.sysid import CubicModel, RlsEstimator
from powerreg.workload import KINDS, make_profile


def make_record(t_ms, power_w, target_w=10.0, freq=2.0):
    err = target_w - power_w
    return TraceRecord(t_ms, freq, power_w, target_w, err, 0.25,
                       0.08, 0.48, 1.02, 0.9, 4.0,
                       abs(err) <= 0.05 * target_w)


def synthetic_trace(powers, cycle_ms=10, target_w=10.0):
    return Trace([make_record(float(k * cycle_ms), p, target_w) for k, p in enumerate(powers)])


# Edge cases of %g text: signed zeros, non-finite values, subnormals, the
# switch to exponent form at both ends (999999.5 rounds up to "1e+06";
# 9.999995e-05 rounds up to "0.0001"), ties at the sixth digit and the
# largest float.
SPECIAL_FLOATS = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310,
                  1e16, 123456.5, 1234565.0, 0.1, 9.9999995, 1e-5, 1.7976931348623157e308,
                  999999.5, 0.0001, 9.999995e-05)

RECORD_LISTS = st.lists(st.builds(
    TraceRecord, *[st.floats() | st.sampled_from(SPECIAL_FLOATS)] * 11, settled=st.booleans()))


# SHA-256 of the seed-1 trace CSV of each benchmark config (workload kind,
# cycle_ms), cut to 4 s. Refactors and speed-ups keep these traces
# byte-identical. A change that alters a trajectory on purpose updates the
# digests and says so in CHANGES.md.
BENCHMARK_TRACE_DIGESTS = {
    ("constant", 30): "6a165a6e3a81668751d93f56d82153bafc363b826be61fb9e50087cd6d6c63b5",
    ("graph_irregular", 10): "2c4b7df93827c30eb3ef7c2634afadf9690855861c6ec1a99fcf917e4a556118",
    ("compute_bound", 1): "6690d704458ffca7b8354cff1ae331b2417c526529c91bd7fbca1edd2bef70e6",
}


def non_finite_rows():
    """One (text, pattern) row per float-valued schema key and value nan, inf
    and -inf; a list key gets the value as its first item. The error must
    start with the key's section, so the layer that refused it is named."""
    rows = []
    for key in _KEYS.values():
        if key.parse not in (float, _parse_float_list):
            continue
        for bad in ("nan", "inf", "-inf"):
            value = bad if key.parse is float else ",".join([bad, *key.default.split(",")[1:]])
            rows.append(pytest.param(f"{key.name}={value}", "^" + key.name.split(".")[0],
                                     id=f"{key.name}={bad}"))
    return rows


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
        ("controller.projected_state=maybe", "projected_state"),
        ("workload.switch_period_ms=1e-7", "switch_period_ms"),
        ("workload.kind=memory_bound\nworkload.switch_period_ms=0.004", "switch_period_ms"),
        ("workload.kind=memory_bound\nworkload.stall_fraction=0.99995", "stall_fraction"),
        *non_finite_rows(),
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

    def test_every_commented_default_parses_once_uncommented(self):
        # Each optional key's line, with its "# " removed, is a valid setting:
        # a note after the example value is a comment, not part of it.
        text = re.sub(r"^# (?=\S+ = )", "", DEFAULT_CONFIG_TEXT, flags=re.M)
        cfg = parse_config(text)
        assert cfg.counter_phase_ms == 0.0
        assert cfg.out_path == "trace.csv"
        # The workload's example values are the compute_bound preset.
        assert cfg.workload._replace(kind="compute_bound") == make_profile("compute_bound", seed=1)

    def test_repeated_key_rejected(self):
        with pytest.raises(ConfigError, match=r"line 3: 'target_w' is already set on line 1"):
            parse_pairs("target_w=5\ncycle_ms=10\ntarget_w=7")

    @pytest.mark.parametrize("changes,key", [
        (dict(deriv_floor=0.0), "deriv_floor"),
        (dict(counter_phase_ms=1.5), "counter_phase"),
        (dict(rls_forgetting=0.0), "forgetting"),
        (dict(rls_x0=(1.0, 2.0, 3.0)), "rls.x0"),
        (dict(cycle_ms=True), "cycle_ms"),
        (dict(seed=True), "seed"),
        (dict(settle_band_frac=0.5), "settle_band_frac"),
    ])
    def test_validate_reaches_each_owner(self, changes, key):
        # A config built directly, not parsed, is checked by the same rules.
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**changes).validate()


@pytest.mark.parametrize("record, changes, error", [
    pytest.param(PlantParams(), dict(cap=-1.0), "cap must be > 0", id="PlantParams"),
    pytest.param(make_profile("memory_bound", seed=3), dict(stall_fraction=1.0),
                 r"stall_fraction must be in \[0, 1\)", id="WorkloadProfile"),
    pytest.param(DEFAULT_OMEGA, dict(levels=(2.0, 1.0)), "strictly increasing",
                 id="FrequencySet"),
    pytest.param(ExperimentConfig(), dict(workload=None, seed=True),
                 "workload: seed must be an int", id="ExperimentConfig"),
    pytest.param(CubicModel(1.5, -2.0, 3.25, 1e-300), dict(a=math.nan),
                 "^coefficient a must be finite$", id="CubicModel"),
])
def test_config_parts_are_immutable_values(record, changes, error):
    # Equal and hashable by their fields; pickled and deep-copied to the same
    # type and value; no field can be assigned and no attribute added; and
    # `_replace` makes a copy through the same checks as the constructor.
    twin = type(record)(**record._asdict())
    assert twin == record and twin is not record and hash(twin) == hash(record)
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is type(record) and copied == record
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.not_a_field = 0
    with pytest.raises(ValueError, match=error):
        record._replace(**changes)


class TestRunExperiment:
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

    def test_fine_ladder_converges_tightly(self):
        # 2601 levels 1 MHz apart over the default range: without the default
        # ladder's quantization the loop settles to within 0.1% of target.
        omega = ",".join(str(mhz / 1000) for mhz in range(800, 3401))
        cfg = config_from_pairs({"omega": omega, "plant.kappa": "0",
                                 "plant.counter_phase": "0", "duration_ms": "600"})
        assert len(cfg.frequency_set().levels) == 2601
        trace = run_experiment(cfg)
        assert abs(trace[50].error_w) < 1e-3 * cfg.target_w

    def test_different_seed_changes_trace(self):
        t1 = run_experiment(parse_config("workload.kind=graph_irregular\nseed=1\nduration_ms=500"))
        t2 = run_experiment(parse_config("workload.kind=graph_irregular\nseed=2\nduration_ms=500"))
        assert [r.power_w for r in t1] != [r.power_w for r in t2]

    def test_invalid_config_fails_before_simulation(self):
        cfg = parse_config("")
        bad = cfg._replace(cycle_ms=0)
        with pytest.raises(ConfigError):
            run_experiment(bad)

    def test_binds_the_names_the_benchmark_swaps(self):
        # perfbench/layers.py times the loop by rebinding these module names
        # to proxies, so each must stay bound, used by the loop or not.
        expected = {"Plant": Plant, "RlsEstimator": RlsEstimator,
                    "IntegralController": IntegralController, "gain": gain,
                    "tracking_error": tracking_error, "TraceRecord": TraceRecord}
        assert {name: vars(harness).get(name) for name in expected} == expected

    def test_trace_holds_at_most_100_bytes_per_cycle(self):
        # The benchmark's fast_control run: 20,000 cycles of 1 ms. A named
        # tuple of new float objects per cycle takes about 369 bytes.
        cfg = config_from_pairs({"workload.kind": "compute_bound", "cycle_ms": "1",
                                 "duration_ms": "20000", "seed": "1"})
        tracemalloc.start()
        try:
            trace = run_experiment(cfg)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(trace) == 20_000
        assert held / len(trace) <= 100


# Each benchmark config at seed 1, and the steady-band config of
# test_acceptance.py (constant activity, kappa = 0, 6.8 W) at four counter
# phases; all 4 s long.
LAW_CONFIGS = [
    pytest.param({"workload.kind": kind, "cycle_ms": str(cycle_ms), "seed": "1"},
                 id=f"{kind}@{cycle_ms}")
    for kind, cycle_ms in BENCHMARK_TRACE_DIGESTS
] + [
    pytest.param({"plant.kappa": "0", "target_w": "6.8", "plant.counter_phase": phase},
                 id=f"band@phase{phase}")
    for phase in ("0", "0.25", "0.5", "0.75")
]


@pytest.mark.parametrize("projected", [True, False], ids=["projected", "raw"])
@pytest.mark.parametrize("pairs", LAW_CONFIGS)
def test_trace_replays_its_own_law(pairs, projected):
    # Each row's error and gain are those its power and slope give, and the
    # next row's frequency is the one they command: from the row's own
    # frequency under the projected law, from the running unprojected sum
    # under the raw law. All bit for bit.
    cfg = config_from_pairs({**pairs, "duration_ms": "4000",
                             "controller.projected_state": str(projected).lower()})
    trace = run_experiment(cfg)
    omega = cfg.frequency_set()
    raw = cfg.u0
    for k, rec in enumerate(trace):
        assert rec.error_w.hex() == (rec.target_w - rec.power_w).hex()
        assert rec.gain.hex() == gain(rec.deriv_est, cfg.deriv_floor).hex()
        raw = (rec.freq_ghz if projected else raw) + rec.gain * rec.error_w
        if k + 1 < len(trace):
            assert trace[k + 1].freq_ghz.hex() == omega.project(raw).hex()


@pytest.mark.parametrize("kind", KINDS)
def test_rerunning_a_config_replays_its_workload(kind):
    # A second run of the same config object restarts its profile at t = 0,
    # which replays the profile's streams from their start.
    cfg = config_from_pairs({"workload.kind": kind, "duration_ms": "2000", "seed": "3"})
    first = run_experiment(cfg)
    assert run_experiment(cfg) == first
    longer = run_experiment(cfg._replace(duration_ms=4000.0))
    assert Trace(longer[:len(first)]) == first


@settings(max_examples=100, deadline=None)
@given(records=RECORD_LISTS, data=st.data())
def test_trace_is_a_sequence_of_its_records(records, data):
    # Records are compared by repr, which takes nan for nan and tells signed
    # zeros and a settled flag's type apart, where tuple equality would not.
    trace = Trace(records)
    n = len(records)
    assert len(trace) == n
    assert repr(list(trace)) == repr(records)
    assert repr([trace[i] for i in range(-n, n)]) == repr(records + records)
    assert all(type(rec.settled) is bool for rec in trace)
    for past_end in (n, -n - 1):
        with pytest.raises(IndexError):
            trace[past_end]
    window = data.draw(st.slices(n))
    assert type(trace[window]) is list
    assert repr(trace[window]) == repr(records[window])
    assert trace == Trace(records) and trace != records  # equal only to a Trace
    if records:
        last = records[-1]
        assert trace != Trace(records[:-1] + [last._replace(settled=not last.settled)])
        assert trace != Trace(records[:-1])


class TestSettlingTime:
    def test_first_entry_into_band(self):
        powers = [6.0, 7.0, 8.0] + [10.1] * 5
        assert settling_time(synthetic_trace(powers), 10.0, 0.05) == 30.0

    def test_trace_starting_inside_band(self):
        assert settling_time(synthetic_trace([10.0, 10.1]), 10.0, 0.05) == 0.0

    def test_never_entering_returns_none(self):
        assert settling_time(synthetic_trace([5.0, 6.0, 20.0]), 10.0, 0.05) is None

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            settling_time(Trace([]), 10.0, 0.05)

    @pytest.mark.parametrize("kind, cycle_ms", BENCHMARK_TRACE_DIGESTS)
    def test_settled_flag_and_settling_time_share_one_band(self, kind, cycle_ms):
        # run_experiment sets each record's flag, and settling_time tests the
        # power against the band on its own: the two must share one band. A
        # one-record trace settles iff its power is in the band.
        cfg = config_from_pairs({"workload.kind": kind, "cycle_ms": str(cycle_ms),
                                 "duration_ms": "4000", "seed": "1"})
        trace = run_experiment(cfg)
        band = cfg.target_w, cfg.settle_band_frac
        assert [rec.settled for rec in trace] == [
            settling_time(Trace([rec]), *band) is not None for rec in trace]
        first = next(rec.t_ms for rec in trace if rec.settled)
        assert settling_time(trace, *band) == first


class TestSteadyError:
    def test_zero_when_all_on_target(self):
        trace = synthetic_trace([10.0] * 100)
        assert steady_error(trace, 10.0, 300.0) == 0.0

    def test_symmetric_oscillation_averages_out(self):
        powers = [9.5, 10.5] * 50
        assert steady_error(synthetic_trace(powers), 10.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_settle_beyond_trace_end_rejected(self):
        trace = synthetic_trace([10.0] * 10)
        for settle_ms in (95.0, math.nan):
            with pytest.raises(ValueError, match="no records at or after"):
                steady_error(trace, 10.0, settle_ms)
        with pytest.raises(ValueError, match="non-empty"):
            steady_error(Trace([]), 10.0, 0.0)


class TestCsv:
    def test_wrong_or_missing_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        for text in (",".join(reversed(CSV_COLUMNS)) + "\n", ""):
            path.write_text(text)
            with pytest.raises(ValueError, match="unexpected CSV header"):
                read_csv(str(path))

    @pytest.mark.parametrize("row", [
        "0,2,10,10,0,0.25,0,0,0,0,4",          # short row
        "0,2,10,10,0,0.25,0,0,0,0,4,1,extra",  # extra column
        "0,2,10,10,0,0.25,0,0,0,0,4,yes",      # settled not 0/1
        "0,2,x,10,0,0.25,0,0,0,0,4,1",         # cell not a number
    ])
    def test_malformed_row_names_path_and_line(self, tmp_path, row):
        path = tmp_path / "t.csv"
        good = "0,2,10,10,0,0.25,0,0,0,0,4,1"
        path.write_text(",".join(CSV_COLUMNS) + f"\n{good}\n{row}\n")
        with pytest.raises(ValueError, match=rf"t\.csv, line 3: expected 12 columns"):
            read_csv(str(path))

    def test_write_failure_carries_path(self, tmp_path):
        with pytest.raises(OSError):
            write_csv(Trace([]), str(tmp_path / "missing" / "t.csv"))

    @settings(max_examples=100, deadline=None)
    @given(trace=RECORD_LISTS)
    @example(trace=[])
    # 0.0 and -0.0 compare equal but print "0" and "-0": each row keeps its own.
    @example(trace=[TraceRecord(0.0, z, 1.0, z, *[1.0] * 7, settled=True) for z in (0.0, -0.0)])
    @example(trace=[TraceRecord(0.0, z, 1.0, z, *[1.0] * 7, settled=True) for z in (-0.0, 0.0)])
    @example(trace=[TraceRecord(*SPECIAL_FLOATS[:11], settled=True),
                    TraceRecord(*SPECIAL_FLOATS[-11:], settled=False)])
    def test_rows_match_csv_writer_reference(self, tmp_path_factory, trace):
        path = tmp_path_factory.getbasetemp() / "rows.csv"
        write_csv(Trace(trace), str(path))
        assert path.read_bytes() == reference_csv(trace).encode()
        back = read_csv(str(path))
        assert len(back) == len(trace)
        for orig, rt in zip(trace, back):
            assert rt.settled == orig.settled
            values = [getattr(orig, name) for name in CSV_COLUMNS[:-1]]
            if all(map(math.isfinite, values)):
                assert [getattr(rt, name) for name in CSV_COLUMNS[:-1]] == [
                    float(format(v, ".6g")) for v in values]

    @pytest.mark.parametrize("rows", [0, 1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1,
                                      2 * _CHUNK_ROWS + 1])
    def test_rows_survive_chunk_boundaries(self, tmp_path, rows):
        # Every row differs, so a chunk written twice, dropped or out of order shows.
        trace = Trace([make_record(float(i), 9.0 + i / 7.0,
                                   freq=DEFAULT_LEVELS[i % len(DEFAULT_LEVELS)])
                       for i in range(rows)])
        path = tmp_path / "t.csv"
        write_csv(trace, str(path))
        assert path.read_bytes() == reference_csv(trace).encode()
        assert read_csv(str(path)) == Trace(
            TraceRecord(*[float(format(getattr(rec, name), ".6g")) for name in CSV_COLUMNS[:-1]],
                        settled=rec.settled)
            for rec in trace)

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
        trace = Trace([make_record(float(t * 10), 10.0, freq=f)
                       for t, f in enumerate([1.0, 2.0, 3.0, 3.0])])
        assert mean_frequency(trace) == pytest.approx(2.25)
        assert mean_frequency(trace, 20.0) == pytest.approx(3.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            mean_frequency(synthetic_trace([10.0]), 50.0)


class TestErrorSplit:
    def test_synthetic_trace_by_hand(self):
        # The first four records fall before the second half and are skipped,
        # pinned or not. Of the last five, the two pinned ones give
        # (-1.0 + 1.5) / 5 and the other three (0.5 - 0.5 + 0.25) / 5: the top
        # level above target and the bottom one below it are not pinned.
        cycles = [(3.4, 5.0), (0.8, 15.0), (2.0, 9.0), (2.0, 9.0),
                  (3.4, 9.0), (0.8, 11.5), (3.4, 10.5), (0.8, 9.5), (2.0, 10.25)]
        trace = Trace([make_record(float(k * 10), power, freq=freq)
                       for k, (freq, power) in enumerate(cycles)])
        split = error_split(trace, ExperimentConfig())
        assert split.ceiling_w == pytest.approx(0.1, abs=1e-15)
        assert split.loop_w == pytest.approx(0.05, abs=1e-15)
        assert split.pinned_share == 0.4

    @given(cycles=st.lists(st.tuples(st.sampled_from(DEFAULT_LEVELS),
                                     st.floats(0.0, 100.0)), min_size=1))
    def test_terms_add_up_to_the_signed_error(self, cycles):
        trace = Trace([make_record(float(k), power, freq=freq)
                       for k, (freq, power) in enumerate(cycles)])
        half = [power - 10.0 for _, power in cycles[len(cycles) // 2:]]
        split = error_split(trace, ExperimentConfig())
        assert abs(split.ceiling_w + split.loop_w - math.fsum(half) / len(half)) <= 1e-12
        assert 0.0 <= split.pinned_share <= 1.0

    def test_run_pinned_at_the_top_level_has_no_loop_term(self):
        # No level reaches 30 W, so the loop climbs to the top and stays.
        cfg = parse_config("target_w=30")
        trace = run_experiment(cfg)
        second_half = trace[len(trace) // 2:]
        assert {rec.freq_ghz for rec in second_half} == {max(DEFAULT_LEVELS)}
        split = error_split(trace, cfg)
        assert (split.loop_w, split.pinned_share) == (0.0, 1.0)
        assert split.ceiling_w == pytest.approx(
            math.fsum(rec.power_w for rec in second_half) / len(second_half) - 30.0)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            error_split(Trace([]), ExperimentConfig())


class TestSummarize:
    def test_settled_run(self):
        trace = synthetic_trace([5.0, 8.0, 10.1, 9.9, 10.3])
        cfg = ExperimentConfig(cycle_ms=10)
        row = summarize(trace, cfg)
        assert (row.scenario, row.cycle_ms, row.settling_ms) == ("constant", 10, 20.0)
        assert row.error_w == pytest.approx(steady_error(trace, 10.0, 20.0))
        assert row.mean_freq_ghz == mean_frequency(trace, 20.0)

    def test_unsettled_run_has_no_error_and_averages_the_whole_run(self, tmp_path):
        trace = Trace([make_record(float(t * 10), 3.0, freq=f) for t, f in enumerate([1.0, 2.0])])
        row = summarize(trace, ExperimentConfig())
        assert (row.settling_ms, row.error_w, row.mean_freq_ghz) == (None, None, 1.5)
        # and its sweep CSV row leaves both cells empty
        path = tmp_path / "sweep.csv"
        write_sweep_csv([row], str(path))
        assert path.read_text().splitlines()[1] == "constant,10,,,1.5"


class TestSweep:
    def test_rows_are_sorted_and_complete(self, tmp_path):
        base = parse_config("duration_ms=600")
        rows = run_sweep(base)
        assert [(r.scenario, r.cycle_ms) for r in rows] == [
            ("compute_bound", 10), ("compute_bound", 30),
            ("graph_irregular", 10), ("graph_irregular", 30),
            ("memory_bound", 10), ("memory_bound", 30),
        ]
        out = tmp_path / "sweep.csv"
        write_sweep_csv(rows, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "scenario,cycle_ms,settling_ms,error_w,mean_freq_ghz"
        assert len(lines) == 7

    def test_row_is_the_run_summary(self):
        base = parse_config("duration_ms=600\nseed=4")
        [row] = [r for r in run_sweep(base)
                 if (r.scenario, r.cycle_ms) == ("graph_irregular", 30)]
        cfg = base._replace(cycle_ms=30, workload=make_profile("graph_irregular", seed=4))
        assert row == summarize(run_experiment(cfg), cfg)

    def test_sweep_is_deterministic(self):
        base = parse_config("duration_ms=400\nseed=9")
        assert run_sweep(base) == run_sweep(base)


def test_record_count_matches_floor_formula():
    for duration, cycle in ((4000, 10), (4000, 30), (100, 30), (31, 30)):
        cfg = parse_config(f"duration_ms={duration}\ncycle_ms={cycle}")
        assert len(run_experiment(cfg)) == math.floor(duration / cycle)
