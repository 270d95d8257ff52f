"""Experiment runner: closed-loop power regulation with trace and metrics.

One experiment wires the plant, the workload, the RLS identifier, and the
integral controller into the per-cycle loop: advance the plant one control
cycle, derive average power from the energy counter, refresh the model,
compute the next frequency, apply it. Each cycle appends one record to the
run's Trace, which keeps the numbers packed as C doubles.

Configuration is a flat key=value text format with dotted section prefixes.
The schema table _SCHEMA names every key once, with its parser and its
default; ExperimentConfig's defaults, the parsing in config_from_pairs and
DEFAULT_CONFIG_TEXT (what `powerreg defaults` prints) all come from it.
Traces round-trip through a fixed-schema CSV.
"""

from __future__ import annotations

import csv
import math
import re
from array import array
from struct import Struct
from typing import Iterable, Iterator, NamedTuple

from ._record import Checked
# gain and tracking_error stay bound here for perfbench to swap timing proxies into.
from .controller import DEFAULT_DERIV_FLOOR, IntegralController, gain, tracking_error
from .freqset import DEFAULT_LEVELS, FrequencySet, check_frequency
from .plant import Plant, PlantParams
from .sysid import CubicModel, RlsEstimator
from .workload import WorkloadProfile, make_profile


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or violated config invariants."""


class TraceRecord(NamedTuple):
    """One control cycle: what ran, what was measured, what the loop computed."""

    t_ms: float
    freq_ghz: float
    power_w: float
    target_w: float
    error_w: float
    gain: float
    coeff_a: float
    coeff_b: float
    coeff_c: float
    coeff_d: float
    deriv_est: float
    settled: bool


# A record's numbers, every field but settled, as C doubles in field order.
# Native layout: eleven doubles have no padding, so the bytes are an
# array('d')'s, and struct copies each double as is instead of converting it
# through the portable IEEE format that "=" asks for.
_NUMBERS = Struct("11d")
_pack = _NUMBERS.pack
_COLUMN = {name: i for i, name in enumerate(TraceRecord._fields[:-1])}


def _as_record(numbers: tuple[float, ...], settled: int) -> TraceRecord:
    # tuple.__new__ skips the named tuple's __new__, a Python function.
    return tuple.__new__(TraceRecord, (*numbers, settled == 1))


class Trace:
    """One run's records, kept as C doubles: each record's eleven numbers in
    field order, row after row, and one byte for its settled flag.

    A read-only sequence of TraceRecord, built one at a time as it is read:
    `len`, indexing from either end, slices (a list of records) and
    iteration. `Trace(records)` packs a sequence of records, and `column`
    reads one numeric field of them all without building any. Two traces are
    equal when they hold the same flags and the same numbers bit for bit, so
    nan equals nan and -0.0 differs from 0.0 (the two write different CSV
    text); a trace equals no other kind of object.
    """

    __slots__ = ("_numbers", "_settled")

    def __init__(self, records: Iterable[TraceRecord] = ()) -> None:
        self._numbers = array("d")
        self._settled = bytearray()
        for *numbers, settled in records:
            self._numbers.frombytes(_pack(*numbers))
            self._settled.append(bool(settled))

    def __len__(self) -> int:
        return len(self._settled)

    def __getitem__(self, index: int | slice) -> TraceRecord | list[TraceRecord]:
        try:
            i = range(len(self._settled))[index]
        except IndexError:
            raise IndexError("trace index out of range") from None
        if isinstance(i, range):
            return [self._record(j) for j in i]
        return self._record(i)

    def _record(self, i: int) -> TraceRecord:
        return _as_record(_NUMBERS.unpack_from(self._numbers, i * _NUMBERS.size),
                          self._settled[i])

    def __iter__(self) -> Iterator[TraceRecord]:
        return map(_as_record, _NUMBERS.iter_unpack(self._numbers), self._settled)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self._settled == other._settled
                and self._numbers.tobytes() == other._numbers.tobytes())

    def column(self, name: str) -> memoryview:
        """One numeric field of every record, in order: a read-only view of
        the packed numbers, which copies none of them."""
        return memoryview(self._numbers).toreadonly()[_COLUMN[name]::len(_COLUMN)]


# -- config schema ------------------------------------------------------------

def _parse_int(text: str) -> int:
    v = float(text)
    if not v.is_integer():
        raise ValueError("must be an integer")
    return int(v)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ValueError("must be a boolean (true/false)")


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",") if part.strip())


class _Key(NamedTuple):
    """One config key: its parser (text to value, raising ValueError; the
    layer that takes the value checks its range, finiteness included), its
    default as `powerreg defaults` prints it, and the ExperimentConfig field
    it sets (the key itself unless named; plant.<name> and workload.<name>
    are fields of those parts). An optional key is printed commented out,
    with an example value, and is unset unless given."""

    name: str
    parse: object
    default: str
    optional: bool = False
    field_name: str = ""


# Every config key, in the sections and order `powerreg defaults` prints.
# The plant's defaults, the workload example values (the compute_bound
# preset), the ladder and the derivative floor are stated by the modules
# that own them, and only printed here.
_SCHEMA: tuple[tuple[str, tuple[_Key, ...]], ...] = (
    ("experiment", (
        _Key("target_w", float, "10.0"),
        _Key("cycle_ms", _parse_int, "10"),
        _Key("duration_ms", float, "4000"),
        _Key("omega", _parse_float_list, ",".join(map(str, DEFAULT_LEVELS))),
        _Key("u0", float, "2.0"),
        _Key("settle_band_frac", float, "0.05"),
        _Key("seed", _parse_int, "1"),
        _Key("out_path", str, "trace.csv", optional=True),
    )),
    ("workload (unset numeric fields fall back to the kind's preset)", (
        _Key("workload.kind", str, "constant"),
    ) + tuple(
        _Key(f"workload.{name}", float, repr(value), optional=True)
        for name, value in make_profile("compute_bound", seed=0)._asdict().items()
        if name not in ("kind", "seed")
    )),
    ("plant", tuple(
        _Key(f"plant.{name}", float, repr(value))
        for name, value in PlantParams()._asdict().items()
    ) + (
        _Key("plant.counter_phase", float, "0.0   # unset: drawn from the seed",
             optional=True, field_name="counter_phase_ms"),
    )),
    ("identification", (
        _Key("rls.lambda", float, "0.98", field_name="rls_forgetting"),
        _Key("rls.p0", float, "1e3", field_name="rls_p0"),
        _Key("rls.x0", _parse_float_list, "0,0,0,0", field_name="rls_x0"),
    )),
    ("controller", (
        _Key("controller.deriv_floor", float, str(DEFAULT_DERIV_FLOOR),
             field_name="deriv_floor"),
        _Key("controller.projected_state", _parse_bool, "true", field_name="projected_state"),
    )),
)

_KEYS = {key.name: key for _, keys in _SCHEMA for key in keys}

# Parsed default of every key that has one, by the field it sets.
_DEFAULTS = {
    key.field_name or key.name: key.parse(key.default)
    for key in _KEYS.values() if not key.optional
}


def _section_text(heading: str, keys: tuple[_Key, ...]) -> str:
    lines = [f"# {heading}"]
    lines += [f"{'# ' if key.optional else ''}{key.name} = {key.default}" for key in keys]
    return "\n".join(lines) + "\n"


# What `powerreg defaults` prints: the sections, a blank line apart.
DEFAULT_CONFIG_TEXT = "\n".join(_section_text(*section) for section in _SCHEMA)


class _ConfigFields(NamedTuple):
    target_w: float = _DEFAULTS["target_w"]
    cycle_ms: int = _DEFAULTS["cycle_ms"]
    duration_ms: float = _DEFAULTS["duration_ms"]
    omega: tuple[float, ...] = _DEFAULTS["omega"]
    u0: float = _DEFAULTS["u0"]
    workload: WorkloadProfile | None = None
    plant: PlantParams = PlantParams()
    counter_phase_ms: float | None = None
    rls_forgetting: float = _DEFAULTS["rls_forgetting"]
    rls_p0: float = _DEFAULTS["rls_p0"]
    rls_x0: tuple[float, float, float, float] = _DEFAULTS["rls_x0"]
    deriv_floor: float = _DEFAULTS["deriv_floor"]
    projected_state: bool = _DEFAULTS["projected_state"]
    settle_band_frac: float = _DEFAULTS["settle_band_frac"]
    seed: int = _DEFAULTS["seed"]
    out_path: str | None = None


class ExperimentConfig(Checked, _ConfigFields):
    """One experiment's settings, an immutable named tuple; each default
    comes from the schema table, and `_replace` makes a changed copy.

    workload None stands for the default workload kind, drawn from seed.
    """

    __slots__ = ()

    def __new__(cls, *args: object, **kwargs: object) -> "ExperimentConfig":
        self = super().__new__(cls, *args, **kwargs)
        if self.workload is None:
            self = self._replace(workload=_check(
                "workload", make_profile, _DEFAULTS["workload.kind"], seed=self.seed))
        return self

    def frequency_set(self) -> FrequencySet:
        """The ladder omega, sorted and without duplicates."""
        return FrequencySet.from_list(self.omega)

    def validate(self) -> None:
        """Raise ConfigError for the first setting the loop would reject."""
        _build_loop(self)


def _check(section: str, build, /, *args, **kwargs):
    """Call build, raising a ValueError from it as a ConfigError naming section."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _build_loop(config: ExperimentConfig) -> tuple[Plant, RlsEstimator, IntegralController]:
    """Check config and build the loop's plant, estimator and controller.

    The loop's own settings are checked here; every other setting is checked
    by the layer that takes it, when that layer is built.
    """
    # bool is an int, and True would run 1 ms cycles.
    if not (type(config.cycle_ms) is int and config.cycle_ms >= 1):
        raise ConfigError("cycle_ms: must be an integer number of ms, >= 1")
    if not (math.isfinite(config.duration_ms) and config.duration_ms >= config.cycle_ms):
        raise ConfigError("duration_ms: must be at least one control cycle")
    if not (math.isfinite(config.target_w) and config.target_w > 0.0):
        raise ConfigError("target_w: must be positive and finite")
    if not 0.0 < config.settle_band_frac < 0.5:
        raise ConfigError("settle_band_frac: must be in (0, 0.5)")
    omega = _check("omega", config.frequency_set)
    _check("u0", check_frequency, config.u0, omega)
    plant = _check("plant", Plant, config.plant, config.workload, u0=config.u0,
                   omega=omega, seed=config.seed, counter_phase_ms=config.counter_phase_ms)
    x0 = _check("rls.x0", CubicModel.from_array, config.rls_x0)
    estimator = _check("rls", RlsEstimator, config.rls_forgetting, config.rls_p0, x0)
    controller = _check("controller", IntegralController, omega, config.u0,
                        deriv_floor=config.deriv_floor,
                        projected_state=config.projected_state)
    return plant, estimator, controller


def run_experiment(config: ExperimentConfig) -> Trace:
    """Run one closed-loop experiment and return its per-cycle trace."""
    plant, estimator, controller = _build_loop(config)
    cycle_ms, target = config.cycle_ms, config.target_w
    cycle_s = cycle_ms * 1e-3
    n_cycles = int(config.duration_ms // cycle_ms)
    band_lo, band_hi = settling_band(target, config.settle_band_frac)

    # Each cycle packs its record's numbers straight into the trace, in
    # TraceRecord's field order, and builds no record.
    trace = Trace()
    pack, store, store_settled = _pack, trace._numbers.frombytes, trace._settled.append
    u = config.u0
    prev_energy = plant.read_energy()
    for k in range(n_cycles):
        # The first cycle just measures the starting power at u0; control
        # actions begin once there is a measurement to react to.
        plant.advance(cycle_ms)
        now_energy = plant.read_energy()
        y = (now_energy - prev_energy) / cycle_s
        prev_energy = now_energy

        deriv = estimator.update(u, y).derivative(u)
        a, b, c, d = estimator.coefficients
        u_next = controller.step(target, y, deriv)

        store(pack(k * cycle_ms, u, y, target, controller.error, controller.gain,
                   a, b, c, d, deriv))
        store_settled(band_lo <= y <= band_hi)
        plant.apply_frequency(u_next)
        u = u_next
    return trace


# -- metrics ----------------------------------------------------------------

def settling_band(target_w: float, band_frac: float) -> tuple[float, float]:
    """The band around target_w, watts, inside which a cycle counts as settled."""
    return target_w * (1.0 - band_frac), target_w * (1.0 + band_frac)


def settling_time(trace: Trace, target_w: float, band_frac: float) -> float | None:
    """First cycle time at which measured power enters the target band."""
    if not trace:
        raise ValueError("trace must be non-empty")
    lo, hi = settling_band(target_w, band_frac)
    for t_ms, power in zip(trace.column("t_ms"), trace.column("power_w")):
        if lo <= power <= hi:
            return t_ms
    return None


def steady_error(trace: Trace, target_w: float, settle_ms: float) -> float:
    """Absolute gap between mean post-settling power and the target."""
    if not trace:
        raise ValueError("trace must be non-empty")
    return abs(_mean_from(trace, "power_w", settle_ms) - target_w)


def mean_frequency(trace: Trace, from_ms: float = 0.0) -> float:
    """Mean applied frequency from from_ms onward."""
    return _mean_from(trace, "freq_ghz", from_ms)


def _mean_from(trace: Trace, column: str, from_ms: float) -> float:
    """Mean of a column over the records at or after from_ms. Raises if there
    are none, as when from_ms is NaN or past the last record."""
    vals = [v for t_ms, v in zip(trace.column("t_ms"), trace.column(column)) if t_ms >= from_ms]
    if not vals:
        raise ValueError(f"no records at or after {from_ms!r} ms")
    # statistics.fmean's arithmetic (Python 3.10 to 3.13), without importing
    # statistics, which loads fractions, decimal and numbers.
    return math.fsum(vals) / len(vals)


class ErrorSplit(NamedTuple):
    """The signed error over a run's second half, mean power minus target in
    watts, as the sum of a ceiling term and a loop term."""

    ceiling_w: float  # from pinned cycles: the ladder cannot reach the target
    loop_w: float  # from all other cycles: the loop's own bias
    pinned_share: float  # pinned cycles / cycles


def error_split(trace: Trace, config: ExperimentConfig) -> ErrorSplit:
    """Split the signed error over the records from len(trace) // 2 on.

    A cycle is pinned when it ran at the top of config's ladder with power
    below target, or at the bottom with power above. Each term is its
    cycles' sum of power minus target, divided by the number of cycles, so
    the two add up to the signed error and only the loop term is the
    controller's to fix.
    """
    if not trace:
        raise ValueError("trace must be non-empty")
    omega = config.frequency_set()
    lo, hi = omega.min_level, omega.max_level
    start = len(trace) // 2
    pinned, free = [], []
    for u, y, target in zip(trace.column("freq_ghz")[start:], trace.column("power_w")[start:],
                            trace.column("target_w")[start:]):
        is_pinned = (u == hi and y < target) or (u == lo and y > target)
        (pinned if is_pinned else free).append(y - target)
    n = len(trace) - start
    return ErrorSplit(math.fsum(pinned) / n, math.fsum(free) / n, len(pinned) / n)


# -- CSV --------------------------------------------------------------------

CSV_COLUMNS = TraceRecord._fields


# How the CSVs print a number: 6 significant digits, the same text as
# format(value, ".6g") for every float (signed zeros, infinities and nan
# included). "%g" already means precision 6, and unlike "%.6g" it takes the
# str % formatter's fast path, which writes a float with no width, precision
# or sign flag straight into the result.
_NUMBER = "%g"

# A trace row's text, by its settled flag; no field needs CSV quoting.
_ROWS = tuple(",".join([_NUMBER] * len(_COLUMN)) + f",{flag}\n" for flag in (0, 1))

_CHUNK_ROWS = 256  # trace rows per write call in write_csv


def write_csv(trace: Trace, path: str) -> None:
    """Write a trace to CSV: header plus one row per cycle, 6 significant digits."""
    numbers, settled = trace._numbers, trace._settled
    width = len(_COLUMN)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        # One write per chunk, its rows formatted by one % from the packed
        # numbers: a write per row costs more per row, and joining the whole
        # trace first costs its size in memory.
        for i in range(0, len(settled), _CHUNK_ROWS):
            rows = "".join(map(_ROWS.__getitem__, settled[i:i + _CHUNK_ROWS]))
            fh.write(rows % tuple(numbers[i * width:(i + _CHUNK_ROWS) * width]))


def read_csv(path: str) -> Trace:
    """Parse a trace CSV written by write_csv."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if tuple(next(reader, ())) != CSV_COLUMNS:  # () for an empty file
            raise ValueError(f"unexpected CSV header in {path}")
        return Trace(_parse_row(row, path, reader.line_num) for row in reader)


def _parse_row(row: list[str], path: str, line_num: int) -> tuple:
    """One CSV row's record fields, or a ValueError naming the file and line."""
    try:
        if len(row) != len(CSV_COLUMNS) or row[-1] not in ("0", "1"):
            raise ValueError
        return (*map(float, row[:-1]), row[-1] == "1")
    except ValueError:  # raised above, or by float() on a non-numeric cell
        raise ValueError(
            f"{path}, line {line_num}: expected {len(CSV_COLUMNS)} "
            f"columns, numbers then settled 0 or 1, got {row!r}") from None


# -- config parsing -----------------------------------------------------------

def parse_pairs(text: str) -> dict[str, str]:
    """Split config text into raw key/value strings; a # after whitespace or
    at the start of a line starts a comment, so a value may contain #."""
    pairs: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: {key!r} is already set on line {first_line[key]}")
        first_line[key] = lineno
        pairs[key] = value
    return pairs


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key=value config text; unset keys take their defaults."""
    return config_from_pairs(parse_pairs(text))


def config_from_pairs(pairs: dict[str, str]) -> ExperimentConfig:
    """Build a validated config from raw key/value strings."""
    # The values given, split into ExperimentConfig's own fields ("") and
    # those of its plant and workload parts.
    given: dict[str, dict[str, object]] = {"": {}, "plant": {}, "workload": {}}
    for key, raw in pairs.items():
        spec = _KEYS.get(key)
        if spec is None:
            raise ConfigError(f"unknown config key {key!r}")
        part, _, name = (spec.field_name or key).rpartition(".")
        given[part][name] = _check(key, spec.parse, raw)

    plant = _check("plant", PlantParams, **given["plant"])
    workload = given["workload"]
    if workload:
        kind = workload.pop("kind", _DEFAULTS["workload.kind"])
        seed = given[""].get("seed", _DEFAULTS["seed"])
        given[""]["workload"] = _check("workload", make_profile, kind, seed, **workload)
    config = ExperimentConfig(plant=plant, **given[""])
    config.validate()
    return config


# -- run summary and sweep ----------------------------------------------------

SWEEP_KINDS = ("compute_bound", "graph_irregular", "memory_bound")
SWEEP_CYCLES = (10, 30)


class SweepRow(NamedTuple):
    """One run's summary: a row of `sweep`'s table, and what `run` prints."""

    scenario: str
    cycle_ms: int
    settling_ms: float | None
    error_w: float | None
    mean_freq_ghz: float


SWEEP_COLUMNS = SweepRow._fields


def summarize(trace: Trace, config: ExperimentConfig) -> SweepRow:
    """Settling time, the steady error after it and the mean frequency from
    it (over the whole run, and no error, when the run never settles)."""
    settled = settling_time(trace, config.target_w, config.settle_band_frac)
    err = None if settled is None else steady_error(trace, config.target_w, settled)
    return SweepRow(config.workload.kind, config.cycle_ms, settled, err,
                    mean_frequency(trace, settled or 0.0))


def run_sweep(base: ExperimentConfig) -> list[SweepRow]:
    """Run the scenario grid, SWEEP_KINDS x SWEEP_CYCLES, and summarize each
    run, in the order (scenario, cycle_ms); both constants are sorted.

    Each run is base with its workload replaced by the scenario kind's preset
    profile (seeded from base.seed) and its cycle_ms by the grid's, so base's
    own workload and cycle_ms are ignored.
    """
    rows = []
    for kind in SWEEP_KINDS:
        for cycle in SWEEP_CYCLES:
            cfg = base._replace(cycle_ms=cycle, workload=make_profile(kind, seed=base.seed))
            rows.append(summarize(run_experiment(cfg), cfg))
    return rows


def write_sweep_csv(rows: list[SweepRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([row.scenario, str(row.cycle_ms)] + [
                "" if v is None else _NUMBER % v
                for v in (row.settling_ms, row.error_w, row.mean_freq_ghz)])
