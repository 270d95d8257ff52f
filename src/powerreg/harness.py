"""Experiment runner: closed-loop power regulation with trace and metrics.

One experiment wires the plant, the workload, the RLS identifier, and the
integral controller into the per-cycle loop: advance the plant one control
cycle, derive average power from the energy counter, refresh the model,
compute the next frequency, apply it. Each cycle appends one trace record.

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
import statistics
from dataclasses import dataclass, field, fields, replace
from operator import attrgetter

from .controller import DEFAULT_DERIV_FLOOR, IntegralController, gain, tracking_error
from .freqset import DEFAULT_LEVELS, FrequencyRange, FrequencySet, check_frequency
from .plant import Plant, PlantParams
from .sysid import CubicModel, RlsEstimator
from .workload import WorkloadProfile, make_profile


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or violated config invariants."""


@dataclass(slots=True)
class TraceRecord:
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


# -- config schema ------------------------------------------------------------

def _parse_float(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise ValueError("must be finite")
    return v


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
    return tuple(_parse_float(part) for part in text.split(",") if part.strip())


@dataclass
class _Key:
    """One config key: its parser (text to value, raising ValueError), its
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
# The plant's defaults, the ladder and the derivative floor are stated by
# the modules that own them, and only printed here.
_SCHEMA: tuple[tuple[str, tuple[_Key, ...]], ...] = (
    ("experiment", (
        _Key("target_w", _parse_float, "10.0"),
        _Key("cycle_ms", _parse_int, "10"),
        _Key("duration_ms", _parse_float, "4000"),
        _Key("omega", _parse_float_list, ",".join(map(str, DEFAULT_LEVELS))),
        _Key("omega_continuous", _parse_bool, "false"),
        _Key("u0", _parse_float, "2.0"),
        _Key("settle_band_frac", _parse_float, "0.05"),
        _Key("seed", _parse_int, "1"),
        _Key("out_path", str, "trace.csv", optional=True),
    )),
    ("workload (unset numeric fields fall back to the kind's preset)", (
        _Key("workload.kind", str, "constant"),
        _Key("workload.alpha_mean", _parse_float, "1.0", optional=True),
        _Key("workload.alpha_jitter", _parse_float, "0.05", optional=True),
        _Key("workload.switch_period_ms", _parse_float, "40.0", optional=True),
        _Key("workload.stall_fraction", _parse_float, "0.05", optional=True),
        _Key("workload.stall_alpha_scale", _parse_float, "0.6", optional=True),
    )),
    ("plant", tuple(
        _Key(f"plant.{name}", _parse_float, repr(value))
        for name, value in vars(PlantParams()).items()
    ) + (
        _Key("plant.counter_phase", _parse_float, "0.0   (unset: drawn from the seed)",
             optional=True, field_name="counter_phase_ms"),
    )),
    ("identification", (
        _Key("rls.lambda", _parse_float, "0.98", field_name="rls_forgetting"),
        _Key("rls.p0", _parse_float, "1e3", field_name="rls_p0"),
        _Key("rls.x0", _parse_float_list, "0,0,0,0", field_name="rls_x0"),
    )),
    ("controller", (
        _Key("controller.deriv_floor", _parse_float, str(DEFAULT_DERIV_FLOOR),
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


@dataclass
class ExperimentConfig:
    """One experiment's settings; each default comes from the schema table.

    workload None stands for the default workload kind, drawn from seed.
    """

    target_w: float = _DEFAULTS["target_w"]
    cycle_ms: int = _DEFAULTS["cycle_ms"]
    duration_ms: float = _DEFAULTS["duration_ms"]
    omega: tuple[float, ...] = _DEFAULTS["omega"]
    omega_continuous: bool = _DEFAULTS["omega_continuous"]
    u0: float = _DEFAULTS["u0"]
    workload: WorkloadProfile | None = None
    plant: PlantParams = field(default_factory=PlantParams)
    counter_phase_ms: float | None = None
    rls_forgetting: float = _DEFAULTS["rls_forgetting"]
    rls_p0: float = _DEFAULTS["rls_p0"]
    rls_x0: tuple[float, float, float, float] = _DEFAULTS["rls_x0"]
    deriv_floor: float = _DEFAULTS["deriv_floor"]
    projected_state: bool = _DEFAULTS["projected_state"]
    settle_band_frac: float = _DEFAULTS["settle_band_frac"]
    seed: int = _DEFAULTS["seed"]
    out_path: str | None = None

    def __post_init__(self) -> None:
        if self.workload is None:
            self.workload = make_profile(_DEFAULTS["workload.kind"], seed=self.seed)

    def frequency_set(self) -> FrequencySet | FrequencyRange:
        """The ladder omega, or in continuous mode the range it spans."""
        levels = FrequencySet.from_list(self.omega)
        if self.omega_continuous:
            return FrequencyRange(levels.min_level, levels.max_level)
        return levels

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
    if not (isinstance(config.cycle_ms, int) and config.cycle_ms >= 1):
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


def run_experiment(config: ExperimentConfig) -> list[TraceRecord]:
    """Run one closed-loop experiment and return its per-cycle trace."""
    plant, estimator, controller = _build_loop(config)
    n_cycles = int(config.duration_ms // config.cycle_ms)
    band_lo = config.target_w * (1.0 - config.settle_band_frac)
    band_hi = config.target_w * (1.0 + config.settle_band_frac)

    trace: list[TraceRecord] = []
    u = config.u0
    prev_energy = plant.read_energy()
    for k in range(n_cycles):
        # The first cycle just measures the starting power at u0; control
        # actions begin once there is a measurement to react to.
        plant.advance(config.cycle_ms)
        now_energy = plant.read_energy()
        y = (now_energy - prev_energy) / (config.cycle_ms * 1e-3)
        prev_energy = now_energy

        model = estimator.update(u, y)
        a, b, c, d = model
        deriv = model.derivative(u)
        err = tracking_error(config.target_w, y)
        a_gain = gain(deriv, config.deriv_floor)
        u_next = controller.step(config.target_w, y, deriv)

        trace.append(TraceRecord(
            t_ms=float(k * config.cycle_ms),
            freq_ghz=u,
            power_w=y,
            target_w=config.target_w,
            error_w=err,
            gain=a_gain,
            coeff_a=a,
            coeff_b=b,
            coeff_c=c,
            coeff_d=d,
            deriv_est=deriv,
            settled=band_lo <= y <= band_hi,
        ))
        plant.apply_frequency(u_next)
        u = u_next
    return trace


# -- metrics ----------------------------------------------------------------

def settling_time(
    trace: list[TraceRecord], target_w: float, band_frac: float
) -> float | None:
    """First cycle time at which measured power enters the target band."""
    if not trace:
        raise ValueError("trace must be non-empty")
    lo = target_w * (1.0 - band_frac)
    hi = target_w * (1.0 + band_frac)
    for rec in trace:
        if lo <= rec.power_w <= hi:
            return rec.t_ms
    return None


def steady_error(
    trace: list[TraceRecord], target_w: float, settle_ms: float
) -> float:
    """Absolute gap between mean post-settling power and the target."""
    if not trace:
        raise ValueError("trace must be non-empty")
    if settle_ms > trace[-1].t_ms:
        raise ValueError(
            f"settle_ms {settle_ms!r} is beyond the end of the trace "
            f"({trace[-1].t_ms} ms)")
    tail = [rec.power_w for rec in trace if rec.t_ms >= settle_ms]
    return abs(statistics.fmean(tail) - target_w)


def mean_frequency(trace: list[TraceRecord], from_ms: float = 0.0) -> float:
    """Mean applied frequency from from_ms onward."""
    vals = [rec.freq_ghz for rec in trace if rec.t_ms >= from_ms]
    if not vals:
        raise ValueError("no records at or after from_ms")
    return statistics.fmean(vals)


# -- CSV --------------------------------------------------------------------

CSV_COLUMNS = tuple(f.name for f in fields(TraceRecord))


def _fmt(value: float) -> str:
    return format(value, ".6g")


# One trace row, from the TraceRecord fields CSV_COLUMNS names: "%.6g" gives
# the same text as _fmt for every float (signed zeros, infinities and nan
# included), and no field needs CSV quoting.
_ROW = ",".join(["%.6g"] * (len(CSV_COLUMNS) - 1) + ["%d"]) + "\n"
_row_fields = attrgetter(*CSV_COLUMNS)


def write_csv(trace: list[TraceRecord], path: str) -> None:
    """Write a trace to CSV: header plus one row per cycle, 6 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        # Streamed row by row: joining the whole trace first costs its size in memory.
        fh.writelines(_ROW % _row_fields(rec) for rec in trace)


def read_csv(path: str) -> list[TraceRecord]:
    """Parse a trace CSV written by write_csv."""
    trace = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}")
        for row in reader:
            if len(row) != len(CSV_COLUMNS) or row[-1] not in ("0", "1"):
                raise ValueError(
                    f"{path}, line {reader.line_num}: expected {len(CSV_COLUMNS)} "
                    f"columns ending in settled 0 or 1, got {row!r}")
            trace.append(TraceRecord(*map(float, row[:-1]), settled=row[-1] == "1"))
    return trace


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

    config = ExperimentConfig(plant=_check("plant", PlantParams, **given["plant"]), **given[""])
    workload = given["workload"]
    if workload:
        kind = workload.pop("kind", config.workload.kind)
        config.workload = _check("workload", make_profile, kind, config.seed, **workload)
    config.validate()
    return config


# -- run summary and sweep ----------------------------------------------------

SWEEP_KINDS = ("compute_bound", "graph_irregular", "memory_bound")
SWEEP_CYCLES = (10, 30)


@dataclass
class SweepRow:
    """One run's summary: a row of `sweep`'s table, and what `run` prints."""

    scenario: str
    cycle_ms: int
    settling_ms: float | None
    error_w: float | None
    mean_freq_ghz: float


SWEEP_COLUMNS = tuple(f.name for f in fields(SweepRow))


def summarize(trace: list[TraceRecord], config: ExperimentConfig) -> SweepRow:
    """Settling time, the steady error after it and the mean frequency from
    it (over the whole run, and no error, when the run never settles)."""
    settled = settling_time(trace, config.target_w, config.settle_band_frac)
    err = None if settled is None else steady_error(trace, config.target_w, settled)
    return SweepRow(config.workload.kind, config.cycle_ms, settled, err,
                    mean_frequency(trace, settled or 0.0))


def run_sweep(
    base: ExperimentConfig,
    kinds: tuple[str, ...] = SWEEP_KINDS,
    cycles: tuple[int, ...] = SWEEP_CYCLES,
) -> list[SweepRow]:
    """Run the scenario grid and summarize each run.

    Each run is base with its workload replaced by the scenario kind's preset
    profile (seeded from base.seed) and its cycle_ms by the grid's, so base's
    own workload and cycle_ms are ignored. Output ordering is by (scenario,
    cycle_ms), independent of run order.
    """
    rows = []
    for kind in sorted(kinds):
        for cycle in sorted(cycles):
            cfg = replace(base, cycle_ms=cycle,
                          workload=make_profile(kind, seed=base.seed), out_path=None)
            rows.append(summarize(run_experiment(cfg), cfg))
    return rows


def write_sweep_csv(rows: list[SweepRow], path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([row.scenario, str(row.cycle_ms)] + [
                "" if v is None else _fmt(v)
                for v in (row.settling_ms, row.error_w, row.mean_freq_ghz)])
