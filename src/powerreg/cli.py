"""Command-line entry points.

powerreg run      - one closed-loop experiment, optional CSV trace
powerreg sweep    - scenario grid (workload kinds x cycle lengths), summary CSV
powerreg defaults - print the default config

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .harness import ConfigError


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="config file (key = value lines)")
    # Appended, so that _load_pairs can refuse a key given twice.
    sub.add_argument("--out", action="append", default=[], metavar="PATH",
                     help="output CSV path")
    sub.add_argument("--seed", action="append", default=[], type=int, metavar="N",
                     help="override the seed")
    sub.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE", help="override one config key (repeatable)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="powerreg",
        description="Closed-loop processor power regulation on a simulated plant.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one experiment")
    _add_common(run)
    run.set_defaults(func=_cmd_run)
    sweep = sub.add_parser("sweep", help="run the scenario grid")
    _add_common(sweep)
    sweep.set_defaults(func=_cmd_sweep)
    defaults = sub.add_parser("defaults", help="print the default config")
    defaults.set_defaults(func=_cmd_defaults)
    return parser


def _load_pairs(args: argparse.Namespace) -> dict[str, str]:
    """Raw config strings from --config, overridden by --set, --seed and
    --out; the command line may set each key once."""
    pairs: dict[str, str] = {}
    if args.config:
        # utf-8-sig reads a file saved with a byte-order mark as one without.
        with open(args.config, encoding="utf-8-sig") as fh:
            pairs.update(harness.parse_pairs(fh.read()))
    given = []  # (option, key, value) from the command line
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        given.append(("--set", key.strip(), value.strip()))
    given += [("--seed", "seed", str(seed)) for seed in args.seed]
    given += [("--out", "out_path", out) for out in args.out]
    set_by: dict[str, str] = {}
    for option, key, value in given:
        if key in set_by:
            raise ConfigError(
                f"{key!r} is set twice on the command line, by {set_by[key]} and {option}")
        set_by[key] = option
        pairs[key] = value
    return pairs


def _cmd_run(args: argparse.Namespace) -> int:
    config = harness.config_from_pairs(_load_pairs(args))
    trace = harness.run_experiment(config)
    if config.out_path:
        harness.write_csv(trace, config.out_path)
    row = harness.summarize(trace, config)
    settling = ("settled=never" if row.settling_ms is None
                else f"settling={row.settling_ms:.0f} ms error={row.error_w:.4f} W")
    print(f"records={len(trace)} {settling} mean_freq={row.mean_freq_ghz:.3f} GHz")
    if config.out_path:
        print(f"trace written to {config.out_path}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    pairs = _load_pairs(args)
    # run_sweep sets these for each scenario; a value given here would be dropped.
    for key in pairs:
        if key == "cycle_ms" or key.startswith("workload."):
            raise ConfigError(
                f"{key}: sweep sets cycle_ms and the workload itself, per scenario")
    config = harness.config_from_pairs(pairs)
    rows = harness.run_sweep(config)
    print(",".join(harness.SWEEP_COLUMNS))
    for row in rows:
        settling = f"{row.settling_ms:.0f}" if row.settling_ms is not None else ""
        err = f"{row.error_w:.4f}" if row.error_w is not None else ""
        print(f"{row.scenario},{row.cycle_ms},{settling},{err},"
              f"{row.mean_freq_ghz:.3f}")
    if config.out_path:
        harness.write_sweep_csv(rows, config.out_path)
        print(f"summary written to {config.out_path}")
    return 0


def _cmd_defaults(args: argparse.Namespace) -> int:
    print(harness.DEFAULT_CONFIG_TEXT, end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
