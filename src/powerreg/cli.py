"""Command-line entry points.

powerreg run    - one closed-loop experiment, optional CSV trace
powerreg sweep  - scenario grid (workload kinds x cycle lengths), summary CSV
powerreg oracle - print the independent reference computations

Exit codes: 0 success, 2 configuration error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .freqset import DEFAULT_LEVELS
from .harness import ConfigError
from .plant import PlantParams
from .workload import make_profile


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="config file (key = value lines)")
    sub.add_argument("--out", metavar="PATH", help="output CSV path")
    sub.add_argument("--seed", type=int, metavar="N", help="override the seed")
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
    oracle = sub.add_parser(
        "oracle", help="print independent reference computations")
    oracle.add_argument("--seed", type=int, default=1, metavar="N")
    oracle.set_defaults(func=_cmd_oracle)
    defaults = sub.add_parser("defaults", help="print the default config")
    defaults.set_defaults(func=_cmd_defaults)
    return parser


def _load_pairs(args: argparse.Namespace) -> dict[str, str]:
    """Raw config strings from --config, then --set, --seed and --out."""
    pairs: dict[str, str] = {}
    if args.config:
        with open(args.config) as fh:
            pairs.update(harness.parse_pairs(fh.read()))
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, value = item.split("=", 1)
        pairs[key.strip()] = value.strip()
    if args.seed is not None:
        pairs["seed"] = str(args.seed)
    if args.out is not None:
        pairs["out_path"] = args.out
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


def _cmd_oracle(args: argparse.Namespace) -> int:
    # oracles needs numpy; importing it here keeps numpy off the import path
    # of every other command.
    from . import oracles

    params = PlantParams()
    print("# nearest-level projection (brute force over the default ladder)")
    for u in (0.5, 1.9, 2.55, 3.9):
        print(f"  nearest({u}) = {oracles.nearest_level_brute(DEFAULT_LEVELS, u)}")

    a, b, c, d = oracles.true_cubic_coeffs(params, alpha=1.0)
    print("# closed-form cubic power coefficients (alpha=1, kappa=0)")
    print(f"  a={a:.6g} b={b:.6g} c={c:.6g} d={d:.6g}")

    g = lambda u: ((a * u + b) * u + c) * u + d  # noqa: E731
    dg = lambda u: (3 * a * u + 2 * b) * u + c  # noqa: E731
    path = oracles.newton_path(g, dg, target=10.0, u0=2.0, tol=1e-12)
    print("# Newton iterates toward g(u) = 10 from u = 2")
    for i, u in enumerate(path):
        print(f"  step {i}: u={u:.9f} |residual|={abs(10.0 - g(u)):.3e}")

    phis = [0.8, 1.5, 2.2, 2.9, 3.4]
    coeffs = oracles.batch_cubic_fit(phis, [g(p) for p in phis])
    print("# batch least-squares refit of the same cubic from 5 samples")
    print("  coeffs =", " ".join(f"{v:.6g}" for v in coeffs))

    p_star = oracles.steady_power(params, alpha=1.0, phi=2.0)
    rise = oracles.first_order_rise(p_star, params.r_th, params.tau_th, params.tau_th)
    print("# thermal fixed point at 2.0 GHz (default plant, alpha=1)")
    share = oracles.static_share(params, alpha=1.0, phi=2.0)
    print(f"  steady power={p_star:.4f} W  static share={share:.4f}")
    print(f"  temperature rise after one time constant={rise:.4f} degC "
          f"(of {p_star * params.r_th:.4f})")

    lo, hi, gap_w = oracles.adjacent_power_gap(params, 1.0, DEFAULT_LEVELS, 6.8)
    print("# adjacent levels bracketing a 6.8 W target (steady powers)")
    print(f"  {lo} GHz .. {hi} GHz, power gap {gap_w:.4f} W")

    profile = make_profile("memory_bound", seed=args.seed)
    schedule = [(0.0, 2.0), (100.0, 2.9), (200.0, 1.3)]
    energy = oracles.reference_energy(params, profile, schedule, duration_ms=300.0)
    print("# quadrature energy for a 300 ms three-step schedule (0.01 ms steps)")
    print(f"  energy={energy:.6f} J")
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
