"""powerreg benchmark: simulator speed, control-decision cost and loop quality.

Run from the repository root:

    python3 perfbench/run.py --workload steady_constant --seed 1 --seconds 10 --trace 0

Workloads are defined in workloads.py; every experiment uses --seed. With
`--trace 0` the run measures the end-to-end metrics with no tracing:

- host_us_per_sim_ms: host microseconds per simulated millisecond for
  `run_experiment` plus `write_csv`, the median of the repetitions that fit
  in the measuring window;
- decision_us_p50, decision_us_p99: host time of one control decision
  (decisions.py): each decision's median over the replay passes that fit in
  the window, and the 50th and 99th percentiles of those over the trace;
- setup_s, peak_rss_mb: medians over fresh-interpreter probes (probe.py);
- steady_error_w, settling_ms (simulated ms) and failed_frac are printed but
  not gated: the first two are exact for a fixed seed, and the third is the
  JSON's failed / attempted.

With `--trace 1` the run alternates untraced experiments with traced ones
(layers.py: the real loop, with timing proxies around each module it calls)
and reports the per-layer totals of the traced repetition of median host time,
plus the tracing overhead (traced minus untraced host_us_per_sim_ms).

Both modes check the outputs before measuring: the traced loop's records equal
`run_experiment`'s, the decision replay reproduces the trace's frequencies,
the CSV digest is the same from every process, and the plant's energy matches
`oracles.reference_energy` over a short prefix. Human-readable lines come
first; the last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A run in which the program raised is
counted in `failed`; if nothing more could be measured after it, the JSON line
is still printed, with the metrics measured so far, and the exit status is 1.

baseline.json holds the figures of the commit the benchmark was defined at,
and which per-layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "powerreg" / "__init__.py").is_file():
        print(f"error: no powerreg sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import powerreg
    from suite import Bench, RunFailed
    from workloads import WORKLOADS

    if Path(powerreg.__file__).resolve().parent != (src / "powerreg").resolve():
        print(f"error: powerreg imported from {powerreg.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} python={sys.version.split()[0]}")
    status = 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        bench = Bench(args.workload, args.seed, args.seconds, src, Path(tmp))
        try:
            if args.trace:
                bench.per_layer()
            else:
                bench.end_to_end()
        except RunFailed as exc:
            # The result line still counts the failed runs; its metrics are
            # incomplete, so the exit status says the run did not finish.
            print(f"error: {exc}", file=sys.stderr)
            status = 1
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": bench.metrics,
    }))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
