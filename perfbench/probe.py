"""Set-up and memory probe, run in a fresh interpreter per sample.

    python3 perfbench/probe.py SRC_DIR KEY=VALUE...

Times what a `powerreg run --out` user waits for before the first control
cycle: importing the command-line module and the package, building the config
from the raw KEY=VALUE strings with `config_from_pairs`, and constructing the
plant, estimator and controller. The clock starts before anything but the
interpreter's built-in `sys` and `time` is imported, so every module the
program needs is timed. The probe then runs the experiment and writes its
CSV, as `powerreg run --out` does, and reports the process's peak resident
memory and the CSV's SHA-256 as one JSON line.

The peak is the address space's high-water mark (VmHWM), which starts afresh
at exec. `getrusage`'s ru_maxrss does not: Linux carries it over from the
process that was replaced, here the benchmark's own, so it would report the
benchmark's memory whenever that is the larger.
"""

import sys
import time


def peak_rss_kib() -> int:
    """This address space's peak resident set size, in KiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(src: str, args: list[str]) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import powerreg.cli  # noqa: F401  (the `powerreg` command's own imports)
    from powerreg import (
        CubicModel,
        IntegralController,
        Plant,
        RlsEstimator,
        config_from_pairs,
        run_experiment,
        write_csv,
    )

    config = config_from_pairs(dict(arg.split("=", 1) for arg in args))
    config.validate()
    omega = config.frequency_set()
    Plant(config.plant, config.workload, u0=config.u0, omega=omega,
          seed=config.seed, counter_phase_ms=config.counter_phase_ms)
    RlsEstimator(config.rls_forgetting, config.rls_p0, CubicModel(*config.rls_x0))
    IntegralController(omega, config.u0, deriv_floor=config.deriv_floor,
                       projected_state=config.projected_state)
    setup_s = time.perf_counter() - t0

    write_csv(run_experiment(config), config.out_path)

    import hashlib
    import json

    peak_kib = peak_rss_kib()
    with open(config.out_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(json.dumps({"setup_s": setup_s, "peak_rss_mb": peak_kib / 1024.0,
                      "sha256": digest}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2:])
