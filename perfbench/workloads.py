"""The benchmark's workloads and the inputs each run derives from its seed.

Each workload is the default configuration plus a workload kind, a control
cycle and a simulated duration, handed to `powerreg.config_from_pairs` as the
same raw key/value strings `powerreg run --set ... --out PATH` would build.
The set-up probe gets these strings on its command line instead of importing
this module, so that it imports nothing before its clock starts.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    kind: str
    cycle_ms: int
    duration_ms: int


WORKLOADS = {
    # Plant integration and the 1 ms counter grid at full weight; one alpha
    # sample per run and almost no control work (2,000 cycles).
    "steady_constant": Workload("constant", cycle_ms=30, duration_ms=60_000),
    # About 3.3 activity changes per cycle: plant events and workload
    # sampling, over the same plant layer (3,000 cycles).
    "irregular_events": Workload("graph_irregular", cycle_ms=10, duration_ms=30_000),
    # One counter tick per cycle: RLS, controller, projection and trace
    # recording dominate (20,000 cycles). RLS windup grows fastest here: for
    # seed 1 trace(P) reaches about 1e147 by the end and overflows at cycle
    # 38,394 of a longer run; seed 41 already raises at cycle 2,399, and the
    # benchmark reports that run as failed.
    "fast_control": Workload("compute_bound", cycle_ms=1, duration_ms=20_000),
}


def config_pairs(name: str, seed: int, out_path: str) -> dict[str, str]:
    """Raw config strings for one experiment of workload `name`."""
    w = WORKLOADS[name]
    return {
        "workload.kind": w.kind,
        "cycle_ms": str(w.cycle_ms),
        "duration_ms": str(w.duration_ms),
        "seed": str(seed),
        "out_path": out_path,
    }

