"""Closed-loop power regulation for multicore processors, on a simulated plant.

A variable-gain integral controller tracks a power target by stepping the
clock frequency; a recursive least-squares estimator keeps a cubic
frequency-to-power model current; the simulated plant supplies the power,
thermal, and energy-counter behavior of a multicore part.
"""

from .controller import DEFAULT_DERIV_FLOOR, IntegralController, gain, tracking_error
from .freqset import DEFAULT_LEVELS, DEFAULT_OMEGA, FrequencyRange, FrequencySet
from .harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentConfig,
    TraceRecord,
    config_from_pairs,
    mean_frequency,
    parse_config,
    read_csv,
    run_experiment,
    run_sweep,
    settling_time,
    steady_error,
    write_csv,
    write_sweep_csv,
)
from .plant import Plant, PlantParams
from .sysid import CubicModel, RlsEstimator
from .workload import KINDS, WorkloadProfile, make_profile

__version__ = "0.1.0"

__all__ = [
    "CSV_COLUMNS",
    "ConfigError",
    "CubicModel",
    "DEFAULT_DERIV_FLOOR",
    "DEFAULT_LEVELS",
    "DEFAULT_OMEGA",
    "ExperimentConfig",
    "FrequencyRange",
    "FrequencySet",
    "IntegralController",
    "KINDS",
    "Plant",
    "PlantParams",
    "RlsEstimator",
    "TraceRecord",
    "WorkloadProfile",
    "config_from_pairs",
    "gain",
    "make_profile",
    "mean_frequency",
    "parse_config",
    "read_csv",
    "run_experiment",
    "run_sweep",
    "settling_time",
    "steady_error",
    "tracking_error",
    "write_csv",
    "write_sweep_csv",
]
