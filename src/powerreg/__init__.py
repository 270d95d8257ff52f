"""Closed-loop power regulation for multicore processors, on a simulated plant.

A variable-gain integral controller tracks a power target by stepping the
clock frequency; a recursive least-squares estimator keeps a cubic
frequency-to-power model current; the simulated plant supplies the power,
thermal, and energy-counter behavior of a multicore part.
"""

from types import ModuleType as _Module

from .controller import IntegralController, gain, tracking_error
from .freqset import FrequencySet
from .harness import (
    ConfigError,
    ExperimentConfig,
    Trace,
    TraceRecord,
    config_from_pairs,
    error_split,
    mean_frequency,
    parse_config,
    read_csv,
    run_experiment,
    settling_time,
    steady_error,
    write_csv,
)
from .plant import Plant, PlantParams
from .sysid import CubicModel, RlsEstimator
from .workload import WorkloadProfile, make_profile

__version__ = "0.1.0"

# The exports are the names imported above: every public global but the
# submodules that importing them binds.
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
