"""Independent reference computations for the test suite.

Everything here deliberately avoids the production code paths: brute-force
searches, closed forms and batch solves. These are the cross-checks for the
controller, estimator and plant. `reference_energy`, the plant's quadrature,
ships in `powerreg.oracles` because the benchmark checks against it too; it
is re-exported here, so every test takes its references from this module.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from powerreg.freqset import DEFAULT_LEVELS, FrequencySet
from powerreg.oracles import reference_energy  # noqa: F401  (re-exported)
from powerreg.plant import PlantParams

# The default configuration's ladder, as the set the plant and controller take.
DEFAULT_OMEGA = FrequencySet(DEFAULT_LEVELS)


def nearest_level_brute(levels: Sequence[float], u: float) -> float:
    """Nearest level by exhaustive scan; lower level wins on a tie."""
    best = levels[0]
    for v in levels[1:]:
        if abs(v - u) < abs(best - u):
            best = v
        elif abs(v - u) == abs(best - u) and v < best:
            best = v
    return best


class Interval:
    """Every frequency in [min_level, max_level] GHz: a domain without
    quantization, for stepping the controller as the textbook Newton method.

    It offers only what the controller reads of its domain: `in`, and a
    `project` that clamps and refuses non-finite input.
    """

    def __init__(self, min_level: float, max_level: float):
        self.min_level, self.max_level = min_level, max_level

    def __contains__(self, value: float) -> bool:
        return self.min_level <= value <= self.max_level

    def project(self, u: float) -> float:
        if not math.isfinite(u):
            raise ValueError(f"cannot project non-finite frequency {u!r}")
        return min(max(u, self.min_level), self.max_level)


def newton_path(
    g: Callable[[float], float],
    dg: Callable[[float], float],
    target: float,
    u0: float,
    max_steps: int = 50,
    tol: float = 0.0,
) -> list[float]:
    """Iterates of the textbook Newton method for target - g(u) = 0."""
    us = [u0]
    u = u0
    for _ in range(max_steps):
        u = u + (target - g(u)) / dg(u)
        us.append(u)
        if abs(target - g(u)) <= tol:
            break
    return us


def batch_cubic_fit(
    phis: Sequence[float],
    powers: Sequence[float],
    forgetting: float = 1.0,
    p0: float | None = None,
    x0: Sequence[float] = (0.0, 0.0, 0.0, 0.0),
) -> np.ndarray:
    """Batch (weighted) least-squares fit of a cubic, coefficients (a, b, c, d).

    With forgetting < 1 sample i of n gets weight forgetting**(n - 1 - i),
    the most recent sample weighing 1. With a prior covariance p0 the fit
    also pays (forgetting**n / p0) * |x - x0|^2, as four extra rows, so it
    minimizes the criterion RlsEstimator(forgetting, p0, x0) minimizes after
    the same n updates.
    """
    phis = np.asarray(phis, dtype=float)
    ys = np.asarray(powers, dtype=float)
    h = np.vstack([phis**3, phis**2, phis, np.ones_like(phis)]).T
    n = len(phis)
    if forgetting != 1.0:
        w = np.sqrt(forgetting ** (n - 1 - np.arange(n)))
        h = h * w[:, None]
        ys = ys * w
    if p0 is not None:
        r = math.sqrt(forgetting**n / p0)
        h = np.vstack([h, r * np.eye(4)])
        ys = np.concatenate([ys, r * np.asarray(x0, dtype=float)])
    coeffs, *_ = np.linalg.lstsq(h, ys, rcond=None)
    return coeffs


def first_order_rise(power_w: float, r_th: float, tau_ms: float, t_ms: float) -> float:
    """Closed-form temperature rise above ambient under constant power."""
    return power_w * r_th * (1.0 - math.exp(-t_ms / tau_ms))


def steady_power(params: PlantParams, alpha: float, phi: float) -> float:
    """Closed-form thermal fixed point of total power at fixed alpha and phi.

    Solves P = P_dyn + sigma*V*(1 + kappa*r_th*P), which is linear in P.
    """
    v = params.v0 + params.m * phi
    p_dyn = alpha * params.cap * v * v * phi
    loop = params.sigma * v * params.kappa * params.r_th
    if loop >= 1.0:
        raise ValueError("thermal runaway: leakage feedback gain >= 1")
    return (p_dyn + params.sigma * v) / (1.0 - loop)


def static_share(params: PlantParams, alpha: float, phi: float) -> float:
    """Leakage's share of total power at the thermal fixed point."""
    p = steady_power(params, alpha, phi)
    v = params.v0 + params.m * phi
    return params.sigma * v * (1.0 + params.kappa * p * params.r_th) / p


def true_cubic_coeffs(params: PlantParams, alpha: float) -> tuple[float, float, float, float]:
    """Expansion of total power in frequency for fixed alpha and kappa = 0.

    alpha*C*(v0 + m*phi)^2*phi + sigma*(v0 + m*phi) expands to
    a*phi^3 + b*phi^2 + c*phi + d with the returned coefficients.
    """
    ac = alpha * params.cap
    a = ac * params.m**2
    b = 2.0 * ac * params.v0 * params.m
    c = ac * params.v0**2 + params.sigma * params.m
    d = params.sigma * params.v0
    return a, b, c, d


def adjacent_power_gap(
    params: PlantParams,
    alpha: float,
    levels: Sequence[float],
    target_w: float,
) -> tuple[float, float, float]:
    """Adjacent levels whose steady powers bracket the target, plus the gap.

    Returns (lower level, upper level, power gap in watts), found by brute
    force over the level list.
    """
    ordered = sorted(levels)
    powers = [steady_power(params, alpha, v) for v in ordered]
    for (lo, hi), (p_lo, p_hi) in zip(
        zip(ordered, ordered[1:]), zip(powers, powers[1:])
    ):
        if p_lo <= target_w <= p_hi:
            return lo, hi, p_hi - p_lo
    raise ValueError("target power is not bracketed by any adjacent levels")
