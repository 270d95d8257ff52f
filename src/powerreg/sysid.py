"""Online identification of the frequency-to-power map.

A cubic polynomial p(phi) = a*phi^3 + b*phi^2 + c*phi + d is fitted to
(frequency, average power) pairs, one pair per control cycle, by a standard
recursive least-squares estimator with exponential forgetting. The fitted
derivative dp/dphi feeds the controller's gain.

Frequencies are expected in GHz. That keeps the regressor (phi^3, phi^2,
phi, 1) well conditioned (phi^3 <= ~40 on commodity parts); feeding Hz-scale
values would destroy the conditioning of the covariance update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CubicModel:
    """Coefficients of the cubic power model, highest degree first."""

    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    d: float = 0.0

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "d"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"coefficient {name} must be finite")

    def predict(self, phi: float) -> float:
        """Model power at frequency phi, watts."""
        if not math.isfinite(phi):
            raise ValueError("frequency must be finite")
        return ((self.a * phi + self.b) * phi + self.c) * phi + self.d

    def derivative(self, phi: float) -> float:
        """Model slope dP/dphi at frequency phi, watts per GHz."""
        if not math.isfinite(phi):
            raise ValueError("frequency must be finite")
        return (3.0 * self.a * phi + 2.0 * self.b) * phi + self.c

    def as_array(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d], dtype=float)

    @classmethod
    def from_array(cls, x: np.ndarray) -> "CubicModel":
        a, b, c, d = (float(v) for v in x)
        return cls(a, b, c, d)


def _regressor(phi: float) -> np.ndarray:
    return np.array([phi**3, phi**2, phi, 1.0], dtype=float)


class RlsEstimator:
    """Recursive least squares over the cubic regressor.

    forgetting is the exponential down-weighting factor in (0, 1]; 1 means
    ordinary least squares. p0 scales the initial covariance: large values
    make the first measurements dominate the prior.
    """

    def __init__(self, forgetting: float, p0: float, x0: CubicModel | None = None):
        if not (math.isfinite(forgetting) and 0.0 < forgetting <= 1.0):
            raise ValueError("forgetting factor must be in (0, 1]")
        if not (math.isfinite(p0) and p0 > 0.0):
            raise ValueError("p0 must be positive")
        self.forgetting = forgetting
        self._x = (x0 or CubicModel()).as_array()
        self.P = p0 * np.eye(4)
        self.sample_count = 0

    @property
    def model(self) -> CubicModel:
        return CubicModel.from_array(self._x)

    def update(self, phi: float, power: float) -> CubicModel:
        """Fold one (frequency, measured power) sample into the estimate.

        The state is untouched if the inputs are rejected.
        """
        if not (math.isfinite(phi) and phi > 0.0):
            raise ValueError("frequency must be positive and finite")
        if not math.isfinite(power):
            raise ValueError("power must be finite")
        h = _regressor(phi)
        lam = self.forgetting
        ph = self.P @ h
        k = ph / (lam + h @ ph)
        self._x = self._x + k * (power - h @ self._x)
        p_new = (self.P - np.outer(k, ph)) / lam
        # symmetrize to suppress floating-point drift
        self.P = (p_new + p_new.T) / 2.0
        self.sample_count += 1
        return self.model
