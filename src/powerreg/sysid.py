"""Online identification of the frequency-to-power map.

A cubic polynomial p(phi) = a*phi^3 + b*phi^2 + c*phi + d is fitted to
(frequency, average power) pairs, one pair per control cycle, by a standard
recursive least-squares estimator with exponential forgetting. The fitted
derivative dp/dphi feeds the controller's gain.

The update runs once per control cycle, so it is written in plain floats:
the symmetric 4x4 covariance P is held as its 10 unique entries (upper
triangle, row by row) and each step is unrolled, with no array library on
the decision path. P stays symmetric by construction. numpy is imported only
when a caller asks for an array view (`RlsEstimator.P`,
`CubicModel.as_array`).

Frequencies are expected in GHz. That keeps the regressor (phi^3, phi^2,
phi, 1) well conditioned (phi^3 <= ~40 on commodity parts); feeding Hz-scale
values would destroy the conditioning of the covariance update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
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
        """The coefficients as a numpy vector (imports numpy)."""
        import numpy as np

        return np.array([self.a, self.b, self.c, self.d], dtype=float)

    @classmethod
    def from_array(cls, x: Iterable[float]) -> "CubicModel":
        a, b, c, d = (float(v) for v in x)
        return cls(a, b, c, d)


class RlsEstimator:
    """Recursive least squares over the cubic regressor h = (phi^3, phi^2, phi, 1).

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
        self.model = x0 or CubicModel()
        # Upper triangle of P, row by row: p00 p01 p02 p03 p11 p12 p13 p22 p23 p33.
        self._p = (p0, 0.0, 0.0, 0.0, p0, 0.0, 0.0, p0, 0.0, p0)
        self.sample_count = 0

    @property
    def P(self) -> np.ndarray:
        """The covariance as a symmetric 4x4 numpy array (imports numpy)."""
        import numpy as np

        p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = self._p
        return np.array([[p00, p01, p02, p03],
                         [p01, p11, p12, p13],
                         [p02, p12, p22, p23],
                         [p03, p13, p23, p33]])

    def update(self, phi: float, power: float) -> CubicModel:
        """Fold one (frequency, measured power) sample into the estimate.

        With g = P h, the model moves by g (power - h.x) / (lam + h.g) and
        P becomes (P - g g' / (lam + h.g)) / lam. Returns the new model,
        which the estimator keeps as `model`. The state is untouched if the
        inputs are rejected or the update is degenerate.
        """
        if not (math.isfinite(phi) and phi > 0.0):
            raise ValueError("frequency must be positive and finite")
        if not math.isfinite(power):
            raise ValueError("power must be finite")
        h3 = phi**3
        h2 = phi * phi
        p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = self._p
        g0 = p00 * h3 + p01 * h2 + p02 * phi + p03
        g1 = p01 * h3 + p11 * h2 + p12 * phi + p13
        g2 = p02 * h3 + p12 * h2 + p22 * phi + p23
        g3 = p03 * h3 + p13 * h2 + p23 * phi + p33
        lam = self.forgetting
        den = lam + (h3 * g0 + h2 * g1 + phi * g2 + g3)
        if den == 0.0 or not math.isfinite(den):
            raise ValueError(
                f"RLS covariance is degenerate: lambda + h'Ph = {den!r} at {phi} GHz")
        k0, k1, k2, k3 = g0 / den, g1 / den, g2 / den, g3 / den
        m = self.model
        e = power - (h3 * m.a + h2 * m.b + phi * m.c + m.d)
        self.model = CubicModel(m.a + k0 * e, m.b + k1 * e, m.c + k2 * e, m.d + k3 * e)
        self._p = ((p00 - k0 * g0) / lam, (p01 - k0 * g1) / lam,
                   (p02 - k0 * g2) / lam, (p03 - k0 * g3) / lam,
                   (p11 - k1 * g1) / lam, (p12 - k1 * g2) / lam,
                   (p13 - k1 * g3) / lam, (p22 - k2 * g2) / lam,
                   (p23 - k2 * g3) / lam, (p33 - k3 * g3) / lam)
        self.sample_count += 1
        return self.model
