"""Online identification of the frequency-to-power map.

A cubic polynomial p(phi) = a*phi^3 + b*phi^2 + c*phi + d is fitted to
(frequency, average power) pairs, one pair per control cycle, by a standard
recursive least-squares estimator with exponential forgetting. The fitted
derivative dp/dphi feeds the controller's gain.

The update runs once per control cycle, so it is written in plain floats:
the symmetric 4x4 covariance P is held as its 10 unique entries (upper
triangle, row by row) and each step is unrolled, with no array library.
P stays symmetric by construction. The update keeps the coefficients as a
plain tuple and builds no model: the loop reads the slope straight from
that tuple.

Frequencies are expected in GHz. That keeps the regressor (phi^3, phi^2,
phi, 1) well conditioned (phi^3 <= ~40 on commodity parts); feeding Hz-scale
values would destroy the conditioning of the covariance update.
"""

from __future__ import annotations

from math import isfinite
from typing import Iterable, NamedTuple

from ._record import Checked


def _check_coefficients(a: float, b: float, c: float, d: float) -> None:
    """Raise a ValueError naming the first coefficient that is not finite."""
    if not (isfinite(a) and isfinite(b) and isfinite(c) and isfinite(d)):
        name = next(n for n, v in zip("abcd", (a, b, c, d)) if not isfinite(v))
        raise ValueError(f"coefficient {name} must be finite")


def _slope(x: tuple[float, float, float, float], phi: float) -> float:
    """Slope dP/dphi, watts per GHz, of the cubic x = (a, b, c, d) at phi."""
    if not isfinite(phi):
        raise ValueError("frequency must be finite")
    a, b, c, _ = x
    return (3.0 * a * phi + 2.0 * b) * phi + c


class _Coefficients(NamedTuple):
    a: float
    b: float
    c: float
    d: float


class CubicModel(Checked, _Coefficients):
    """Coefficients of the cubic power model, highest degree first.

    An immutable named tuple whose coefficients are all finite: it is
    hashable, equal by value and picklable, and it also compares equal to
    the plain 4-tuple (a, b, c, d).
    """

    __slots__ = ()

    def __new__(cls, a: float = 0.0, b: float = 0.0, c: float = 0.0,
                d: float = 0.0) -> "CubicModel":
        _check_coefficients(a, b, c, d)
        return tuple.__new__(cls, (a, b, c, d))

    derivative = _slope

    @classmethod
    def from_array(cls, x: Iterable[float]) -> "CubicModel":
        a, b, c, d = (float(v) for v in x)
        return cls(a, b, c, d)


class RlsEstimator:
    """Recursive least squares over the cubic regressor h = (phi^3, phi^2, phi, 1).

    forgetting is the exponential down-weighting factor in (0, 1]; 1 means
    ordinary least squares. p0 scales the initial covariance: large values
    make the first measurements dominate the prior. `coefficients` is the
    current fit as a plain tuple (a, b, c, d).
    """

    def __init__(self, forgetting: float, p0: float, x0: Iterable[float] | None = None):
        if not (isfinite(forgetting) and 0.0 < forgetting <= 1.0):
            raise ValueError("forgetting factor must be in (0, 1]")
        if not (isfinite(p0) and p0 > 0.0):
            raise ValueError("p0 must be positive")
        self.forgetting = forgetting
        if not isinstance(x0, CubicModel):  # a CubicModel was checked when built
            x0 = CubicModel() if x0 is None else CubicModel.from_array(x0)
        # A plain tuple unpacks faster than the named tuple.
        self.coefficients = tuple(x0)
        # Upper triangle of P, row by row: p00 p01 p02 p03 p11 p12 p13 p22 p23 p33.
        self._p = (p0, 0.0, 0.0, 0.0, p0, 0.0, 0.0, p0, 0.0, p0)

    def derivative(self, phi: float) -> float:
        """Slope dP/dphi of the current fit at frequency phi, watts per GHz."""
        return _slope(self.coefficients, phi)

    @property
    def P(self) -> tuple[tuple[float, ...], ...]:
        """The covariance as a symmetric 4x4 tuple of float rows."""
        p00, p01, p02, p03, p11, p12, p13, p22, p23, p33 = self._p
        return ((p00, p01, p02, p03),
                (p01, p11, p12, p13),
                (p02, p12, p22, p23),
                (p03, p13, p23, p33))

    def update(self, phi: float, power: float) -> "RlsEstimator":
        """Fold one (frequency, measured power) sample into the estimate.

        With g = P h, the coefficients move by g (power - h.x) / (lam + h.g)
        and P becomes (P - g g' / (lam + h.g)) / lam. Returns the estimator
        itself, so the slope at the sample reads as
        `update(phi, power).derivative(phi)`. The state is untouched if the
        inputs are rejected or the update is degenerate.
        """
        if not (isfinite(phi) and phi > 0.0):
            raise ValueError("frequency must be positive and finite")
        if not isfinite(power):
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
        if den == 0.0 or not isfinite(den):
            raise ValueError(
                f"RLS covariance is degenerate: lambda + h'Ph = {den!r} at {phi} GHz")
        k0, k1, k2, k3 = g0 / den, g1 / den, g2 / den, g3 / den
        ma, mb, mc, md = self.coefficients
        e = power - (h3 * ma + h2 * mb + phi * mc + md)
        a, b, c, d = ma + k0 * e, mb + k1 * e, mc + k2 * e, md + k3 * e
        # A float sum is finite only if every term is, so one test covers all
        # four; the full check runs only to name the culprit. Finite terms can
        # still sum past the float range, and then it finds none.
        if not isfinite(a + b + c + d):
            _check_coefficients(a, b, c, d)
        self.coefficients = a, b, c, d
        self._p = ((p00 - k0 * g0) / lam, (p01 - k0 * g1) / lam,
                   (p02 - k0 * g2) / lam, (p03 - k0 * g3) / lam,
                   (p11 - k1 * g1) / lam, (p12 - k1 * g2) / lam,
                   (p13 - k1 * g3) / lam, (p22 - k2 * g2) / lam,
                   (p23 - k2 * g3) / lam, (p33 - k3 * g3) / lam)
        return self
