import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powerreg.freqset import DEFAULT_LEVELS
from powerreg.sysid import CubicModel, RlsEstimator
from oracles import batch_cubic_fit


def textbook_rls(samples, lam, p0):
    """The covariance-form RLS recursion on numpy arrays."""
    x = np.zeros(4)
    p = p0 * np.eye(4)
    for phi, y in samples:
        h = np.array([phi**3, phi**2, phi, 1.0])
        g = p @ h
        k = g / (lam + h @ g)
        x = x + k * (y - h @ x)
        p = (p - np.outer(k, g)) / lam
    return x, p


FIVE_PHIS = [0.8, 1.5, 2.2, 2.9, 3.4]


class TestInit:
    def test_covariance_is_scaled_identity(self):
        est = RlsEstimator(forgetting=0.98, p0=1e3)
        assert np.array_equal(est.P, 1e3 * np.eye(4))
        assert est.coefficients == CubicModel()

    def test_prior_model_is_carried(self):
        est = RlsEstimator(forgetting=1.0, p0=1.0, x0=CubicModel(1.0, 0.0, 0.0, 0.0))
        assert est.coefficients == CubicModel(1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("lam", [1.5, 0.0, -0.1, float("nan")])
    def test_rejects_bad_forgetting(self, lam):
        with pytest.raises(ValueError):
            RlsEstimator(forgetting=lam, p0=1e3)

    @pytest.mark.parametrize("p0", [0.0, -1.0, float("inf")])
    def test_rejects_bad_p0(self, p0):
        with pytest.raises(ValueError):
            RlsEstimator(forgetting=1.0, p0=p0)

    @pytest.mark.parametrize("x0, message", [
        ((math.nan, 0.0, 0.0, 0.0), "coefficient a must be finite"),
        ((1.0, 2.0, 3.0), "not enough values to unpack"),
        ((), "not enough values to unpack"),
    ])
    def test_rejects_bad_x0(self, x0, message):
        with pytest.raises(ValueError, match=message):
            RlsEstimator(forgetting=0.98, p0=1e3, x0=x0)


class TestUpdate:
    def test_matches_regularized_batch_solution_exactly(self):
        # the recursion is algebraically the regularized batch solve; with a
        # finite prior both must agree to near machine precision, also when
        # a strong prior (p0=1e2) pulls the estimate towards a nonzero x0
        ys = [p**3 for p in FIVE_PHIS]
        for p0, x0 in [(1e6, CubicModel()), (1e2, CubicModel(0.5, -1.0, 2.0, 3.0))]:
            est = RlsEstimator(forgetting=1.0, p0=p0, x0=x0)
            for phi, y in zip(FIVE_PHIS, ys):
                est.update(phi, y)
            expected = batch_cubic_fit(FIVE_PHIS, ys, 1.0, p0=p0, x0=x0)
            assert np.array(est.coefficients) == pytest.approx(expected, abs=1e-10)

    def test_noiseless_cube_recovery(self):
        # with a weak prior the estimate lands on the generating cubic
        est = RlsEstimator(forgetting=1.0, p0=1e9)
        for phi in FIVE_PHIS:
            est.update(phi, phi**3)
        assert np.array(est.coefficients) == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-6)

    def test_single_update_is_gain_times_measurement(self):
        p0, lam, phi, power = 1e3, 1.0, 2.0, 9.0
        est = RlsEstimator(forgetting=lam, p0=p0)
        est.update(phi, power)
        h = np.array([phi**3, phi**2, phi, 1.0])
        k = (p0 * h) / (lam + p0 * (h @ h))
        assert np.array(est.coefficients) == pytest.approx(k * power, rel=1e-12)

    def test_forgetting_recovery_of_known_cubic(self):
        truth = CubicModel(2.0, 0.5, 1.0, 3.0)
        phis = [0.8, 1.1, 1.5, 1.8, 2.2, 2.5, 2.9, 3.4]
        ys = [np.polyval(truth, p) for p in phis]
        est = RlsEstimator(forgetting=0.98, p0=1e8)
        for phi, y in zip(phis, ys):
            est.update(phi, y)
        # weighted batch solve as the oracle; with noiseless data it equals
        # the generating coefficients
        oracle = batch_cubic_fit(phis, ys, 0.98, p0=1e8)
        assert np.array(est.coefficients) == pytest.approx(oracle, abs=1e-9)
        assert np.array(est.coefficients) == pytest.approx([2.0, 0.5, 1.0, 3.0], abs=1e-4)

    def test_state_unchanged_on_bad_input(self):
        est = RlsEstimator(forgetting=0.98, p0=1e3)
        est.update(2.0, 5.0)
        x, p = est.coefficients, est.P
        for phi, power in [(float("nan"), 1.0), (-1.0, 1.0), (0.0, 1.0),
                           (2.0, float("inf"))]:
            with pytest.raises(ValueError):
                est.update(phi, power)
        assert est.coefficients == x
        assert est.P == p

    def test_overflowing_update_is_named_and_leaves_state(self):
        # the new coefficient a is -inf: the update is refused before P moves
        est = RlsEstimator(0.98, 1e3, CubicModel(1e307, 0, 0, 0))
        x, p = est.coefficients, est.P
        with pytest.raises(ValueError, match="coefficient a must be finite"):
            est.update(3.4, -1e308)
        assert est.coefficients == x
        assert est.P == p

    @given(a=st.floats(1.2e308, 1.7e308), b=st.floats(1.2e308, 1.7e308),
           power=st.floats(0.0, 20.0))
    def test_finite_coefficients_summing_past_the_float_range_pass(self, a, b, power):
        # Every new coefficient is finite but a + b is inf: the update's one
        # finiteness test on the sum must not refuse it.
        est = RlsEstimator(0.98, 1e3, CubicModel(a, b, 0.0, 0.0))
        est.update(0.5, power)
        assert all(math.isfinite(v) for v in est.coefficients)
        assert not math.isfinite(sum(est.coefficients))

    def test_degenerate_covariance_is_named_and_leaves_state(self):
        # p0 * h'h overflows: lambda + h'Ph is inf on the first sample
        est = RlsEstimator(0.98, 1e307)
        x, p = est.coefficients, est.P
        with pytest.raises(ValueError, match="RLS covariance"):
            est.update(3.4, 10.0)
        assert est.coefficients == x
        assert est.P == p

    @settings(max_examples=200, deadline=None)
    @given(lam=st.floats(0.9, 1.0), p0=st.floats(1.0, 1e4),
           samples=st.lists(st.tuples(st.sampled_from(DEFAULT_LEVELS),
                                      st.floats(0.0, 20.0)),
                            min_size=1, max_size=40))
    def test_matches_textbook_recursion(self, lam, p0, samples):
        est = RlsEstimator(lam, p0)
        for phi, y in samples:
            est.update(phi, y)
            assert est.derivative(phi) == CubicModel(*est.coefficients).derivative(phi)
        x, p = textbook_rls(samples, lam, p0)
        got, cov = np.array(est.coefficients), np.array(est.P)
        assert np.max(np.abs(got - x)) <= 1e-7 * np.max(np.abs(x))
        assert cov.shape == (4, 4)
        assert np.array_equal(cov, cov.T)
        assert np.max(np.abs(cov - p)) <= 1e-7 * np.max(np.abs(p))


class TestOracleEquivalence:
    def test_exact_recovery_matches_batch_least_squares(self):
        rng = random.Random(2024)
        for _ in range(20):
            truth = CubicModel(rng.uniform(-2, 2), rng.uniform(-2, 2),
                               rng.uniform(-2, 2), rng.uniform(-2, 2))
            n = rng.randint(4, 9)
            phis = sorted(rng.uniform(0.5, 4.0) for _ in range(n))
            if min(b - a for a, b in zip(phis, phis[1:])) < 0.25:
                continue
            ys = [np.polyval(truth, p) for p in phis]
            est = RlsEstimator(forgetting=1.0, p0=1e13)
            for phi, y in zip(phis, ys):
                est.update(phi, y)
            expected = batch_cubic_fit(phis, ys)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(np.array(est.coefficients) - expected)) <= 1e-8 * scale

    def test_covariance_stays_symmetric_and_positive_definite(self):
        rng = random.Random(7)
        est = RlsEstimator(forgetting=0.95, p0=1e4)
        for _ in range(300):
            phi = rng.uniform(0.8, 3.4)
            est.update(phi, rng.uniform(2.0, 15.0))
            cov = np.array(est.P)
            assert np.array_equal(cov, cov.T)
            np.linalg.cholesky(cov)  # raises if not positive definite


class TestForgetting:
    def test_tracks_a_coefficient_switch(self):
        before = CubicModel(1.0, 0.2, 0.5, 2.0)
        after = CubicModel(2.5, 0.1, 1.5, 4.0)
        rng = random.Random(11)
        est = RlsEstimator(forgetting=0.9, p0=1e6)
        switch = 60
        errors = []
        for k in range(switch + 80):
            truth = before if k < switch else after
            phi = rng.uniform(0.8, 3.4)
            y = np.polyval(truth, phi)
            est.update(phi, y)
            errors.append(abs(np.polyval(est.coefficients, phi) - y))
        assert errors[switch + 50] < errors[switch + 1]
        # forgetting has washed out the old regime almost entirely by then
        assert errors[switch + 50] < 0.02 * errors[switch + 1]


# Both answer `derivative` with the one slope formula: the model for its own
# coefficients, the estimator for its current fit, which starts at x0.
slope_owners = pytest.mark.parametrize(
    "make", [CubicModel, lambda *x: RlsEstimator(0.98, 1e3, CubicModel(*x))],
    ids=["CubicModel", "RlsEstimator"])


class TestCubicModel:
    @slope_owners
    def test_derivative_values(self, make):
        assert make(1, 0, 0, 0).derivative(2.0) == 12.0
        assert make(2, 0, 1, 5).derivative(1.0) == 7.0

    @slope_owners
    def test_derivative_matches_central_difference(self, make):
        rng = random.Random(3)
        h = 1e-4
        for _ in range(50):
            x = [rng.uniform(-3, 3) for _ in range(4)]
            phi = rng.uniform(0.5, 3.5)
            fd = (np.polyval(x, phi + h) - np.polyval(x, phi - h)) / (2.0 * h)
            assert make(*x).derivative(phi) == pytest.approx(fd, abs=1e-6)

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coefficient_is_named(self, position, bad):
        coeffs = [1.0, 2.0, 3.0, 4.0]
        coeffs[position] = bad
        name = "abcd"[position]
        with pytest.raises(ValueError, match=f"^coefficient {name} must be finite$"):
            CubicModel(*coeffs)
        with pytest.raises(ValueError, match=f"^coefficient {name} must be finite$"):
            CubicModel(1.0, 2.0, 3.0, 4.0)._replace(**{name: bad})

    def test_value_semantics(self):
        # Hashes, copies and frozen fields are checked with the other records
        # in test_harness.py.
        m = CubicModel(1.0, 2.0, 3.0, 4.0)
        assert m == (1.0, 2.0, 3.0, 4.0) and m != (1.0, 2.0, 3.0, 5.0)
        assert CubicModel() == CubicModel(0.0, 0.0, 0.0, 0.0)
        assert repr(m) == "CubicModel(a=1.0, b=2.0, c=3.0, d=4.0)"

    def test_update_returns_the_estimator(self):
        est = RlsEstimator(0.98, 1e3)
        assert est.update(2.0, 5.0) is est
        assert type(est.coefficients) is tuple
        assert CubicModel.from_array(np.array(est.coefficients)) == est.coefficients

    @slope_owners
    def test_rejects_non_finite_phi(self, make):
        with pytest.raises(ValueError, match="frequency must be finite"):
            make(1, 1, 1, 1).derivative(math.nan)
