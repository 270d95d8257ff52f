import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from powerreg.freqset import DEFAULT_LEVELS
from powerreg.sysid import CubicModel, RlsEstimator


def regressors(phis):
    phis = np.asarray(phis, dtype=float)
    return np.vstack([phis**3, phis**2, phis, np.ones_like(phis)]).T


def batch_lstsq(phis, ys):
    coeffs, *_ = np.linalg.lstsq(regressors(phis), np.asarray(ys, float), rcond=None)
    return coeffs


def regularized_batch(phis, ys, lam, p0, x0=np.zeros(4)):
    """Normal-equation solution of the exact criterion RLS minimizes."""
    h = regressors(phis)
    n = len(phis)
    w = lam ** (n - 1 - np.arange(n))
    gram = (h * w[:, None]).T @ h + (lam**n / p0) * np.eye(4)
    rhs = (h * w[:, None]).T @ np.asarray(ys, float) + (lam**n / p0) * x0
    return np.linalg.solve(gram, rhs)


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
        assert est.sample_count == 0
        assert est.model == CubicModel()

    def test_prior_model_is_carried(self):
        est = RlsEstimator(forgetting=1.0, p0=1.0, x0=CubicModel(1.0, 0.0, 0.0, 0.0))
        assert est.model == CubicModel(1.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("lam", [1.5, 0.0, -0.1, float("nan")])
    def test_rejects_bad_forgetting(self, lam):
        with pytest.raises(ValueError):
            RlsEstimator(forgetting=lam, p0=1e3)

    @pytest.mark.parametrize("p0", [0.0, -1.0, float("inf")])
    def test_rejects_bad_p0(self, p0):
        with pytest.raises(ValueError):
            RlsEstimator(forgetting=1.0, p0=p0)


class TestUpdate:
    def test_matches_regularized_batch_solution_exactly(self):
        # the recursion is algebraically the regularized batch solve; with a
        # finite prior (p0=1e6) both must agree to near machine precision
        est = RlsEstimator(forgetting=1.0, p0=1e6)
        ys = [p**3 for p in FIVE_PHIS]
        for phi, y in zip(FIVE_PHIS, ys):
            est.update(phi, y)
        expected = regularized_batch(FIVE_PHIS, ys, 1.0, 1e6)
        assert est.model.as_array() == pytest.approx(expected, abs=1e-10)

    def test_noiseless_cube_recovery(self):
        # with a weak prior the estimate lands on the generating cubic
        est = RlsEstimator(forgetting=1.0, p0=1e9)
        for phi in FIVE_PHIS:
            est.update(phi, phi**3)
        assert est.model.as_array() == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-6)

    def test_single_update_is_gain_times_measurement(self):
        p0, lam, phi, power = 1e3, 1.0, 2.0, 9.0
        est = RlsEstimator(forgetting=lam, p0=p0)
        est.update(phi, power)
        h = np.array([phi**3, phi**2, phi, 1.0])
        k = (p0 * h) / (lam + p0 * (h @ h))
        assert est.model.as_array() == pytest.approx(k * power, rel=1e-12)
        assert est.sample_count == 1

    def test_forgetting_recovery_of_known_cubic(self):
        truth = CubicModel(2.0, 0.5, 1.0, 3.0)
        phis = [0.8, 1.1, 1.5, 1.8, 2.2, 2.5, 2.9, 3.4]
        ys = [truth.predict(p) for p in phis]
        est = RlsEstimator(forgetting=0.98, p0=1e8)
        for phi, y in zip(phis, ys):
            est.update(phi, y)
        # weighted batch solve as the oracle; with noiseless data it equals
        # the generating coefficients
        oracle = regularized_batch(phis, ys, 0.98, 1e8)
        assert est.model.as_array() == pytest.approx(oracle, abs=1e-9)
        assert est.model.as_array() == pytest.approx([2.0, 0.5, 1.0, 3.0], abs=1e-4)

    def test_state_unchanged_on_bad_input(self):
        est = RlsEstimator(forgetting=0.98, p0=1e3)
        est.update(2.0, 5.0)
        x, p, n = est.model, est.P.copy(), est.sample_count
        for phi, power in [(float("nan"), 1.0), (-1.0, 1.0), (0.0, 1.0),
                           (2.0, float("inf"))]:
            with pytest.raises(ValueError):
                est.update(phi, power)
        assert est.model == x
        assert np.array_equal(est.P, p)
        assert est.sample_count == n

    def test_overflowing_update_is_named_and_leaves_state(self):
        # the new coefficient a is -inf: the update is refused before P moves
        est = RlsEstimator(0.98, 1e3, CubicModel(1e307, 0, 0, 0))
        x, p = est.model, est.P.copy()
        with pytest.raises(ValueError, match="coefficient a must be finite"):
            est.update(3.4, -1e308)
        assert est.model == x
        assert np.array_equal(est.P, p)
        assert est.sample_count == 0

    def test_degenerate_covariance_is_named_and_leaves_state(self):
        # p0 * h'h overflows: lambda + h'Ph is inf on the first sample
        est = RlsEstimator(0.98, 1e307)
        x, p = est.model, est.P.copy()
        with pytest.raises(ValueError, match="RLS covariance"):
            est.update(3.4, 10.0)
        assert est.model == x
        assert np.array_equal(est.P, p)
        assert est.sample_count == 0

    @settings(max_examples=200, deadline=None)
    @given(lam=st.floats(0.9, 1.0), p0=st.floats(1.0, 1e4),
           samples=st.lists(st.tuples(st.sampled_from(DEFAULT_LEVELS),
                                      st.floats(0.0, 20.0)),
                            min_size=1, max_size=40))
    def test_matches_textbook_recursion(self, lam, p0, samples):
        est = RlsEstimator(lam, p0)
        for phi, y in samples:
            est.update(phi, y)
        x, p = textbook_rls(samples, lam, p0)
        got = est.model.as_array()
        assert np.max(np.abs(got - x)) <= 1e-7 * np.max(np.abs(x))
        assert est.P.shape == (4, 4)
        assert np.array_equal(est.P, est.P.T)
        assert np.max(np.abs(est.P - p)) <= 1e-7 * np.max(np.abs(p))


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
            ys = [truth.predict(p) for p in phis]
            est = RlsEstimator(forgetting=1.0, p0=1e13)
            for phi, y in zip(phis, ys):
                est.update(phi, y)
            expected = batch_lstsq(phis, ys)
            scale = np.max(np.abs(expected))
            assert np.max(np.abs(est.model.as_array() - expected)) <= 1e-8 * scale

    def test_covariance_stays_symmetric_and_positive_definite(self):
        rng = random.Random(7)
        est = RlsEstimator(forgetting=0.95, p0=1e4)
        for _ in range(300):
            phi = rng.uniform(0.8, 3.4)
            est.update(phi, rng.uniform(2.0, 15.0))
            assert np.array_equal(est.P, est.P.T)
            np.linalg.cholesky(est.P)  # raises if not positive definite


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
            est.update(phi, truth.predict(phi))
            errors.append(abs(est.model.predict(phi) - truth.predict(phi)))
        assert errors[switch + 50] < errors[switch + 1]
        # forgetting has washed out the old regime almost entirely by then
        assert errors[switch + 50] < 0.02 * errors[switch + 1]


class TestCubicModel:
    def test_predict_values(self):
        assert CubicModel(1, 2, 3, 4).predict(1.0) == 10.0
        assert CubicModel(0, 0, 0, 7).predict(123.4) == 7.0
        assert CubicModel(1, 0, 0, 0).predict(3.0) == 27.0

    def test_derivative_values(self):
        assert CubicModel(1, 0, 0, 0).derivative(2.0) == 12.0
        assert CubicModel(2, 0, 1, 5).derivative(1.0) == 7.0

    def test_derivative_matches_central_difference(self):
        rng = random.Random(3)
        h = 1e-4
        for _ in range(50):
            m = CubicModel(rng.uniform(-3, 3), rng.uniform(-3, 3),
                           rng.uniform(-3, 3), rng.uniform(-3, 3))
            phi = rng.uniform(0.5, 3.5)
            fd = (m.predict(phi + h) - m.predict(phi - h)) / (2.0 * h)
            assert m.derivative(phi) == pytest.approx(fd, abs=1e-6)

    def test_rejects_non_finite_coefficients(self):
        with pytest.raises(ValueError):
            CubicModel(float("nan"), 0, 0, 0)

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

    def test_is_immutable(self):
        m = CubicModel(1.0, 2.0, 3.0, 4.0)
        with pytest.raises(AttributeError):
            m.a = 5.0
        with pytest.raises(AttributeError):
            m.e = 5.0

    def test_value_semantics(self):
        m = CubicModel(1.0, 2.0, 3.0, 4.0)
        assert m == CubicModel(1.0, 2.0, 3.0, 4.0)
        assert m != CubicModel(1.0, 2.0, 3.0, 5.0)
        assert m == (1.0, 2.0, 3.0, 4.0)
        assert hash(m) == hash(CubicModel(1.0, 2.0, 3.0, 4.0))
        assert CubicModel() == CubicModel(0.0, 0.0, 0.0, 0.0)
        assert repr(m) == "CubicModel(a=1.0, b=2.0, c=3.0, d=4.0)"

    def test_pickle_and_deepcopy_round_trip(self):
        m = CubicModel(1.5, -2.0, 3.25, 1e-300)
        for back in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m)):
            assert type(back) is CubicModel
            assert back == m

    def test_update_returns_a_cubic_model(self):
        est = RlsEstimator(0.98, 1e3)
        m = est.update(2.0, 5.0)
        assert type(m) is CubicModel and m is est.model
        assert CubicModel.from_array(m.as_array()) == m

    def test_rejects_non_finite_phi(self):
        m = CubicModel(1, 1, 1, 1)
        with pytest.raises(ValueError):
            m.predict(math.inf)
        with pytest.raises(ValueError):
            m.derivative(math.nan)
