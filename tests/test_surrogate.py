"""Unit tests for repro.surrogate's regressor stack, on seeded synthetic
tables: a log-linear target plus one step, which the ridge and the
boosted stumps share between them."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.surrogate import RidgeRegressor, SurrogateModel


def synthetic_table(n_rows, seed):
    """Seeded (X, y): y = 2 ** (1.5 x0 - 0.5 x1 + 0.75 [x2 > 0.2])."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n_rows, 4))
    y = np.exp2(1.5 * X[:, 0] - 0.5 * X[:, 1] + 0.75 * (X[:, 2] > 0.2))
    return X, y


X_TABLE, Y_TABLE = synthetic_table(600, seed=0)


def fitted(seed=0):
    model = SurrogateModel()
    report = model.fit(X_TABLE, Y_TABLE, seed=seed, target="latency")
    return model, report


class TestModel:
    def test_ridge_recovers_linear_function(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(200, 4))
        w = np.array([1.5, -2.0, 0.5, 3.0])
        y = X @ w + 7.0
        ridge = RidgeRegressor(l2=1e-9)
        ridge.fit(X, y)
        np.testing.assert_allclose(ridge.predict(X), y, rtol=1e-6)

    def test_training_is_deterministic(self):
        a, report_a = fitted(seed=3)
        b, report_b = fitted(seed=3)
        np.testing.assert_array_equal(a.predict(X_TABLE), b.predict(X_TABLE))
        assert report_a == report_b

    def test_holdout_error_bands(self):
        _, report = fitted()
        assert report.n_holdout == 120
        assert report.n_train == 480
        assert report.mape_holdout <= 0.05
        assert report.p95_rel_error_holdout <= 0.15

    def test_pickle_round_trip(self):
        model, _ = fitted()
        clone = pickle.loads(pickle.dumps(model))
        np.testing.assert_array_equal(
            clone.predict(X_TABLE), model.predict(X_TABLE)
        )

    def test_log_targets_reject_nonpositive(self):
        model = SurrogateModel()
        X = np.ones((8, 2))
        with pytest.raises(ValueError):
            model.fit(X, np.zeros(8))
