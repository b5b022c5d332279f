"""Unit tests for repro.surrogate: features, models, verification, and
the verified kernel-tuning integration."""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest

from repro.arch import mtia2i_spec
from repro.autotune import exhaustive_tune, surrogate_tune
from repro.kernels.gemm import default_variants
from repro.obs.metrics import MetricsRegistry
from repro.surrogate import (
    GemmFeatureSpace,
    RidgeRegressor,
    SurrogateModel,
    collect_gemm_dataset,
    train_gemm_surrogate,
    verified_argmin,
)
from repro.surrogate.features import GEMM_FEATURE_NAMES
from repro.tensors import DType, GemmShape

CHIP = mtia2i_spec()
# One small trained surrogate shared across the module: training is
# deterministic, so sharing it changes nothing but wall time.
SURROGATE, REPORTS = train_gemm_surrogate(
    CHIP, n_samples=800, seed=0, include_energy=True
)

QUERY_SHAPES = [(700, 1700, 800), (3000, 600, 2000), (150, 300, 150)]


class TestFeatures:
    def test_pair_matrix_shape_and_names(self):
        space = GemmFeatureSpace(CHIP)
        variants = default_variants()[:7]
        shapes = [(64, 128, 256)] * 7
        X = space.pair_matrix(shapes, variants)
        assert X.shape == (7, len(GEMM_FEATURE_NAMES))
        assert X.dtype == np.float32
        assert np.all(np.isfinite(X))

    def test_grid_factorization_consistent(self):
        """One S x V sweep must equal S single-shape sweeps cell for
        cell.  Tolerance is float32 ULPs, not zero: BLAS picks batch-
        size-dependent matvec kernels, so cross-batch accumulation
        order can differ even though each call is itself deterministic."""
        variants = default_variants()[::97]
        shapes = [(64, 128, 256), (700, 1700, 800), (31, 33, 35)]
        grid = SURROGATE.predict_time_grid(shapes, variants)
        assert grid.shape == (len(shapes), len(variants))
        for i, shape in enumerate(shapes):
            row = SURROGATE.predict_time_grid([shape], variants)
            np.testing.assert_allclose(grid[i], row[0], rtol=1e-5)

    def test_rank_variants_is_grid_argsort(self):
        variants = default_variants()[:200]
        ranking = SURROGATE.rank_variants((700, 1700, 800), variants)
        row = SURROGATE.predict_time_grid([(700, 1700, 800)], variants)[0]
        np.testing.assert_array_equal(
            ranking, np.argsort(row, kind="stable")
        )


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
        a, _ = train_gemm_surrogate(CHIP, n_samples=400, seed=3)
        b, _ = train_gemm_surrogate(CHIP, n_samples=400, seed=3)
        variants = default_variants()[:50]
        ga = a.predict_time_grid(QUERY_SHAPES, variants)
        gb = b.predict_time_grid(QUERY_SHAPES, variants)
        np.testing.assert_array_equal(ga, gb)

    def test_holdout_error_bands(self):
        assert REPORTS["latency"].mape_holdout <= 0.10
        assert REPORTS["latency"].p95_rel_error_holdout <= 0.20
        assert REPORTS["energy"].mape_holdout <= 0.10
        assert REPORTS["latency"].n_holdout > 0

    def test_pickle_round_trip(self):
        clone = pickle.loads(pickle.dumps(SURROGATE))
        variants = default_variants()[:64]
        np.testing.assert_array_equal(
            clone.predict_time_grid(QUERY_SHAPES, variants),
            SURROGATE.predict_time_grid(QUERY_SHAPES, variants),
        )

    def test_log_targets_reject_nonpositive(self):
        model = SurrogateModel()
        X = np.ones((8, 2))
        with pytest.raises(ValueError):
            model.fit(X, np.zeros(8))


class TestVerify:
    def test_verified_argmin_returns_exact_value(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        # Ranking is wrong on purpose; top-3 still covers index 1.
        result = verified_argmin([4, 1, 3, 0, 2], lambda i: values[i], 3)
        assert result.best_index == 1
        assert result.best_value == 1.0
        assert result.exact_evaluations == 3
        assert set(result.evaluated) == {4, 1, 3}


class TestKernelIntegration:
    def test_surrogate_tune_matches_exhaustive_time(self):
        for mkn in QUERY_SHAPES:
            shape = GemmShape(*mkn)
            gold = exhaustive_tune(shape, CHIP)
            result = surrogate_tune(shape, CHIP, SURROGATE)
            assert result.kernel_time_s == pytest.approx(
                gold.kernel_time_s, rel=1e-12
            )
            assert result.evaluations == 16

    def test_surrogate_tune_counts_metrics(self):
        registry = MetricsRegistry()
        surrogate_tune(
            GemmShape(64, 128, 256), CHIP, SURROGATE, registry=registry
        )
        counters = registry.snapshot()["counters"]
        assert counters["surrogate.kernel.predictions"] == len(
            default_variants()
        )
        assert counters["surrogate.kernel.exact_evals"] == 16

    def test_surrogate_tune_rejects_wrong_chip_or_dtype(self):
        other = mtia2i_spec()
        with pytest.raises(ValueError):
            surrogate_tune(GemmShape(8, 8, 8), other, SURROGATE)
        with pytest.raises(ValueError):
            surrogate_tune(
                GemmShape(8, 8, 8), CHIP, SURROGATE, dtype=DType.INT8
            )


class TestDataset:
    def test_collect_gemm_dataset_deduplicates(self):
        dataset, _space = collect_gemm_dataset(CHIP, n_samples=300, seed=1)
        assert dataset.X.shape[0] <= 300
        assert dataset.energy_j is not None
        assert np.all(dataset.energy_j > 0)

    def test_collect_gemm_dataset_bytes_pinned(self):
        """The training table is a fixed function of (chip, count,
        seed): the sha256 of its X, latency and energy bytes."""
        dataset, _space = collect_gemm_dataset(CHIP, 1500, seed=0)
        digest = hashlib.sha256()
        for column in (dataset.X, dataset.latency_s, dataset.energy_j):
            digest.update(column.tobytes())
        assert digest.hexdigest() == (
            "ff36c31bf7d373ddec10ff8a063c77d6ecd0d392e650135698a189342991bfab"
        )
