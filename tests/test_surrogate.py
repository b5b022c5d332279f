"""Unit tests for repro.surrogate: features, models, verification, and
the three opt-in integrations (kernel tuning, capacity, power)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.arch import mtia2i_spec
from repro.autotune import autotune_model, exhaustive_tune, surrogate_tune
from repro.cluster.capacity import capacity_sweep, replicas_needed
from repro.cluster.service import ServiceModel
from repro.fastsim.memo import KernelLatencyMemo
from repro.kernels.gemm import default_variants
from repro.models.zoo import lc1
from repro.obs.metrics import MetricsRegistry
from repro.power.cluster_link import power_limited_capacity_sweep
from repro.surrogate import (
    DatasetRecorder,
    GemmFeatureSpace,
    RidgeRegressor,
    SurrogateModel,
    collect_executor_dataset,
    collect_gemm_dataset,
    train_capacity_surrogate,
    train_gemm_surrogate,
    train_power_surrogate,
    verified_argmin,
    verified_max_feasible,
    verified_min_feasible,
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

    def test_dtype_mismatch_rejected(self):
        space = GemmFeatureSpace(CHIP, dtype=DType.FP16)
        recorder = DatasetRecorder()
        recorder(GemmShape(8, 8, 8), default_variants()[0], DType.INT8, 1e-6)
        assert recorder.to_dataset(space).X.shape[0] == 0


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

    def test_min_feasible_matches_linear_scan(self):
        for boundary in range(0, 10):
            feasible = lambda i: i >= boundary  # noqa: E731
            scan = next(i for i in range(10) if feasible(i))
            for guess in range(-2, 12):
                answer, _ = verified_min_feasible(guess, 0, 9, feasible)
                assert answer == scan

    def test_min_feasible_infeasible_range(self):
        answer, calls = verified_min_feasible(5, 0, 9, lambda i: False)
        assert answer is None
        assert calls == 5  # 5..9 probed once each

    def test_max_feasible_mirror(self):
        for boundary in range(0, 10):
            feasible = lambda i: i <= boundary  # noqa: E731
            for guess in range(-2, 12):
                answer, _ = verified_max_feasible(guess, 0, 9, feasible)
                assert answer == boundary


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

    def test_autotune_model_on_off_same_kernel_times(self):
        build = lc1().graph_at
        off = autotune_model(build, CHIP, model_name="lc1")
        on = autotune_model(
            build, CHIP, model_name="lc1", surrogate=SURROGATE,
        )
        assert off.kernel_variants.keys() == on.kernel_variants.keys()
        for name, gold in off.kernel_variants.items():
            assert on.kernel_variants[name].kernel_time_s == pytest.approx(
                gold.kernel_time_s, rel=1e-12
            )
        evals_off = sum(r.evaluations for r in off.kernel_variants.values())
        evals_on = sum(r.evaluations for r in on.kernel_variants.values())
        assert evals_on < evals_off / 10


class TestDataset:
    def test_recorder_rows_align_with_memo_misses(self):
        recorder = DatasetRecorder()
        memo = KernelLatencyMemo(CHIP, recorder=recorder)
        variants = default_variants()[:5]
        shape = GemmShape(96, 160, 224)
        for variant in variants + variants:  # second pass is all hits
            memo.measure(shape, variant, DType.FP16)
        assert len(recorder) == memo.misses == 5
        dataset = recorder.to_dataset(GemmFeatureSpace(CHIP))
        assert dataset.X.shape == (5, len(GEMM_FEATURE_NAMES))
        assert np.all(dataset.latency_s > 0)

    def test_collect_gemm_dataset_deduplicates(self):
        dataset, _space = collect_gemm_dataset(CHIP, n_samples=300, seed=1)
        assert dataset.X.shape[0] <= 300
        assert dataset.energy_j is not None
        assert np.all(dataset.energy_j > 0)

    def test_collect_executor_dataset(self):
        dataset = collect_executor_dataset(
            lc1().graph_at, CHIP, batches=(64,)
        )
        assert dataset.X.shape[0] > 0
        assert np.all(dataset.latency_s > 0)


class TestServingIntegrations:
    SERVICE = ServiceModel(mean_service_s=0.004, jitter_sigma=0.3)

    def test_replicas_needed_on_off_identical(self):
        surrogate, _ = train_capacity_surrogate(
            self.SERVICE, qps_points=(400.0, 1200.0),
            policies=("po2",), duration_s=6.0, max_replicas=40,
        )
        registry = MetricsRegistry()
        for qps in (500.0, 1000.0):
            off = replicas_needed(
                "po2", qps, self.SERVICE, duration_s=6.0, max_replicas=40
            )
            on = replicas_needed(
                "po2", qps, self.SERVICE, duration_s=6.0, max_replicas=40,
                surrogate=surrogate, registry=registry,
            )
            assert off == on
        counters = registry.snapshot()["counters"]
        assert counters["surrogate.capacity.predictions"] == 2
        assert counters["surrogate.capacity.exact_runs"] >= 2

    def test_capacity_sweep_on_off_identical(self):
        surrogate, _ = train_capacity_surrogate(
            self.SERVICE, qps_points=(400.0, 1200.0),
            policies=("po2",), duration_s=6.0, max_replicas=40,
        )
        off = capacity_sweep(
            self.SERVICE, qps_points=(600.0,), policies=("po2",),
            duration_s=6.0,
        )
        on = capacity_sweep(
            self.SERVICE, qps_points=(600.0,), policies=("po2",),
            duration_s=6.0, surrogate=surrogate,
        )
        assert off == on

    def test_power_sweep_on_off_identical(self):
        budgets = (1200.0, 1600.0, 2000.0, 2400.0)
        surrogate, _ = train_power_surrogate(
            self.SERVICE, probe_budgets_w=(1100.0, 1800.0, 2600.0),
            replicas=24, duration_s=6.0,
        )
        registry = MetricsRegistry()
        off = power_limited_capacity_sweep(
            self.SERVICE, budgets, replicas=24, duration_s=6.0
        )
        on = power_limited_capacity_sweep(
            self.SERVICE, budgets, replicas=24, duration_s=6.0,
            surrogate=surrogate, registry=registry,
        )
        assert off == on
        counters = registry.snapshot()["counters"]
        assert counters["surrogate.power.exact_runs"] <= counters[
            "surrogate.power.linear_scan_runs"
        ]
