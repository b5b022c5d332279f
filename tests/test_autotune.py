"""Tests for the autotuning framework (paper section 4.1)."""

import dataclasses

import pytest

from repro.arch import mtia2i_spec
from repro.autotune import (
    PerformanceDatabase,
    ann_tune,
    autotune_model,
    compare_tuners,
    exhaustive_tune,
    plan_sharding,
    required_shards,
    tune_batch_size,
    tune_placement,
)
from repro.models.dlrm import DlrmConfig, EmbeddingBagConfig, build_dlrm, small_dlrm
from repro.tensors import GemmShape
from repro.units import GiB


def _builder(config=None):
    config = config or small_dlrm()
    return lambda batch: build_dlrm(dataclasses.replace(config, batch=batch))


class TestKernelTuner:
    def test_exhaustive_finds_best(self):
        chip = mtia2i_spec()
        result = exhaustive_tune(GemmShape(1024, 1024, 1024), chip)
        assert result.evaluations > 1000
        # No variant in the grid beats the winner.
        from repro.autotune.kernel_tuner import measure_variant
        from repro.kernels import default_variants

        for variant in default_variants():
            assert measure_variant(result.shape, variant, chip) >= result.kernel_time_s - 1e-15

    def test_database_nearest(self):
        chip = mtia2i_spec()
        database = PerformanceDatabase()
        for shape in (GemmShape(512, 512, 512), GemmShape(4096, 4096, 4096)):
            database.add(exhaustive_tune(shape, chip))
        nearest = database.nearest(GemmShape(600, 600, 600))
        assert nearest.shape == GemmShape(512, 512, 512)

    def test_empty_database(self):
        assert PerformanceDatabase().nearest(GemmShape(1, 1, 1)) is None

    def test_ann_single_evaluation(self):
        chip = mtia2i_spec()
        database = PerformanceDatabase()
        database.add(exhaustive_tune(GemmShape(1024, 1024, 1024), chip))
        result = ann_tune(GemmShape(1100, 1000, 900), chip, database)
        assert result.evaluations == 1

    def test_ann_speedup_and_quality(self):
        """Section 4.1: ANN cut tuning time by up to 1000x with perf
        within 5% of exhaustive.  At this grid size the evaluation-count
        ratio is the variant-grid cardinality (hundreds); quality stays
        within the 5% band."""
        chip = mtia2i_spec()
        training = [
            GemmShape(m, k, n)
            for m in (256, 1024, 4096)
            for k in (512, 2048)
            for n in (256, 1024, 4096)
        ]
        queries = [GemmShape(700, 1700, 800), GemmShape(3000, 600, 2000),
                   GemmShape(512, 1024, 512)]
        comparison = compare_tuners(training, queries, chip)
        assert comparison.evaluation_speedup > 500
        assert comparison.mean_quality_gap < 0.05

    def test_cell_size_validation(self):
        with pytest.raises(ValueError):
            PerformanceDatabase(cell_size=0)


class TestBatchTuner:
    def test_picks_slo_respecting_batch(self):
        result = tune_batch_size(_builder(), mtia2i_spec(), latency_slo_s=0.050)
        assert result.best.meets_slo
        assert result.best.batch in (128, 256, 512, 1024, 2048, 4096)

    def test_throughput_monotone_under_slo(self):
        result = tune_batch_size(_builder(), mtia2i_spec(), latency_slo_s=0.100)
        eligible = [c for c in result.candidates if c.meets_slo]
        assert result.best.throughput == max(c.throughput for c in eligible)

    def test_tight_slo_forces_small_batch(self):
        loose = tune_batch_size(_builder(), mtia2i_spec(), latency_slo_s=0.200)
        tight = tune_batch_size(_builder(), mtia2i_spec(), latency_slo_s=0.002)
        assert tight.best.batch <= loose.best.batch

    def test_invalid_slo(self):
        with pytest.raises(ValueError):
            tune_batch_size(_builder(), mtia2i_spec(), latency_slo_s=0)


class TestPlacementTuner:
    def test_small_model_lands_in_lls(self):
        decision = tune_placement(_builder(), 512, mtia2i_spec())
        assert decision.activations_in_lls
        assert decision.partition.lls_bytes >= decision.activation_buffer_bytes

    def test_oversized_activations_fall_back(self):
        """Policy: compare the nearest lower LLS-resident batch with the
        LLC-resident current batch and pick the winner."""
        config = dataclasses.replace(
            small_dlrm(),
            bottom_mlp_dims=(16384, 16384),
            top_mlp_dims=(16384, 16384),
            num_dense_features=16384,
        )
        decision = tune_placement(_builder(config), 8192, mtia2i_spec())
        # Either it chose a smaller LLS-resident batch, or it kept the
        # big batch with activations in LLC.
        if decision.activations_in_lls:
            assert decision.batch < 8192
        else:
            assert decision.batch == 8192


class TestSharding:
    def _big_model(self, gib):
        bag = EmbeddingBagConfig(
            num_tables=64,
            rows_per_table=int(gib * GiB) // (64 * 128 * 2),
            embed_dim=128,
            pooling_factor=8,
        )
        config = DlrmConfig(
            name="big",
            batch=256,
            num_dense_features=512,
            bottom_mlp_dims=(512,),
            top_mlp_dims=(512,),
            embeddings=(bag,),
        )
        return build_dlrm(config)

    def test_small_model_one_shard(self):
        assert required_shards(self._big_model(40), mtia2i_spec()) == 1

    def test_large_model_sharded(self):
        """Paper: models whose embeddings exceed device DRAM shard across
        accelerators (HC3 uses two)."""
        shards = required_shards(self._big_model(180), mtia2i_spec())
        assert shards == 2

    def test_plan_balanced(self):
        graph = self._big_model(180)
        plan = plan_sharding(graph, mtia2i_spec())
        assert plan.num_shards == 2
        fills = plan.bytes_per_shard
        assert sum(fills) / len(fills) / max(fills) > 0.9  # mean/max fill
        assert len(plan.table_assignment) == 64

    def test_plan_respects_capacity(self):
        graph = self._big_model(180)
        plan = plan_sharding(graph, mtia2i_spec())
        usable = mtia2i_spec().dram.capacity_bytes * 0.85
        assert plan.max_shard_bytes <= usable

    def test_forced_undersharding_rejected(self):
        graph = self._big_model(300)
        with pytest.raises(ValueError):
            plan_sharding(graph, mtia2i_spec(), num_shards=1)


class TestOrchestrator:
    def test_full_autotune(self):
        result = autotune_model(_builder(), mtia2i_spec(), model_name="small")
        assert result.batch >= 128
        assert result.shard_plan.num_shards == 1
        assert len(result.kernel_variants) > 0
        assert result.placement.activations_in_lls

    def test_database_reuse_across_models(self):
        """The second model tunes via ANN against the first's database."""
        database = PerformanceDatabase()
        autotune_model(_builder(), mtia2i_spec(), kernel_database=database)
        populated = len(database)
        assert populated > 0
        second = autotune_model(_builder(), mtia2i_spec(), kernel_database=database)
        # ANN path: evaluations per shape should be 1.
        assert all(r.evaluations == 1 for r in second.kernel_variants.values())
