"""Tests for the workload builders and the model zoo (Table 1, Figure 6)."""

import dataclasses

import pytest

from repro.graph import OpType
from repro.models import (
    DhenConfig,
    DlrmConfig,
    EmbeddingBagConfig,
    HstuConfig,
    build_dhen,
    build_dlrm,
    build_hstu,
    figure6_models,
    small_dlrm,
    table1_models,
    table1_row,
)
class TestDlrmBuilder:
    def test_builds_valid_graph(self):
        graph = build_dlrm(small_dlrm())
        graph.validate_schedule()
        assert len(graph.graph_outputs()) == 1

    def test_has_canonical_components(self):
        graph = build_dlrm(small_dlrm())
        kinds = {op.op_type for op in graph.ops}
        assert OpType.FC in kinds
        assert OpType.TBE in kinds
        assert OpType.INTERACTION in kinds
        assert OpType.CONCAT in kinds

    def test_embedding_dominates_size(self):
        """Table 1: 90% of model size is embeddings."""
        graph = build_dlrm(small_dlrm())
        assert graph.embedding_bytes() / graph.weight_bytes() > 0.9

    def test_batch_scales_flops_linearly(self):
        config = small_dlrm()
        g1 = build_dlrm(dataclasses.replace(config, batch=256))
        g2 = build_dlrm(dataclasses.replace(config, batch=512))
        assert g2.total_flops() == pytest.approx(2 * g1.total_flops(), rel=0.01)

    def test_flops_per_sample_batch_invariant(self):
        config = small_dlrm()
        g1 = build_dlrm(dataclasses.replace(config, batch=256))
        g2 = build_dlrm(dataclasses.replace(config, batch=1024))
        assert g1.flops_per_sample(256) == pytest.approx(
            g2.flops_per_sample(1024), rel=0.01
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DlrmConfig(name="x", batch=0, num_dense_features=8,
                       bottom_mlp_dims=(8,), top_mlp_dims=(8,),
                       embeddings=(EmbeddingBagConfig(1, 10, 8, 1.0),))
        with pytest.raises(ValueError):
            EmbeddingBagConfig(num_tables=0, rows_per_table=10, embed_dim=8,
                               pooling_factor=1.0)


class TestDhenBuilder:
    def _config(self, **kwargs):
        defaults = dict(
            name="dhen", batch=128, hidden_dim=512, num_layers=3,
            num_dense_features=256,
            embeddings=(EmbeddingBagConfig(8, 10_000, 64, 4.0),),
            fm_features=16,
        )
        defaults.update(kwargs)
        return DhenConfig(**defaults)

    def test_builds_valid_graph(self):
        graph = build_dhen(self._config())
        graph.validate_schedule()

    def test_layers_have_layernorm_and_skip(self):
        graph = build_dhen(self._config())
        norms = [op for op in graph.ops if op.op_type is OpType.LAYERNORM]
        skips = [op for op in graph.ops if "skip" in op.name]
        assert len(norms) == 3
        assert len(skips) == 3

    def test_mha_variant_adds_attention(self):
        graph = build_dhen(self._config(mha_heads=4, batch=256))
        assert any(op.op_type is OpType.MHA for op in graph.ops)

    def test_deeper_stack_more_flops(self):
        shallow = build_dhen(self._config(num_layers=2))
        deep = build_dhen(self._config(num_layers=6))
        assert deep.total_flops() > 2 * shallow.total_flops()


class TestHstuBuilder:
    def _config(self, **kwargs):
        defaults = dict(
            name="hstu", batch=16, hidden_dim=128, num_layers=2, heads=4,
            mean_seq_len=64, max_seq_len=256, num_tables=4,
            rows_per_table=100_000, embed_dim=64,
        )
        defaults.update(kwargs)
        return HstuConfig(**defaults)

    def test_builds_valid_graph(self):
        graph = build_hstu(self._config())
        graph.validate_schedule()
        assert any(op.op_type is OpType.HSTU_ATTENTION for op in graph.ops)

    def test_sequence_tbe_used(self):
        graph = build_hstu(self._config())
        tbe_ops = [op for op in graph.ops if op.op_type is OpType.TBE]
        assert tbe_ops and tbe_ops[0].attrs["sequence"]

    def test_lengths_skewed_and_bounded(self):
        config = self._config()
        lengths = config.sample_seq_lengths()
        assert len(lengths) == 16
        assert max(lengths) <= 256
        assert min(lengths) >= 1

    def test_longer_histories_more_flops(self):
        short = build_hstu(self._config(mean_seq_len=32))
        long = build_hstu(self._config(mean_seq_len=128))
        assert long.total_flops() > 2 * short.total_flops()


class TestTable1:
    """Table 1's published coordinates, within loose synthetic tolerance."""

    def setup_method(self):
        self.rows = {m.name: table1_row(m) for m in table1_models()}

    def test_retrieval_coordinates(self):
        row = self.rows["retrieval"]
        assert 50 <= row.model_size_gb <= 110
        assert 0.001 <= row.gflops_per_sample <= 0.01

    def test_early_stage_coordinates(self):
        row = self.rows["early_stage"]
        assert 100 <= row.model_size_gb <= 300
        assert 0.01 <= row.gflops_per_sample <= 0.1

    def test_late_stage_coordinates(self):
        row = self.rows["late_stage"]
        assert 100 <= row.model_size_gb <= 300
        assert 0.2 <= row.gflops_per_sample <= 2.0

    def test_hstu_retrieval_coordinates(self):
        row = self.rows["hstu_retrieval"]
        assert 800 <= row.model_size_gb <= 1300  # ~1 TB
        assert 5 <= row.gflops_per_sample <= 20  # ~10 GF/request

    def test_hstu_ranking_coordinates(self):
        row = self.rows["hstu_ranking"]
        assert 1600 <= row.model_size_gb <= 2600  # ~2 TB
        assert 40 <= row.gflops_per_sample <= 120  # ~80 GF/request

    def test_embeddings_dominate_everywhere(self):
        for row in self.rows.values():
            assert row.embedding_fraction > 0.9

    def test_funnel_complexity_ordering(self):
        assert (
            self.rows["retrieval"].gflops_per_sample
            < self.rows["early_stage"].gflops_per_sample
            < self.rows["late_stage"].gflops_per_sample
            < self.rows["hstu_retrieval"].gflops_per_sample
            < self.rows["hstu_ranking"].gflops_per_sample
        )


class TestFigure6Zoo:
    def setup_method(self):
        self.models = figure6_models()

    def test_nine_models(self):
        assert [m.name for m in self.models] == [
            "LC1", "LC2", "LC3", "LC4", "LC5", "HC1", "HC2", "HC3", "HC4",
        ]

    def test_complexity_bands(self):
        """Section 7: LC 15-105 MF/sample; HC 480-1000 MF/sample, with
        over-60x spread across late-stage models."""
        flops = {
            m.name: m.graph().flops_per_sample(m.batch) / 1e6 for m in self.models
        }
        for name in ("LC1", "LC2", "LC3", "LC4", "LC5"):
            assert 10 <= flops[name] <= 130, name
        for name in ("HC1", "HC2", "HC3", "HC4"):
            assert 250 <= flops[name] <= 1100, name
        assert max(flops.values()) / min(flops.values()) > 20

    def test_lc1_has_largest_batch(self):
        batches = {m.name: m.batch for m in self.models}
        assert batches["LC1"] == 4096
        assert batches["LC1"] == max(batches.values())

    def test_hc1_biggest_batch_above_100mf(self):
        """Section 7: HC1's 2K batch is the largest of any model with
        >100 MFLOPS/sample."""
        big = [m for m in self.models
               if m.graph().flops_per_sample(m.batch) > 100e6]
        hc1 = [m for m in big if m.name == "HC1"][0]
        assert hc1.batch == max(m.batch for m in big)

    def test_hc3_hc4_sharded(self):
        shards = {m.name: m.accelerators for m in self.models}
        assert shards["HC3"] == 2
        assert shards["HC4"] == 2
        assert shards["LC1"] == 1

    def test_gpu_batches_at_least_mtia(self):
        for m in self.models:
            assert (m.gpu_batch or m.batch) >= m.batch

    def test_graph_at_builds_other_batches(self):
        m = self.models[0]
        assert m.build_at(128).flops_per_sample(128) == pytest.approx(
            m.graph().flops_per_sample(m.batch), rel=0.05
        )
