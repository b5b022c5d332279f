"""Tests for the kernel cost models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import gpu_spec, mtia1_spec, mtia2i_spec
from repro.graph import fc, layernorm, mha, tbe, transpose
from repro.kernels import (
    GemmVariant,
    KernelEstimate,
    Stationarity,
    default_variants,
    estimate_gemm,
    estimate_hstu_attention,
    estimate_layernorm,
    estimate_mha,
    estimate_op,
    estimate_softmax,
    estimate_tbe,
    gemm_efficiency,
    naive_variant,
)
from repro.tensors import DType, GemmShape, embedding_table, model_input, weight


class TestGemmKernel:
    def test_2k_gemm_exceeds_92_percent(self):
        """Section 3.3: >92% of peak FLOPS for 2K x 2K shapes."""
        eff = gemm_efficiency(GemmShape(2048, 2048, 2048), mtia2i_spec())
        assert eff > 0.92

    def test_naive_kernel_far_from_peak(self):
        """Out-of-the-box kernels were issue-bound (section 3.3)."""
        eff = gemm_efficiency(
            GemmShape(2048, 2048, 2048), mtia2i_spec(), variant=naive_variant()
        )
        assert eff < 0.6

    def test_small_gemm_lower_efficiency(self):
        big = gemm_efficiency(GemmShape(2048, 2048, 2048), mtia2i_spec())
        small = gemm_efficiency(GemmShape(64, 64, 64), mtia2i_spec())
        assert small < big

    def test_int8_twice_as_fast(self):
        shape = GemmShape(2048, 2048, 2048)
        chip = mtia2i_spec()
        fp16 = estimate_gemm(shape, chip, DType.FP16)
        int8 = estimate_gemm(shape, chip, DType.INT8)
        assert fp16.compute_s / int8.compute_s == pytest.approx(2.0, rel=0.05)

    def test_sparsity_doubles_throughput(self):
        shape = GemmShape(2048, 2048, 2048)
        chip = mtia2i_spec()
        dense = estimate_gemm(shape, chip, DType.FP16)
        sparse = estimate_gemm(shape, chip, DType.FP16, sparse=True)
        assert dense.compute_s / sparse.compute_s == pytest.approx(2.0, rel=0.05)

    def test_mtia1_slower_than_mtia2i(self):
        shape = GemmShape(1024, 1024, 1024)
        t1 = estimate_gemm(shape, mtia1_spec(), DType.FP16).engine_time_s
        t2 = estimate_gemm(shape, mtia2i_spec(), DType.FP16).engine_time_s
        assert t1 > 2.5 * t2

    def test_variant_grid_nonempty(self):
        variants = default_variants()
        assert len(variants) > 50
        assert len(set(variants)) == len(variants)

    def test_stationarity_changes_read_factors(self):
        shape = GemmShape(4096, 1024, 4096)
        chip = mtia2i_spec()
        ws = estimate_gemm(shape, chip, variant=GemmVariant(stationarity=Stationarity.WEIGHT))
        is_ = estimate_gemm(shape, chip, variant=GemmVariant(stationarity=Stationarity.INPUT))
        assert ws.weight_read_factor == 1.0
        assert is_.activation_read_factor == 1.0
        assert is_.weight_read_factor > 1.0

    def test_invalid_variant(self):
        with pytest.raises(ValueError):
            GemmVariant(stationarity="diagonal")
        with pytest.raises(ValueError):
            GemmVariant(block_m=0)


@given(
    m=st.integers(min_value=1, max_value=4096),
    k=st.integers(min_value=1, max_value=8192),
    n=st.integers(min_value=1, max_value=4096),
)
@settings(max_examples=60, deadline=None)
def test_gemm_estimate_positive_and_bounded(m, k, n):
    """Property: engine time is positive and efficiency never exceeds 1."""
    shape = GemmShape(m, k, n)
    chip = mtia2i_spec()
    estimate = estimate_gemm(shape, chip)
    assert estimate.compute_s > 0
    assert estimate.issue_s >= 0
    eff = gemm_efficiency(shape, chip)
    assert 0 < eff <= 1.0 + 1e-9


class TestTbeKernel:
    def test_issue_bound_without_advanced_instructions(self):
        chip = mtia2i_spec()
        fast = estimate_tbe(100_000, 128, chip, use_advanced_instructions=True)
        slow = estimate_tbe(100_000, 128, chip, use_advanced_instructions=False)
        assert slow.issue_s > fast.issue_s

    def test_weighted_costs_more_compute(self):
        chip = mtia2i_spec()
        plain = estimate_tbe(10_000, 128, chip, weighted=False)
        weighted = estimate_tbe(10_000, 128, chip, weighted=True)
        assert weighted.compute_s == pytest.approx(2 * plain.compute_s)

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_tbe(-1, 128, mtia2i_spec())


class TestNormalizationKernels:
    def test_layernorm_three_passes_cheaper_than_softmax_five(self):
        chip = mtia2i_spec()
        ln = estimate_layernorm(4096, 1024, chip)
        sm = estimate_softmax(4096, 1024, chip)
        assert sm.compute_s > ln.compute_s

    def test_small_inner_dim_softmax_pays_transpose(self):
        chip = mtia2i_spec()
        wide = estimate_softmax(4096, 512, chip)
        narrow = estimate_softmax(4096 * 16, 32, chip)  # same elements
        assert narrow.compute_s > wide.compute_s

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_layernorm(0, 128, mtia2i_spec())


class TestAttentionKernels:
    def test_mha_scales_quadratically_with_seq(self):
        chip = mtia2i_spec()
        short = estimate_mha(batch=16, heads=8, seq_len=64, head_dim=64, chip=chip)
        long = estimate_mha(batch=16, heads=8, seq_len=128, head_dim=64, chip=chip)
        assert long.compute_s > 2.5 * short.compute_s

    def test_hstu_scales_with_history(self):
        chip = mtia2i_spec()
        short = estimate_hstu_attention([64] * 16, heads=4, head_dim=64, chip=chip)
        long = estimate_hstu_attention([512] * 16, heads=4, head_dim=64, chip=chip)
        assert long.compute_s > 10 * short.compute_s

    def test_hstu_empty_rejected(self):
        with pytest.raises(ValueError):
            estimate_hstu_attention([], heads=4, head_dim=64, chip=mtia2i_spec())


class TestRegistry:
    def test_every_op_type_costable(self):
        chip = mtia2i_spec()
        x = model_input(64, 128)
        tables = [embedding_table(1000, 64)]
        ops = [
            fc(x, weight(128, 64)),
            tbe(tables, batch=8, avg_indices_per_lookup=4),
            layernorm(x),
            transpose(x),
            mha(x, heads=4, head_dim=32, seq_len=8, batch=8),
        ]
        for op in ops:
            estimate = estimate_op(op, chip)
            assert estimate.engine_time_s > 0

    def test_fused_cheaper_than_parts(self):
        from repro.graph.ops import elementwise, fused

        chip = mtia2i_spec()
        x = model_input(512, 1024)
        f1 = fc(x, weight(1024, 1024))
        e1 = elementwise([f1.output])
        combo = fused([f1, e1])
        combined = estimate_op(combo, chip)
        parts = estimate_op(f1, chip).compute_s + estimate_op(e1, chip).compute_s
        assert combined.compute_s < parts

    def test_gpu_estimates_work(self):
        x = model_input(1024, 1024)
        estimate = estimate_op(fc(x, weight(1024, 1024)), gpu_spec())
        assert estimate.compute_s > 0

    def test_kernel_estimate_validation(self):
        with pytest.raises(ValueError):
            KernelEstimate(compute_s=-1)
        with pytest.raises(ValueError):
            KernelEstimate(weight_read_factor=0)
