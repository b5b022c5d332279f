"""Tests for the PE engine models: DPE, SIMD, RISC-V issue, RE, MLU, CP
and the work-queue engine."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import mtia1_spec, mtia2i_spec
from repro.pe import (
    DpeConfig,
    MluConfig,
    PipelineStage,
    RiscvVectorConfig,
    eager_launch_timeline,
    eager_viable,
    elementwise_time,
    gemm_issue,
    launch_reduction,
    lut_approximation,
    lut_gather_time,
    mtia2i_simd_config,
    pipeline_time,
    reshape_time,
    rowwise_minmax,
    simulate_pipeline,
    tbe_issue,
    tile_utilization,
    transpose_time,
)
from repro.tensors import DType, GemmShape


class TestDpe:
    def test_peak_matches_table2(self):
        """Per-PE peaks x 64 PEs reproduce Table 2's chip-wide numbers."""
        config = DpeConfig()
        assert 64 * config.peak_flops(DType.FP16) == pytest.approx(177e12, rel=0.01)
        assert 64 * config.peak_flops(DType.INT8) == pytest.approx(354e12, rel=0.01)

    def test_int8_macs_double_fp16(self):
        config = DpeConfig()
        assert config.macs_per_cycle(DType.INT8) == 2 * config.macs_per_cycle(DType.FP16)

    def test_full_tiles_full_utilization(self):
        assert tile_utilization(GemmShape(256, 2048, 256), DpeConfig(), DType.FP16) == 1.0

    def test_partial_tiles_waste_lanes(self):
        util = tile_utilization(GemmShape(16, 2048, 16), DpeConfig(), DType.FP16)
        assert util == pytest.approx(0.25)



class TestSimd:
    def test_chipwide_rate_matches_table2(self):
        config = mtia2i_simd_config()
        assert 64 * config.elements_per_s(DType.FP16) == pytest.approx(5.5e12, rel=0.01)

    def test_elementwise_time(self):
        config = mtia2i_simd_config()
        t = elementwise_time(86_400_000, config, DType.FP16)
        assert t == pytest.approx(86_400_000 / (64 * 1.35e9), rel=0.01)

    def test_lut_gather_piecewise_scales_with_table(self):
        config = mtia2i_simd_config()
        small = lut_gather_time(10_000, 4 * 1024, config, DType.FP16)
        large = lut_gather_time(10_000, 4 * 1024 * 1024, config, DType.FP16)
        assert large > small * 10

    def test_lut_approximation_accuracy(self):
        x = np.linspace(-4, 4, 1000)
        approx = lut_approximation("sigmoid", x)
        exact = 1 / (1 + np.exp(-x))
        assert np.max(np.abs(approx - exact)) < 1e-3

    def test_lut_all_functions_finite(self):
        x = np.linspace(-6, 6, 100)
        for fn in ("exp", "sigmoid", "tanh", "gelu", "rsqrt", "log", "reciprocal"):
            assert np.all(np.isfinite(lut_approximation(fn, x)))

    def test_lut_unknown_function(self):
        with pytest.raises(ValueError):
            lut_approximation("sinc", np.zeros(3))


class TestIssue:
    def test_advanced_instructions_cut_gemm_issue(self):
        """Section 3.3: multi-context + auto-increment fix the issue
        bottleneck."""
        chip = mtia2i_spec()
        shape = GemmShape(256, 2048, 256)
        fast = gemm_issue(shape, chip.issue, DType.FP16, use_advanced_instructions=True)
        slow = gemm_issue(shape, chip.issue, DType.FP16, use_advanced_instructions=False)
        assert slow.instructions > 8 * fast.instructions

    def test_mtia1_issues_slower(self):
        shape = GemmShape(256, 2048, 256)
        new = gemm_issue(shape, mtia2i_spec().issue, DType.FP16)
        old = gemm_issue(shape, mtia1_spec().issue, DType.FP16)
        assert old.issue_time_s > new.issue_time_s

    def test_tbe_indexed_dma_helps(self):
        """Indexed DMA_IN removes per-row address computation."""
        new = tbe_issue(10_000, mtia2i_spec().issue)
        old = tbe_issue(10_000, mtia1_spec().issue)
        assert old.instructions > 4 * new.instructions

    def test_tbe_wide_accumulate_helps(self):
        """128-row accumulation (vs 32) cuts SIMD instructions 4x."""
        issue = mtia2i_spec().issue
        wide = tbe_issue(12_800, issue, use_advanced_instructions=True)
        narrow = tbe_issue(12_800, issue, use_advanced_instructions=False)
        assert narrow.instructions > wide.instructions

    def test_vector_config_lanes(self):
        config = RiscvVectorConfig()
        assert config.elements_per_s(DType.FP16) == 32 * 1.35e9
        assert config.elements_per_s(DType.FP32) == 16 * 1.35e9


class TestReduction:
    def test_rowwise_minmax(self):
        m = np.array([[1.0, -5.0, 3.0], [0.0, 2.0, 2.0]])
        lo, hi = rowwise_minmax(m)
        np.testing.assert_array_equal(lo, [-5.0, 0.0])
        np.testing.assert_array_equal(hi, [3.0, 2.0])

    def test_rowwise_minmax_rejects_1d(self):
        with pytest.raises(ValueError):
            rowwise_minmax(np.zeros(5))


class TestMlu:
    def test_transpose_slower_than_reshape(self):
        config = MluConfig()
        assert transpose_time(1 << 20, config) > reshape_time(1 << 20, config)


class TestCommandProcessor:
    def test_pipeline_law(self):
        stages = [PipelineStage("a", 1.0), PipelineStage("b", 3.0), PipelineStage("c", 1.0)]
        # fill (5) + 9 more tiles at the 3.0 bottleneck.
        assert pipeline_time(stages, 10) == pytest.approx(5 + 9 * 3)

    def test_pipeline_empty(self):
        assert pipeline_time([], 10) == 0.0
        assert pipeline_time([PipelineStage("a", 1.0)], 0) == 0.0

    def test_simulation_matches_law_with_big_buffers(self):
        stages = [PipelineStage("a", 1.0), PipelineStage("b", 3.0), PipelineStage("c", 1.0)]
        assert simulate_pipeline(stages, 10, cb_slots=64) == pytest.approx(
            pipeline_time(stages, 10)
        )

    def test_small_buffers_serialize(self):
        """Undersized CBs let a fast producer stall — makespan grows."""
        stages = [PipelineStage("slow", 3.0), PipelineStage("fast", 1.0),
                  PipelineStage("slow2", 3.0)]
        tight = simulate_pipeline(stages, 20, cb_slots=1)
        roomy = simulate_pipeline(stages, 20, cb_slots=16)
        assert tight >= roomy


@given(
    times=st.lists(st.floats(min_value=0.1, max_value=5.0), min_size=1, max_size=5),
    tiles=st.integers(min_value=1, max_value=30),
    slots=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=60, deadline=None)
def test_pipeline_simulation_bounds(times, tiles, slots):
    """Property: the finite-buffer makespan is at least the infinite-buffer
    pipeline law and at most fully serial execution."""
    stages = [PipelineStage(f"s{i}", t) for i, t in enumerate(times)]
    sim = simulate_pipeline(stages, tiles, cb_slots=slots)
    law = pipeline_time(stages, tiles)
    serial = tiles * sum(times)
    assert sim >= law - 1e-9
    assert sim <= serial + 1e-9


class TestEagerMode:
    def test_mtia2i_launch_under_1us(self):
        chip = mtia2i_spec()
        assert chip.eager.job_launch_s < 1e-6
        assert chip.eager.job_replace_s < 0.5e-6

    def test_launch_reduction_about_80_percent(self):
        reduction = launch_reduction(mtia2i_spec().eager, mtia1_spec().eager)
        assert 0.75 <= reduction <= 0.85

    def test_timeline_broadcast_uses_replace(self):
        chip = mtia2i_spec()
        timeline = eager_launch_timeline([1e-5] * 10, chip.eager)
        expected = chip.eager.job_launch_s + 9 * chip.eager.job_replace_s
        assert timeline.launch_overhead_s == pytest.approx(expected)

    def test_timeline_without_broadcast_pays_full_launch(self):
        chip = mtia1_spec()
        timeline = eager_launch_timeline([1e-5] * 10, chip.eager)
        assert timeline.launch_overhead_s == pytest.approx(10 * chip.eager.job_launch_s)

    def test_eager_viability(self):
        chip2i, chip1 = mtia2i_spec(), mtia1_spec()
        # For 10 us median ops, MTIA 2i keeps overhead under 10%; MTIA 1
        # does not.
        assert eager_viable(chip2i, 10e-6)
        assert not eager_viable(chip1, 10e-6)

    def test_empty_timeline(self):
        timeline = eager_launch_timeline([], mtia2i_spec().eager)
        assert timeline.total_time_s == 0.0
