"""Tests for dynamic INT8 quantization numerics and analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import mtia2i_spec
from repro.quant import (
    ACCUMULATOR_DTYPE,
    INT32_ACC_MAX,
    accumulate_int8,
    dequantize_accumulator,
    fc_quantization_report,
    fp16_matmul_error,
    plan_model_quantization,
    quantization_error,
    quantize_activations,
    quantize_per_group,
    quantize_per_tensor,
    quantize_rowwise,
    quantize_weights_static,
    quantized_matmul,
)
from repro.tensors import GemmShape


def dequantize(q):
    """A quantized tensor back in floating point."""
    return q.values.astype(np.float32) * q.scales


def _skewed_activations(rows=128, cols=256, seed=0):
    """Rows with wildly different dynamic ranges — the case that separates
    per-tensor from row-wise quantization."""
    rng = np.random.default_rng(seed)
    scales = np.exp(rng.normal(0, 1.5, size=(rows, 1)))
    return rng.normal(0, 1, size=(rows, cols)) * scales


class TestQuantizeNumerics:
    def test_rowwise_roundtrip_error_small(self):
        x = _skewed_activations()
        q = quantize_rowwise(x)
        rel = np.abs(dequantize(q) - x) / (np.abs(x).max(axis=1, keepdims=True))
        assert np.max(rel) < 1 / 127

    def test_per_tensor_worse_on_skewed_rows(self):
        x = _skewed_activations()
        rowwise = np.linalg.norm(dequantize(quantize_rowwise(x)) - x)
        tensor = np.linalg.norm(dequantize(quantize_per_tensor(x)) - x)
        assert rowwise < tensor

    def test_group_quantization_between(self):
        """Per-N-batch-item lands between per-tensor and row-wise."""
        x = _skewed_activations(rows=256)
        err_row = np.linalg.norm(dequantize(quantize_rowwise(x)) - x)
        err_group = np.linalg.norm(dequantize(quantize_per_group(x, 32)) - x)
        err_tensor = np.linalg.norm(dequantize(quantize_per_tensor(x)) - x)
        assert err_row <= err_group <= err_tensor

    def test_values_in_int8_range(self):
        q = quantize_rowwise(_skewed_activations())
        assert q.values.dtype == np.int8
        assert q.values.min() >= -127 and q.values.max() <= 127

    def test_weight_static_per_channel(self):
        w = _skewed_activations(32, 64).T  # skew across output channels
        q = quantize_weights_static(w)
        assert q.scales.shape == (1, 32)

    def test_matmul_error_ordering_matches_paper(self):
        """Section 4.4: row-wise activations + static weights ~ FP16
        quality; per-tensor is measurably worse."""
        x = _skewed_activations()
        rng = np.random.default_rng(3)
        w = rng.normal(0, 0.05, size=(256, 64))
        err_rowwise = quantization_error(x, w, "rowwise")
        err_tensor = quantization_error(x, w, "tensor")
        assert err_rowwise < err_tensor
        assert err_rowwise < 0.02  # small enough for quality parity

    def test_fp16_error_smaller_but_same_magnitude_class(self):
        x = _skewed_activations()
        rng = np.random.default_rng(3)
        w = rng.normal(0, 0.05, size=(256, 64))
        assert fp16_matmul_error(x, w) < quantization_error(x, w, "rowwise")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            quantized_matmul(np.ones((2, 2)), quantize_weights_static(np.ones((2, 2))), "colwise")

    def test_non_matrix_rejected(self):
        with pytest.raises(ValueError):
            quantize_rowwise(np.ones(5))


@given(
    rows=st.integers(min_value=1, max_value=32),
    cols=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=1000),
)
@settings(max_examples=50, deadline=None)
def test_rowwise_quantization_bounded_error_property(rows, cols, seed):
    """Property: row-wise symmetric INT8 keeps each element within one
    quantization step of the original."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 1, size=(rows, cols)) * np.exp(rng.normal(0, 1, size=(rows, 1)))
    q = quantize_rowwise(x.astype(np.float32))
    steps = np.abs(dequantize(q) - x.astype(np.float32)) / np.maximum(q.scales, 1e-12)
    assert np.max(steps) <= 0.5 + 1e-3


class TestWideAccumulation:
    """The explicit-accumulator refactor: INT8 x INT8 accumulates in a
    wide dtype and asserts the 32-bit hardware range loudly."""

    def test_accumulator_dtype_and_exactness(self):
        rng = np.random.default_rng(0)
        x = rng.integers(-127, 128, size=(8, 32)).astype(np.int8)
        w = rng.integers(-127, 128, size=(32, 4)).astype(np.int8)
        acc = accumulate_int8(x, w)
        assert acc.dtype == ACCUMULATOR_DTYPE
        assert np.array_equal(acc, x.astype(np.int64) @ w.astype(np.int64))

    def test_overflow_raises_loudly(self):
        """Worst-case operands one element past the 32-bit range must
        raise, not wrap — the silent-corruption mode the assertion
        exists to exclude."""
        k = INT32_ACC_MAX // (127 * 127) + 1
        x = np.full((1, k), 127, dtype=np.int8)
        w = np.full((k, 1), 127, dtype=np.int8)
        with pytest.raises(OverflowError):
            accumulate_int8(x, w)

    def test_worst_case_inside_range_accumulates(self):
        k = INT32_ACC_MAX // (127 * 127) - 1
        x = np.full((1, k), 127, dtype=np.int8)
        w = np.full((k, 1), -127, dtype=np.int8)
        acc = accumulate_int8(x, w)
        assert acc[0, 0] == -k * 127 * 127

    def test_quantized_matmul_decomposition_consistent(self):
        """quantized_matmul is exactly quantize -> accumulate ->
        dequantize; the refactor changed structure, not numerics."""
        rng = np.random.default_rng(1)
        x = _skewed_activations(16, 32, seed=2)
        w = rng.normal(0, 1, size=(32, 8))
        qw = quantize_weights_static(w)
        direct = quantized_matmul(x, qw)
        qx = quantize_activations(x)
        manual = dequantize_accumulator(
            accumulate_int8(qx.values, qw.values), qx.scales, qw.scales
        )
        assert np.array_equal(direct, manual)

    def test_activation_mode_dispatch(self):
        x = _skewed_activations(8, 16)
        assert np.array_equal(
            quantize_activations(x, "tensor").values, quantize_per_tensor(x).values
        )
        assert np.array_equal(
            quantize_activations(x, "group:4").values,
            quantize_per_group(x, 4).values,
        )
        with pytest.raises(ValueError):
            quantize_activations(x, "per-banana")


class TestQuantAnalysis:
    def test_large_fc_net_speedup_about_1_6(self):
        """Section 4.4: ~1.6x for 2048 x 2048 x 2048."""
        report = fc_quantization_report(GemmShape(2048, 2048, 2048), mtia2i_spec())
        assert report.raw_speedup == pytest.approx(2.0, rel=0.05)
        assert 1.45 <= report.net_speedup <= 1.75

    def test_small_fc_not_worthwhile(self):
        report = fc_quantization_report(GemmShape(256, 512, 512), mtia2i_spec())
        assert not report.worthwhile

    def test_overhead_erodes_speedup_more_for_small_shapes(self):
        small = fc_quantization_report(GemmShape(512, 1024, 1024), mtia2i_spec())
        large = fc_quantization_report(GemmShape(4096, 4096, 4096), mtia2i_spec())
        assert large.net_speedup > small.net_speedup

    def test_model_plan_selects_only_large_layers(self):
        """Only the largest FCs amortize the overhead (section 4.4)."""
        from repro.graph import OpGraph, fc
        from repro.tensors import model_input, weight

        g = OpGraph()
        x = model_input(2048, 2048)
        g.add(fc(x, weight(2048, 2048), name="big"))
        small_in = model_input(2048, 64)
        g.add(fc(small_in, weight(64, 64), name="small"))
        plan = plan_model_quantization(g, mtia2i_spec())
        assert "big" in plan.quantized_layers
        assert "small" not in plan.quantized_layers

    def test_quality_sensitive_layers_excluded(self):
        from repro.graph import OpGraph, fc
        from repro.tensors import model_input, weight

        g = OpGraph()
        x = model_input(2048, 2048)
        g.add(fc(x, weight(2048, 2048), name="first_layer"))
        plan = plan_model_quantization(
            g, mtia2i_spec(), quality_sensitive=["first_layer"]
        )
        assert plan.quantized_layers == []

    def test_end_to_end_gain_marginal_for_mixed_model(self):
        """Section 4.4: e2e improvements are often a few percent."""
        import dataclasses

        from repro.models.dlrm import build_dlrm, small_dlrm

        g = build_dlrm(dataclasses.replace(small_dlrm(), batch=512))
        plan = plan_model_quantization(g, mtia2i_spec())
        assert 1.0 <= plan.end_to_end_speedup < 1.5
