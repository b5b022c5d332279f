"""Dynamic INT8 quantization numerics (paper sections 3.3 and 4.4).

MTIA 2i computes quantization parameters on the fly: the Reduction
Engine emits per-row min/max during the matmul, and the SIMD Engine
derives row-wise scales — channel-wise symmetric dynamic quantization.
This module implements the *actual arithmetic* with numpy so quality
comparisons against FP16 (the paper's criterion for adopting INT8) are
measured, not asserted.

Quantization granularities evaluated by the paper:
  * per-tensor — one scale for the whole activation tensor;
  * per-batch-item (row-wise, M as the batch dimension);
  * per-N-batch-item — one scale per group of N rows.
The paper's finding: row-wise activations + static weights match FP16.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.pe.reduction import rowwise_minmax

INT8_MAX = 127


@dataclasses.dataclass(frozen=True)
class QuantizedTensor:
    """INT8 values plus their (per-row or scalar) scales."""

    values: np.ndarray  # int8
    scales: np.ndarray  # float32; shape broadcastable against values


def _symmetric_scale(abs_max: np.ndarray) -> np.ndarray:
    abs_max = np.maximum(np.asarray(abs_max, dtype=np.float64), 1e-12)
    return (abs_max / INT8_MAX).astype(np.float32)


def quantize_per_tensor(x: np.ndarray) -> QuantizedTensor:
    """Symmetric per-tensor quantization."""
    x = np.asarray(x, dtype=np.float32)
    scale = _symmetric_scale(np.max(np.abs(x)) if x.size else 1.0)
    q = np.clip(np.round(x / scale), -INT8_MAX, INT8_MAX).astype(np.int8)
    return QuantizedTensor(values=q, scales=np.asarray(scale, dtype=np.float32))


def quantize_rowwise(x: np.ndarray) -> QuantizedTensor:
    """Symmetric row-wise dynamic quantization — the RE/SIMD hardware path.

    The per-row min/max comes from :func:`rowwise_minmax`, exactly the
    statistic the Reduction Engine produces during accumulation.
    """
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2:
        raise ValueError(f"row-wise quantization expects a matrix, got {x.shape}")
    row_min, row_max = rowwise_minmax(x)
    abs_max = np.maximum(np.abs(row_min), np.abs(row_max))
    scales = _symmetric_scale(abs_max)[:, None]
    q = np.clip(np.round(x / scales), -INT8_MAX, INT8_MAX).astype(np.int8)
    return QuantizedTensor(values=q, scales=scales.astype(np.float32))


def quantize_per_group(x: np.ndarray, group_rows: int) -> QuantizedTensor:
    """Per-N-batch-item quantization: one scale per ``group_rows`` rows."""
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2:
        raise ValueError("per-group quantization expects a matrix")
    if group_rows <= 0:
        raise ValueError("group size must be positive")
    scales = np.empty((x.shape[0], 1), dtype=np.float32)
    for start in range(0, x.shape[0], group_rows):
        block = x[start : start + group_rows]
        scale = _symmetric_scale(np.max(np.abs(block)) if block.size else 1.0)
        scales[start : start + group_rows] = scale
    q = np.clip(np.round(x / scales), -INT8_MAX, INT8_MAX).astype(np.int8)
    return QuantizedTensor(values=q, scales=scales)


def quantize_weights_static(w: np.ndarray) -> QuantizedTensor:
    """Static per-output-channel weight quantization (offline calibration).

    Weights are constant, so per-column scales are computed once at model
    publish time — the paper's companion to dynamic activations.
    """
    w = np.asarray(w, dtype=np.float32)
    if w.ndim != 2:
        raise ValueError("weight quantization expects a matrix")
    abs_max = np.max(np.abs(w), axis=0)
    scales = _symmetric_scale(abs_max)[None, :]
    q = np.clip(np.round(w / scales), -INT8_MAX, INT8_MAX).astype(np.int8)
    return QuantizedTensor(values=q, scales=scales)


# The DPE's accumulator is 32 bits wide; we accumulate in an explicitly
# wider dtype and assert the hardware range so an overflow (or an injected
# large-magnitude corruption) fails loudly instead of silently wrapping.
ACCUMULATOR_DTYPE = np.int64
INT32_ACC_MAX = 2**31 - 1


def quantize_activations(x: np.ndarray, activation_mode: str = "rowwise") -> QuantizedTensor:
    """Quantize activations at the requested granularity.

    ``activation_mode`` is ``"rowwise"``, ``"tensor"``, or ``"group:N"`` —
    the three granularities the paper evaluates (section 4.4).
    """
    if activation_mode == "rowwise":
        return quantize_rowwise(x)
    if activation_mode == "tensor":
        return quantize_per_tensor(np.asarray(x, dtype=np.float32))
    if activation_mode.startswith("group:"):
        return quantize_per_group(x, int(activation_mode.split(":", 1)[1]))
    raise ValueError(f"unknown activation mode {activation_mode!r}")


def accumulate_int8(x_values: np.ndarray, w_values: np.ndarray) -> np.ndarray:
    """INT8 x INT8 accumulation in an explicit wide dtype, range-checked.

    Returns the raw integer accumulator (``ACCUMULATOR_DTYPE``), exactly
    as the DPE produces it before dequantization.  Raises
    :class:`OverflowError` when any partial sum leaves the 32-bit
    hardware accumulator range — the loud-failure contract the SDC
    injection campaign relies on.
    """
    acc = x_values.astype(ACCUMULATOR_DTYPE) @ w_values.astype(ACCUMULATOR_DTYPE)
    if np.any(np.abs(acc) > INT32_ACC_MAX):
        raise OverflowError(
            "INT32 accumulator overflow (|acc| > 2^31-1); the hardware "
            "would wrap silently — reduce K or scales"
        )
    return acc


def dequantize_accumulator(
    acc: np.ndarray, x_scales: np.ndarray, w_scales: np.ndarray
) -> np.ndarray:
    """Scale a raw integer accumulator back to floating point."""
    row_scales = np.asarray(x_scales)
    if not row_scales.ndim:
        row_scales = row_scales.reshape(1)
    return acc.astype(np.float64) * np.asarray(row_scales, dtype=np.float64) * np.asarray(
        w_scales, dtype=np.float64
    )


def quantized_matmul(
    x: np.ndarray, weights: QuantizedTensor, activation_mode: str = "rowwise"
) -> np.ndarray:
    """INT8 x INT8 matmul with INT32 accumulation and FP dequantization.

    ``activation_mode`` selects the activation quantization granularity:
    ``"rowwise"``, ``"tensor"``, or ``"group:N"``.
    """
    qx = quantize_activations(x, activation_mode)
    acc = accumulate_int8(qx.values, weights.values)
    return dequantize_accumulator(acc, qx.scales, weights.scales)


def quantization_error(
    x: np.ndarray, w: np.ndarray, activation_mode: str = "rowwise"
) -> float:
    """Relative Frobenius error of the quantized matmul versus FP32."""
    reference = np.asarray(x, dtype=np.float64) @ np.asarray(w, dtype=np.float64)
    quantized = quantized_matmul(x, quantize_weights_static(w), activation_mode)
    denom = np.linalg.norm(reference)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(quantized - reference) / denom)


def fp16_matmul_error(x: np.ndarray, w: np.ndarray) -> float:
    """Relative error of the FP16 path (the baseline the paper compares
    INT8 quality against)."""
    reference = np.asarray(x, dtype=np.float64) @ np.asarray(w, dtype=np.float64)
    fp16 = (
        np.asarray(x, dtype=np.float16).astype(np.float32)
        @ np.asarray(w, dtype=np.float16).astype(np.float32)
    )
    denom = np.linalg.norm(reference)
    if denom == 0:
        return 0.0
    return float(np.linalg.norm(fp16.astype(np.float64) - reference) / denom)
