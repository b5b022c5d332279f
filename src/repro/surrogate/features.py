"""Deterministic analytic features for the executor-latency surrogate.

A surrogate is only as cheap as its features, and only as accurate as
the physics they encode.  The features here are *roofline sketches* of
the exact executor: log-scale graph terms, per-FC compute/issue/local-
memory base times, and graph-level DRAM/SRAM/NoC streaming bases —
deliberately leaving out the corrections the executor applies
(pipeline overlap, scheduling, TBE behaviour).  Those corrections are
what the regressor stack *learns* from exact traces; the features just
put it within a short, smooth hop of the answer.

Everything is a pure function of (ChipSpec, dtype, graph summary): no
randomness, no global state.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Tuple

import numpy as np

from repro.arch.specs import ChipSpec
from repro.kernels.gemm import _dpe_config_for
from repro.tensors.dtypes import DType

EXECUTOR_FEATURE_NAMES: Tuple[str, ...] = (
    # graph-shape terms (chip-independent)
    "log2_num_ops", "log2_num_fc", "log2_batch",
    "log2_fc_flops", "log2_other_flops",
    "log2_dense_bytes", "log2_embedding_bytes", "log2_io_bytes",
    # chip-adjusted roofline bases (log2 seconds)
    "log2_fc_compute_s", "log2_fc_issue_s", "log2_fc_lm_s",
    "log2_max_fc_op_s",
    "log2_dense_dram_s", "log2_io_sram_s", "log2_io_noc_s",
    "log2_other_vector_s",
    # chip axes and capacity pressure
    "log2_num_pes", "log2_gemm_to_simd",
    "log2_dense_over_sram", "weights_fit_sram",
)


@dataclasses.dataclass(frozen=True)
class GraphSummary:
    """Chip-independent footprint of one model graph at one batch.

    The codesign DSE scores each (candidate chip, zoo model) pair; the
    graph walk is the expensive chip-*independent* half, so it is
    summarized once per model and reused across every candidate.
    """

    name: str
    batch: int
    num_ops: int
    num_fc: int
    fc_mkn: Tuple[Tuple[int, int, int], ...]
    fc_flops: float
    other_flops: float
    dense_bytes: float  # non-embedding weight bytes
    embedding_bytes: float
    io_bytes: float  # sum of per-op input+output bytes


def summarize_graph(graph, batch: int) -> GraphSummary:
    """Walk an :class:`~repro.graph.graph.OpGraph` once into the
    chip-independent features the executor surrogate needs."""
    fc_mkn = []
    fc_flops = 0.0
    total_flops = 0.0
    io_bytes = 0.0
    for op in graph.ops:
        total_flops += op.flops()
        io_bytes += op.input_bytes() + op.output_bytes()
        gemm = op.attr("gemm")
        if gemm is not None:
            fc_mkn.append((gemm.m, gemm.k, gemm.n))
            fc_flops += 2.0 * gemm.m * gemm.k * gemm.n
    embedding = float(graph.embedding_bytes())
    return GraphSummary(
        name=graph.name,
        batch=batch,
        num_ops=len(graph.ops),
        num_fc=len(fc_mkn),
        fc_mkn=tuple(fc_mkn),
        fc_flops=fc_flops,
        other_flops=max(0.0, total_flops - fc_flops),
        dense_bytes=float(graph.weight_bytes()) - embedding,
        embedding_bytes=embedding,
        io_bytes=io_bytes,
    )


def _safe_log2(value: float) -> float:
    return math.log2(max(float(value), 1e-30))


def _fc_bases(
    chip: ChipSpec, dtype: DType, mkn: np.ndarray
) -> Tuple[float, float, float, float]:
    """(summed compute s, summed issue s, local-memory s, max per-FC
    s) for the FC shapes ``mkn`` (one (m, k, n) row each)."""
    m, k, n = mkn[:, 0], mkn[:, 1], mkn[:, 2]
    config = _dpe_config_for(chip)
    g = float(max(1, int(round(math.sqrt(chip.num_pes)))))
    tr, tc = config.tile_rows, config.tile_cols
    ke = max(1, config.tile_k_bytes // dtype.bytes)
    pm = np.ceil(m / g)
    pn = np.ceil(n / g)
    m_tiles = np.ceil(pm / tr)
    k_tiles = np.ceil(k / ke)
    n_tiles = np.ceil(pn / tc)
    m_fill = pm / (m_tiles * tr)
    k_fill = k / (k_tiles * ke)
    n_fill = pn / (n_tiles * tc)
    compute_base = 2.0 * pm * k * pn / (
        config.peak_flops(dtype) * m_fill * k_fill * n_fill
    )
    issue_base = (m_tiles * k_tiles * n_tiles) / chip.issue.instructions_per_s
    compute = np.exp2(_f32(np.log2(compute_base)))
    issue = np.exp2(_f32(np.log2(issue_base)))
    lm_bytes = (
        _f32(m * k * dtype.bytes)
        + _f32(k * n * dtype.bytes)
        + _f32(m * n * DType.FP32.bytes)
    )
    lm_rate = chip.num_pes * chip.local_memory.bandwidth_bytes_per_s
    return (
        float(compute.sum()),
        float(issue.sum()),
        float(lm_bytes.sum()) / lm_rate,
        float(np.maximum(compute, issue).max()),
    )


def _f32(values: np.ndarray) -> np.ndarray:
    """``values`` rounded to float32 and widened back to float64."""
    return values.astype(np.float32).astype(np.float64)


def executor_feature_row(
    chip: ChipSpec, summary: GraphSummary, dtype: DType = DType.FP16
) -> np.ndarray:
    """Features for a whole-graph latency query (one row, float64).

    The FC terms sum each FC's unadjusted compute, issue and
    local-memory base times over its per-PE tile grid; the rest are
    graph-level DRAM/SRAM/NoC streaming bases and the chip axes the
    codesign space sweeps.  Pipeline overlap, scheduling and TBE
    behaviour are left for the regressor to learn from exact
    :class:`~repro.perf.executor.Executor` traces.

    The log2 compute and issue bases and the three byte counts pass
    through float32 before they are summed: the trained surrogates and
    the pinned codesign front depend on those exact values.
    """
    if summary.fc_mkn:
        fc_compute_s, fc_issue_s, fc_lm_s, max_fc_s = _fc_bases(
            chip, dtype, np.asarray(summary.fc_mkn, dtype=np.float64)
        )
    else:
        fc_compute_s = fc_issue_s = fc_lm_s = max_fc_s = 0.0
    dram_bw = chip.dram.bandwidth_bytes_per_s
    sram = chip.sram
    return np.array(
        [
            _safe_log2(summary.num_ops),
            _safe_log2(summary.num_fc),
            _safe_log2(summary.batch),
            _safe_log2(summary.fc_flops),
            _safe_log2(summary.other_flops),
            _safe_log2(summary.dense_bytes),
            _safe_log2(summary.embedding_bytes),
            _safe_log2(summary.io_bytes),
            _safe_log2(fc_compute_s),
            _safe_log2(fc_issue_s),
            _safe_log2(fc_lm_s),
            _safe_log2(max_fc_s),
            _safe_log2(summary.dense_bytes / dram_bw),
            _safe_log2(summary.io_bytes / sram.bandwidth_bytes_per_s),
            _safe_log2(summary.io_bytes / chip.noc_bandwidth_bytes_per_s),
            _safe_log2(summary.other_flops / chip.vector.peak(DType.FP32)),
            _safe_log2(chip.num_pes),
            _safe_log2(chip.gemm_to_simd_ratio()),
            _safe_log2(summary.dense_bytes / sram.capacity_bytes),
            1.0 if summary.dense_bytes <= sram.capacity_bytes else 0.0,
        ],
        dtype=np.float64,
    )


__all__ = [
    "EXECUTOR_FEATURE_NAMES",
    "GraphSummary",
    "executor_feature_row",
    "summarize_graph",
]
