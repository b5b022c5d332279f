"""Deterministic analytic feature extraction for the surrogates.

A surrogate is only as cheap as its features, and only as accurate as
the physics they encode.  The feature sets here are *roofline sketches*
of the exact models — log-scale shape terms, tile fill fractions, and
unadjusted compute/issue/local-memory time proxies — deliberately
leaving out the variant-dependent corrections the exact models apply
(pipeline efficiency, multi-context amortization, double-buffer
overlap).  Those corrections are what the regressor stack *learns* from
exact-model traces; the features just put it within a short, smooth
hop of the answer.

The GEMM feature space is built to be evaluated two ways with the same
element-wise formulas:

* :meth:`GemmFeatureSpace.pair_matrix` — one row per (shape, variant)
  pair, used for dataset construction and generic prediction;
* :meth:`GemmFeatureSpace.grid_blocks` — a (shapes x variants) sweep
  factorized into a shape block, a variant block, and the (small)
  cross-term grid.  Shape- and variant-only columns are computed once
  per *axis value* instead of once per point, which is what lets the
  linear part of the surrogate run in tens of nanoseconds per sweep
  point (see :class:`repro.surrogate.model.GemmSurrogate`).

Everything is a pure function of (ChipSpec, dtype, shapes, variants):
no randomness, no global state, float32 outputs with float64 shape-axis
precomputation.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.arch.specs import ChipSpec
from repro.kernels.gemm import GemmVariant, Stationarity, _dpe_config_for
from repro.tensors.dtypes import DType

# Column order of the 31-feature GEMM matrix.  Shape-only columns first,
# then variant-only, then cross terms — the factorized grid path depends
# on this layout.
GEMM_FEATURE_NAMES: Tuple[str, ...] = (
    # shape-only
    "log2_m", "log2_k", "log2_n",
    "m_fill", "k_fill", "n_fill",
    "log2_intensity",
    "log2_compute_base", "log2_issue_base", "compute_ge_issue",
    "log2_act_bytes", "log2_weight_bytes",
    # variant-only
    "st_input", "st_weight", "st_output",
    "log2_block_m", "log2_block_n", "log2_block_k",
    "broadcast", "prefetch", "double_buffer", "advanced",
    # cross
    "act_reads", "weight_reads",
    "log2_lm_base", "log2_max_base", "lm_slack",
    "is_lm_bound", "dbuf_x_lm", "dbuf_x_nonlm", "adv_x_issue",
)

GEMM_SHAPE_SLICE = slice(0, 12)
GEMM_VARIANT_SLICE = slice(12, 22)
GEMM_CROSS_SLICE = slice(22, 31)

# Streamed-operand re-read caps by stationarity, mirroring the blocking
# scheme in ``repro.kernels.gemm.estimate_gemm``: (activation cap over
# n-blocks, weight cap over m-blocks).
_READ_CAPS = {
    Stationarity.WEIGHT: (4.0, 1.0),
    Stationarity.INPUT: (1.0, 4.0),
    Stationarity.OUTPUT: (2.0, 2.0),
}

_F32 = np.float32


@dataclasses.dataclass(frozen=True)
class ShapeBlock:
    """Shape-axis features plus the raw arrays the cross terms need."""

    block: np.ndarray  # (S, 12) float32
    act_bytes: np.ndarray
    weight_bytes: np.ndarray
    out_bytes: np.ndarray
    m: np.ndarray
    n: np.ndarray
    log2_max2: np.ndarray  # max(compute, issue) base, log2 seconds
    one_minus_ci: np.ndarray  # 1 - compute_ge_issue


@dataclasses.dataclass(frozen=True)
class VariantBlock:
    """Variant-axis features plus the raw arrays the cross terms need."""

    block: np.ndarray  # (V, 10) float32
    inv_block_m: np.ndarray
    inv_block_n: np.ndarray
    act_cap: np.ndarray
    weight_cap: np.ndarray
    double_buffer: np.ndarray
    advanced: np.ndarray


class GemmFeatureSpace:
    """GEMM (shape, variant) -> feature rows for one (chip, dtype)."""

    def __init__(self, chip: ChipSpec, dtype: DType = DType.FP16) -> None:
        self.chip = chip
        self.dtype = dtype
        config = _dpe_config_for(chip)
        self.grid_side = max(1, int(round(math.sqrt(chip.num_pes))))
        self.tile_rows = config.tile_rows
        self.tile_cols = config.tile_cols
        self.k_elements = max(1, config.tile_k_bytes // dtype.bytes)
        self.peak_pe_flops = config.peak_flops(dtype)
        self.issue_rate = chip.issue.instructions_per_s
        self.in_bytes = dtype.bytes
        self.out_bytes_per_el = DType.FP32.bytes
        # Chip-aggregate local-memory drain rate: the exact model divides
        # bytes by num_pes then by per-PE bandwidth.
        self.lm_rate = chip.num_pes * chip.local_memory.bandwidth_bytes_per_s
        # Variant catalogs are fixed across a sweep; encoding one is a
        # Python loop over ~1000 dataclasses and would dominate the
        # factorized fast path if paid per call.  Keep the last few
        # encoded catalogs, keyed on sequence identity.
        self._variant_cache: List[Tuple[int, Sequence[GemmVariant], VariantBlock]] = []

    def __getstate__(self):
        state = dict(self.__dict__)
        state["_variant_cache"] = []  # caches don't travel
        return state

    # -- axis blocks ---------------------------------------------------

    def shape_block(self, m, k, n) -> ShapeBlock:
        """Features for a vector of (m, k, n) shapes (float64 in)."""
        m = np.asarray(m, dtype=np.float64)
        k = np.asarray(k, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        g = float(self.grid_side)
        pm = np.ceil(m / g)
        pn = np.ceil(n / g)
        tr, tc, ke = self.tile_rows, self.tile_cols, self.k_elements
        m_tiles = np.ceil(pm / tr)
        k_tiles = np.ceil(k / ke)
        n_tiles = np.ceil(pn / tc)
        m_fill = pm / (m_tiles * tr)
        k_fill = k / (k_tiles * ke)
        n_fill = pn / (n_tiles * tc)
        per_pe_flops = 2.0 * pm * k * pn
        compute_base = per_pe_flops / (
            self.peak_pe_flops * m_fill * k_fill * n_fill
        )
        issue_base = (m_tiles * k_tiles * n_tiles) / self.issue_rate
        act_bytes = m * k * self.in_bytes
        weight_bytes = k * n * self.in_bytes
        out_bytes = m * n * self.out_bytes_per_el
        flops = 2.0 * m * k * n
        intensity = flops / (act_bytes + weight_bytes + out_bytes)
        ci = (compute_base >= issue_base).astype(np.float64)
        block = np.stack(
            [
                np.log2(m), np.log2(k), np.log2(n),
                m_fill, k_fill, n_fill,
                np.log2(intensity),
                np.log2(compute_base), np.log2(issue_base), ci,
                np.log2(act_bytes), np.log2(weight_bytes),
            ],
            axis=-1,
        ).astype(_F32)
        return ShapeBlock(
            block=block,
            act_bytes=act_bytes.astype(_F32),
            weight_bytes=weight_bytes.astype(_F32),
            out_bytes=out_bytes.astype(_F32),
            m=m.astype(_F32),
            n=n.astype(_F32),
            log2_max2=np.log2(np.maximum(compute_base, issue_base)).astype(_F32),
            one_minus_ci=(1.0 - ci).astype(_F32),
        )

    def variant_block(self, variants: Sequence[GemmVariant]) -> VariantBlock:
        """Features for a list of kernel variants (catalog-cached).

        The cache is keyed on the *sequence object*: pass the same list
        across calls (as the tuners do) to pay encoding once.  Mutating
        a cached list in place is not supported.
        """
        for key, ref, block in self._variant_cache:
            if key == id(variants) and ref is variants:
                return block
        block = self._encode_variants(variants)
        self._variant_cache.append((id(variants), variants, block))
        if len(self._variant_cache) > 4:
            self._variant_cache.pop(0)
        return block

    def _encode_variants(self, variants: Sequence[GemmVariant]) -> VariantBlock:
        rows = np.empty((len(variants), 10), dtype=np.float64)
        caps = np.empty((len(variants), 2), dtype=np.float64)
        for i, v in enumerate(variants):
            act_cap, weight_cap = _READ_CAPS[v.stationarity]
            rows[i] = (
                1.0 if v.stationarity == Stationarity.INPUT else 0.0,
                1.0 if v.stationarity == Stationarity.WEIGHT else 0.0,
                1.0 if v.stationarity == Stationarity.OUTPUT else 0.0,
                math.log2(v.block_m), math.log2(v.block_n),
                math.log2(v.block_k),
                float(v.broadcast_weights), float(v.prefetch),
                float(v.double_buffer), float(v.use_advanced_instructions),
            )
            caps[i] = (act_cap, weight_cap)
        return VariantBlock(
            block=rows.astype(_F32),
            inv_block_m=np.array(
                [1.0 / v.block_m for v in variants], dtype=_F32
            ),
            inv_block_n=np.array(
                [1.0 / v.block_n for v in variants], dtype=_F32
            ),
            act_cap=caps[:, 0].astype(_F32),
            weight_cap=caps[:, 1].astype(_F32),
            double_buffer=rows[:, 8].astype(_F32),
            advanced=rows[:, 9].astype(_F32),
        )

    # -- cross terms ---------------------------------------------------

    def cross_columns(
        self, shapes: ShapeBlock, variants: VariantBlock, grid: bool
    ) -> List[np.ndarray]:
        """The 9 cross-term columns, as a list of float32 arrays.

        With ``grid=True`` shape arrays broadcast as ``(S, 1)`` against
        variant arrays ``(V,)`` producing ``(S, V)`` columns; otherwise
        the two blocks must be row-aligned and columns are ``(N,)``.
        The element-wise formulas are identical either way.
        """
        ax = (lambda a: a[:, None]) if grid else (lambda a: a)
        m_blocks = np.ceil(ax(shapes.m) * variants.inv_block_m)
        n_blocks = np.ceil(ax(shapes.n) * variants.inv_block_n)
        act_reads = np.minimum(n_blocks, variants.act_cap)
        weight_reads = np.minimum(m_blocks, variants.weight_cap)
        lm_bytes = (
            ax(shapes.act_bytes) * act_reads
            + ax(shapes.weight_bytes) * weight_reads
            + ax(shapes.out_bytes)
        )
        log2_lm = np.log2(lm_bytes) - _F32(math.log2(self.lm_rate))
        lm_slack = log2_lm - ax(shapes.log2_max2)
        is_lm = (lm_slack >= 0.0).astype(_F32)
        nonlm = _F32(1.0) - is_lm
        log2_max = np.maximum(log2_lm, ax(shapes.log2_max2))
        return [
            act_reads,
            weight_reads,
            log2_lm,
            log2_max,
            lm_slack,
            is_lm,
            variants.double_buffer * is_lm,
            variants.double_buffer * nonlm,
            variants.advanced * (nonlm * ax(shapes.one_minus_ci)),
        ]

    # -- assembled matrices --------------------------------------------

    def pair_matrix(
        self,
        shapes: Sequence[Tuple[int, int, int]],
        variants: Sequence[GemmVariant],
    ) -> np.ndarray:
        """One feature row per aligned (shape, variant) pair."""
        if len(shapes) != len(variants):
            raise ValueError("shapes and variants must be row-aligned")
        mkn = np.asarray(shapes, dtype=np.float64).reshape(len(shapes), 3)
        sb = self.shape_block(mkn[:, 0], mkn[:, 1], mkn[:, 2])
        vb = self.variant_block(variants)
        cross = self.cross_columns(sb, vb, grid=False)
        return np.hstack(
            [sb.block, vb.block, np.stack(cross, axis=-1)]
        ).astype(_F32)

    def grid_blocks(
        self,
        shapes: Sequence[Tuple[int, int, int]],
        variants: Sequence[GemmVariant],
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Factorized (shape block, variant block, cross grid) for a
        shapes x variants sweep; the cross grid is ``(S, V, 9)``."""
        mkn = np.asarray(shapes, dtype=np.float64).reshape(len(shapes), 3)
        sb = self.shape_block(mkn[:, 0], mkn[:, 1], mkn[:, 2])
        vb = self.variant_block(variants)
        cross = np.stack(
            self.cross_columns(sb, vb, grid=True), axis=-1
        )
        return sb.block, vb.block, cross


# -- executor (whole-graph) feature rows -------------------------------

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


def executor_feature_row(
    chip: ChipSpec, summary: GraphSummary, dtype: DType = DType.FP16
) -> np.ndarray:
    """Features for a whole-graph latency query (one row, float64).

    Like the GEMM features, these are unadjusted roofline sketches — the
    sum of per-FC compute/issue/local-memory base times from
    :class:`GemmFeatureSpace`, graph-level DRAM/SRAM/NoC streaming
    bases, and the chip axes the codesign space sweeps.  Pipeline
    overlap, scheduling and TBE behaviour are left for the regressor to
    learn from exact :class:`~repro.perf.executor.Executor` traces.
    """
    space = GemmFeatureSpace(chip, dtype)
    if summary.fc_mkn:
        mkn = np.asarray(summary.fc_mkn, dtype=np.float64)
        sb = space.shape_block(mkn[:, 0], mkn[:, 1], mkn[:, 2])
        compute = np.exp2(sb.block[:, 7].astype(np.float64))
        issue = np.exp2(sb.block[:, 8].astype(np.float64))
        lm_bytes = (
            sb.act_bytes.astype(np.float64)
            + sb.weight_bytes.astype(np.float64)
            + sb.out_bytes.astype(np.float64)
        )
        fc_compute_s = float(compute.sum())
        fc_issue_s = float(issue.sum())
        fc_lm_s = float(lm_bytes.sum()) / space.lm_rate
        max_fc_s = float(np.maximum(compute, issue).max())
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
    "GEMM_CROSS_SLICE",
    "GEMM_FEATURE_NAMES",
    "GEMM_SHAPE_SLICE",
    "GEMM_VARIANT_SLICE",
    "GemmFeatureSpace",
    "GraphSummary",
    "ShapeBlock",
    "VariantBlock",
    "executor_feature_row",
    "summarize_graph",
]
