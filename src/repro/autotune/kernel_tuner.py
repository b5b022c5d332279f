"""FC kernel tuning: exhaustive search, performance database, and
approximate-nearest-neighbour reuse (paper section 4.1).

"Initially, we ran exhaustive tests to cover all FC shapes in a model
with different data placements, which proved to be too time-consuming.
Consequently, we created a performance database and used approximate
nearest neighbor search to pick FC kernel variants, which reduced FC
tuning time by up to 1000x while achieving kernel performance within 5%
of exhaustive FC tuning."

The tuner below implements both paths against the same kernel cost
model, so the speedup and the quality gap are measured quantities.
The cost model is a closed form that prices all 1,152 catalog variants
of a shape in tens of milliseconds, so the exact exhaustive pass is the
gold standard and no learned predictor stands in front of it.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.arch.specs import ChipSpec
from repro.kernels.gemm import GemmVariant, default_variants, estimate_gemm
from repro.tensors.dtypes import DType
from repro.tensors.tensor import GemmShape


@dataclasses.dataclass(frozen=True)
class TuningResult:
    """The chosen kernel variant for one FC shape."""

    shape: GemmShape
    variant: GemmVariant
    kernel_time_s: float
    evaluations: int  # cost-model invocations spent


def measure_variant(
    shape: GemmShape,
    variant: GemmVariant,
    chip: ChipSpec,
) -> float:
    """Kernel time for one (shape, variant) point.

    This is the tuner's 'run the kernel and time it' primitive; in this
    library it evaluates the kernel cost model.
    """
    return estimate_gemm(shape, chip, DType.FP16, variant).engine_time_s


def exhaustive_tune(
    shape: GemmShape,
    chip: ChipSpec,
    variants: Optional[List[GemmVariant]] = None,
) -> TuningResult:
    """Measure every variant at FP16 and keep the best (the first on a
    tie) — the slow gold standard.  ``evaluations`` counts cost-model
    invocations, the tuner's work metric."""
    variants = variants if variants is not None else default_variants()
    if not variants:
        raise ValueError("need at least one variant")
    best_variant = None
    best_time = math.inf
    for variant in variants:
        t = measure_variant(shape, variant, chip)
        if t < best_time:
            best_time = t
            best_variant = variant
    return TuningResult(
        shape=shape, variant=best_variant, kernel_time_s=best_time,
        evaluations=len(variants),
    )


def _shape_features(shape: GemmShape) -> np.ndarray:
    # Log-space features: kernel behaviour is scale-relative.
    return np.log2(np.array([shape.m, shape.k, shape.n], dtype=np.float64))


class PerformanceDatabase:
    """Tuned shapes indexed for approximate-nearest-neighbour lookup.

    The index is a coarse grid hash over log-space shape features —
    lookups inspect only the query's cell and its neighbours, giving
    O(1)-ish probes versus scanning the variant space.
    """

    def __init__(self, cell_size: float = 1.0) -> None:
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size = cell_size
        self._entries: List[TuningResult] = []
        self._grid: Dict[Tuple[int, ...], List[int]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def _cell(self, features: np.ndarray) -> Tuple[int, ...]:
        return tuple(int(math.floor(f / self.cell_size)) for f in features)

    def add(self, result: TuningResult) -> None:
        """Record a tuned shape."""
        index = len(self._entries)
        self._entries.append(result)
        cell = self._cell(_shape_features(result.shape))
        self._grid.setdefault(cell, []).append(index)

    def nearest(self, shape: GemmShape) -> Optional[TuningResult]:
        """Approximate nearest tuned shape (probe the cell neighbourhood;
        fall back to a full scan only if the neighbourhood is empty)."""
        if not self._entries:
            return None
        features = _shape_features(shape)
        base = self._cell(features)
        candidates: List[int] = []
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    cell = (base[0] + dx, base[1] + dy, base[2] + dz)
                    candidates.extend(self._grid.get(cell, []))
        if not candidates:
            candidates = list(range(len(self._entries)))
        best = min(
            candidates,
            key=lambda i: float(
                np.sum((_shape_features(self._entries[i].shape) - features) ** 2)
            ),
        )
        return self._entries[best]


def ann_tune(
    shape: GemmShape,
    chip: ChipSpec,
    database: PerformanceDatabase,
) -> TuningResult:
    """Pick an FP16 variant by ANN lookup: one neighbour probe plus a
    single validation measurement — versus hundreds for exhaustive
    search."""
    neighbour = database.nearest(shape)
    if neighbour is None:
        return exhaustive_tune(shape, chip)
    t = measure_variant(shape, neighbour.variant, chip)
    return TuningResult(shape=shape, variant=neighbour.variant, kernel_time_s=t, evaluations=1)


@dataclasses.dataclass(frozen=True)
class TunerComparison:
    """Exhaustive-versus-ANN outcome over a set of shapes."""

    shapes: int
    exhaustive_evaluations: int
    ann_evaluations: int
    mean_quality_gap: float  # mean (ann_time / exhaustive_time - 1)
    max_quality_gap: float

    @property
    def evaluation_speedup(self) -> float:
        """The paper's 'up to 1000x' tuning-time reduction."""
        return self.exhaustive_evaluations / self.ann_evaluations if self.ann_evaluations else 0.0


def compare_tuners(
    training_shapes: List[GemmShape],
    query_shapes: List[GemmShape],
    chip: ChipSpec,
) -> TunerComparison:
    """Build an FP16 database from ``training_shapes``, answer
    ``query_shapes`` via ANN, and compare against exhaustive tuning of
    the queries."""
    database = PerformanceDatabase()
    variants = default_variants()
    for shape in training_shapes:
        database.add(exhaustive_tune(shape, chip, variants=variants))
    exhaustive_evals = 0
    ann_evals = 0
    gaps: List[float] = []
    for shape in query_shapes:
        gold = exhaustive_tune(shape, chip, variants=variants)
        approx = ann_tune(shape, chip, database)
        exhaustive_evals += gold.evaluations
        ann_evals += approx.evaluations
        if gold.kernel_time_s > 0:
            gaps.append(approx.kernel_time_s / gold.kernel_time_s - 1.0)
    return TunerComparison(
        shapes=len(query_shapes),
        exhaustive_evaluations=exhaustive_evals,
        ann_evaluations=ann_evals,
        mean_quality_gap=float(np.mean(gaps)) if gaps else 0.0,
        max_quality_gap=float(np.max(gaps)) if gaps else 0.0,
    )
