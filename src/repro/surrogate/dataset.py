"""Seeded trace collection: exact-model evaluations -> training tables.

Every training row here is an *exact-model* evaluation — the same
``estimate_gemm`` / ``perf.executor`` paths the rest of the repository
treats as ground truth — captured with its analytic features.
Collection is seeded and deterministic: the same (chip, seed, sample
count) produces the same table byte for byte.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.specs import ChipSpec
from repro.graph.graph import OpGraph
from repro.kernels.gemm import GemmVariant, default_variants, estimate_gemm
from repro.power.activity import chip_power_w
from repro.surrogate.features import (
    EXECUTOR_FEATURE_NAMES,
    GEMM_FEATURE_NAMES,
    GemmFeatureSpace,
    GraphSummary,
    executor_feature_row,
)
from repro.surrogate.model import GemmSurrogate, SurrogateModel, TrainReport
from repro.tensors.dtypes import DType
from repro.tensors.tensor import GemmShape


@dataclasses.dataclass(frozen=True)
class SurrogateDataset:
    """A (features -> targets) table from exact-model evaluations."""

    X: np.ndarray  # (N, D) float32
    latency_s: np.ndarray  # (N,) float64
    energy_j: Optional[np.ndarray]  # (N,) float64, when collected
    feature_names: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.latency_s)


def sample_gemm_points(
    n_samples: int,
    seed: int = 0,
) -> Tuple[List[Tuple[int, int, int]], List[GemmVariant]]:
    """Seeded log-uniform (shape, variant) sample of the tuning space:
    each GEMM dimension is 2**u for u uniform in [5, 13.5], each variant
    one of the default catalog."""
    if n_samples <= 0:
        raise ValueError("need a positive sample count")
    variants = default_variants()
    rng = np.random.default_rng(seed)
    dims = np.exp2(rng.uniform(5.0, 13.5, size=(n_samples, 3)))
    dims = np.maximum(1, np.round(dims)).astype(np.int64)
    picks = rng.integers(0, len(variants), size=n_samples)
    shapes = [tuple(int(d) for d in row) for row in dims]
    return shapes, [variants[int(i)] for i in picks]


def collect_gemm_dataset(
    chip: ChipSpec,
    n_samples: int = 6000,
    seed: int = 0,
    include_energy: bool = True,
) -> Tuple[SurrogateDataset, GemmFeatureSpace]:
    """Exact FP16 kernel-model traces over a seeded sample of tuning
    points.

    Duplicate sampled points collapse to one row, kept at the first
    occurrence in sample order.  Each row costs one ``estimate_gemm``
    call, which gives its time and, with ``include_energy``, its energy
    ``time * chip_power_w(chip, f, util)`` with utilization the exact
    model's compute fraction.
    """
    space = GemmFeatureSpace(chip, DType.FP16)
    shapes, variant_picks = sample_gemm_points(n_samples, seed=seed)
    points = list(dict.fromkeys(zip(shapes, variant_picks)))
    times = np.empty(len(points), dtype=np.float64)
    energy = np.empty(len(points), dtype=np.float64) if include_energy else None
    for row, ((m, k, n), variant) in enumerate(points):
        est = estimate_gemm(GemmShape(m, k, n), chip, DType.FP16, variant)
        times[row] = est.engine_time_s
        if energy is not None:
            util = min(1.0, est.compute_s / est.engine_time_s)
            energy[row] = est.engine_time_s * chip_power_w(
                chip, chip.frequency_hz, util
            )
    dataset = SurrogateDataset(
        X=space.pair_matrix(
            [shape for shape, _ in points], [variant for _, variant in points]
        ),
        latency_s=times, energy_j=energy, feature_names=GEMM_FEATURE_NAMES,
    )
    return dataset, space


def collect_executor_graph_dataset(
    chips: Sequence[ChipSpec],
    models: Sequence[Tuple["GraphSummary", Callable[[int], OpGraph], int]],
) -> SurrogateDataset:
    """Exact whole-graph executor latencies across a chip sample (FP16
    features).

    One row per (chip, model): features from
    :func:`~repro.surrogate.features.executor_feature_row` on the
    cached graph summary, target the full
    :class:`~repro.perf.executor.Executor` run's ``latency_s``.
    ``models`` pairs each summary with its graph builder and batch so
    the graph walk happens once per model, not once per chip.

    It prices the *latency a zoo model sees on a candidate chip*, which
    is what the codesign DSE ranks candidates by before exact-evaluating
    survivors.
    """
    from repro.perf.executor import Executor

    X: List[np.ndarray] = []
    times: List[float] = []
    for chip in chips:
        executor = Executor(chip)
        for summary, build_graph, batch in models:
            report = executor.run(build_graph(batch), batch)
            X.append(executor_feature_row(chip, summary, DType.FP16))
            times.append(report.latency_s)
    return SurrogateDataset(
        X=np.vstack(X).astype(np.float32),
        latency_s=np.asarray(times, dtype=np.float64),
        energy_j=None,
        feature_names=EXECUTOR_FEATURE_NAMES,
    )


def train_executor_surrogate(
    chips: Sequence[ChipSpec],
    models: Sequence[Tuple["GraphSummary", Callable[[int], OpGraph], int]],
    seed: int = 0,
) -> Tuple[SurrogateModel, TrainReport]:
    """Collect FP16 whole-graph traces over a chip sample and fit the
    executor-latency surrogate (16 rounds, 15% holdout, log-space
    target, seeded, bit-for-bit reproducible like every other surrogate
    here)."""
    dataset = collect_executor_graph_dataset(chips, models)
    model = SurrogateModel(n_rounds=16)
    report = model.fit(
        dataset.X, dataset.latency_s, seed=seed,
        holdout_fraction=0.15, target="executor_latency",
    )
    return model, report


def train_gemm_surrogate(
    chip: ChipSpec,
    n_samples: int = 6000,
    seed: int = 0,
    include_energy: bool = True,
) -> Tuple[GemmSurrogate, Dict[str, TrainReport]]:
    """Collect FP16 traces and fit the kernel latency (+ energy)
    surrogate (24 rounds, 20% holdout)."""
    dataset, space = collect_gemm_dataset(
        chip, n_samples=n_samples, seed=seed, include_energy=include_energy,
    )
    latency = SurrogateModel(n_rounds=24)
    reports = {
        "latency": latency.fit(
            dataset.X, dataset.latency_s, seed=seed,
            holdout_fraction=0.2, target="latency",
        )
    }
    energy = None
    if include_energy and dataset.energy_j is not None:
        energy = SurrogateModel(n_rounds=24)
        reports["energy"] = energy.fit(
            dataset.X, dataset.energy_j, seed=seed,
            holdout_fraction=0.2, target="energy",
        )
    return GemmSurrogate(space, latency, energy), reports


__all__ = [
    "SurrogateDataset",
    "collect_executor_graph_dataset",
    "collect_gemm_dataset",
    "sample_gemm_points",
    "train_executor_surrogate",
    "train_gemm_surrogate",
]
