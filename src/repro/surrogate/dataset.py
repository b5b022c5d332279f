"""Seeded trace collection: exact-model evaluations -> training tables.

Every training row here is an *exact-model* evaluation — the same
``estimate_gemm`` / ``perf.executor`` / cluster-simulation paths the
rest of the repository treats as ground truth — captured with its
analytic features.  Collection is seeded and deterministic: the same
(chip, seed, sample count) produces the same table byte for byte.

The GEMM collector routes every evaluation through a
:class:`~repro.fastsim.memo.KernelLatencyMemo` with a
:class:`DatasetRecorder` attached, so the memo's dedup *is* the
dataset's dedup — a (shape, dtype, frequency, variant) point is exact-
evaluated once, recorded once, and every later hit is served from
cache.  Any tuning run can therefore double as dataset collection by
passing a recorder-equipped memo (the transparency property — the
recorder never perturbs memo results — is tested in
``tests/test_surrogate_properties.py``).
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.specs import ChipSpec
from repro.fastsim.memo import KernelLatencyMemo
from repro.graph.graph import OpGraph
from repro.graph.ops import OpType
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


class DatasetRecorder:
    """Memo hook turning every exact kernel evaluation into a row.

    Attach via ``KernelLatencyMemo(chip, recorder=recorder)``: the memo
    calls the recorder once per cache *miss* (i.e. once per distinct
    exact evaluation) with the raw descriptors and the measured time.
    The recorder only appends to its own lists — it cannot change what
    the memo returns.
    """

    def __init__(self) -> None:
        self.shapes: List[Tuple[int, int, int]] = []
        self.variants: List[GemmVariant] = []
        self.dtypes: List[DType] = []
        self.times_s: List[float] = []

    def __call__(
        self, shape: GemmShape, variant: GemmVariant, dtype: DType,
        time_s: float,
    ) -> None:
        self.shapes.append((shape.m, shape.k, shape.n))
        self.variants.append(variant)
        self.dtypes.append(dtype)
        self.times_s.append(time_s)

    def __len__(self) -> int:
        return len(self.times_s)

    def to_dataset(
        self,
        space: GemmFeatureSpace,
        include_energy: bool = False,
    ) -> SurrogateDataset:
        """Build the training table for rows matching the space's dtype.

        With ``include_energy`` each row's energy is derived from one
        extra exact evaluation: ``time * chip_power_w(chip, f, util)``
        with utilization the exact model's compute fraction.
        """
        keep = [i for i, d in enumerate(self.dtypes) if d is space.dtype]
        shapes = [self.shapes[i] for i in keep]
        variants = [self.variants[i] for i in keep]
        times = np.array([self.times_s[i] for i in keep], dtype=np.float64)
        X = space.pair_matrix(shapes, variants)
        energy = None
        if include_energy:
            energy = np.empty(len(keep), dtype=np.float64)
            for row, ((m, k, n), variant, t) in enumerate(
                zip(shapes, variants, times)
            ):
                est = estimate_gemm(
                    GemmShape(m, k, n), space.chip, space.dtype, variant
                )
                util = min(1.0, est.compute_s / est.engine_time_s)
                energy[row] = t * chip_power_w(
                    space.chip, space.chip.frequency_hz, util
                )
        return SurrogateDataset(
            X=X, latency_s=times, energy_j=energy,
            feature_names=GEMM_FEATURE_NAMES,
        )


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

    Every evaluation goes through a memo+recorder pair, so duplicate
    sampled points collapse to one exact evaluation and one row — the
    memo's dedup is the dataset's dedup.
    """
    space = GemmFeatureSpace(chip, DType.FP16)
    recorder = DatasetRecorder()
    collection_memo = KernelLatencyMemo(chip, recorder=recorder)
    shapes, variant_picks = sample_gemm_points(n_samples, seed=seed)
    for (m, k, n), variant in zip(shapes, variant_picks):
        collection_memo.measure(GemmShape(m, k, n), variant, DType.FP16)
    return recorder.to_dataset(space, include_energy=include_energy), space


def collect_executor_dataset(
    build_graph: Callable[[int], OpGraph],
    chip: ChipSpec,
    batches: Sequence[int] = (256, 512, 1024),
) -> SurrogateDataset:
    """Exact ``perf.executor`` traces: per-FC-op latency rows (FP16,
    default GEMM variant).

    Runs the full executor (memory hierarchy, NoC, host link) on the
    model graph at each batch size and emits one row per FC op with the
    executor's measured op time as the target.  Op-level times include
    memory-path costs beyond the kernel engine model, so this table is
    a *different regression task* from the kernel dataset — it is the
    executor-path trace source the subsystem contract names, usable for
    op-latency surrogates over a model zoo.
    """
    from repro.perf.executor import Executor

    space = GemmFeatureSpace(chip, DType.FP16)
    used = GemmVariant()
    shapes: List[Tuple[int, int, int]] = []
    rows: List[GemmVariant] = []
    times: List[float] = []
    for batch in batches:
        graph = build_graph(batch)
        report = Executor(chip).run(graph, batch)
        profiles = {p.op_name: p for p in report.op_profiles}
        for op in graph.ops:
            if op.op_type is not OpType.FC or op.name not in profiles:
                continue
            gemm = op.attrs["gemm"]
            shapes.append((gemm.m, gemm.k, gemm.n))
            rows.append(used)
            times.append(profiles[op.name].time_s)
    return SurrogateDataset(
        X=space.pair_matrix(shapes, rows),
        latency_s=np.asarray(times, dtype=np.float64),
        energy_j=None,
        feature_names=GEMM_FEATURE_NAMES,
    )


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

    This is the whole-graph regression task ROADMAP item 3 left open —
    the per-FC-op table from :func:`collect_executor_dataset` prices
    single ops; this one prices the *latency a zoo model sees on a
    candidate chip*, which is what the codesign DSE ranks candidates
    by before exact-evaluating survivors.
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
    "DatasetRecorder",
    "SurrogateDataset",
    "collect_executor_dataset",
    "collect_executor_graph_dataset",
    "collect_gemm_dataset",
    "sample_gemm_points",
    "train_executor_surrogate",
    "train_gemm_surrogate",
]
