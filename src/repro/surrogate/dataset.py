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

The capacity/power collectors run the exact seeded cluster searches on
a probe grid; they are orders of magnitude more expensive per row, so
their grids are small and their surrogates are used only to pick probe
*starting points* inside verified searches (see
:mod:`repro.surrogate.verify`).
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
    capacity_feature_row,
    executor_feature_row,
    power_feature_row,
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
    variants: Optional[Sequence[GemmVariant]] = None,
    log2_dim_range: Tuple[float, float] = (5.0, 13.5),
) -> Tuple[List[Tuple[int, int, int]], List[GemmVariant]]:
    """Seeded log-uniform (shape, variant) sample of the tuning space."""
    if n_samples <= 0:
        raise ValueError("need a positive sample count")
    variants = list(variants) if variants is not None else default_variants()
    rng = np.random.default_rng(seed)
    lo, hi = log2_dim_range
    dims = np.exp2(rng.uniform(lo, hi, size=(n_samples, 3)))
    dims = np.maximum(1, np.round(dims)).astype(np.int64)
    picks = rng.integers(0, len(variants), size=n_samples)
    shapes = [tuple(int(d) for d in row) for row in dims]
    return shapes, [variants[int(i)] for i in picks]


def collect_gemm_dataset(
    chip: ChipSpec,
    n_samples: int = 6000,
    dtype: DType = DType.FP16,
    seed: int = 0,
    variants: Optional[Sequence[GemmVariant]] = None,
    include_energy: bool = True,
) -> Tuple[SurrogateDataset, GemmFeatureSpace]:
    """Exact kernel-model traces over a seeded sample of tuning points.

    Every evaluation goes through a memo+recorder pair, so duplicate
    sampled points collapse to one exact evaluation and one row — the
    memo's dedup is the dataset's dedup.
    """
    space = GemmFeatureSpace(chip, dtype)
    recorder = DatasetRecorder()
    collection_memo = KernelLatencyMemo(chip, recorder=recorder)
    shapes, variant_picks = sample_gemm_points(
        n_samples, seed=seed, variants=variants
    )
    for (m, k, n), variant in zip(shapes, variant_picks):
        collection_memo.measure(GemmShape(m, k, n), variant, dtype)
    return recorder.to_dataset(space, include_energy=include_energy), space


def collect_executor_dataset(
    build_graph: Callable[[int], OpGraph],
    chip: ChipSpec,
    batches: Sequence[int] = (256, 512, 1024),
    dtype: DType = DType.FP16,
    variant: Optional[GemmVariant] = None,
) -> SurrogateDataset:
    """Exact ``perf.executor`` traces: per-FC-op latency rows.

    Runs the full executor (memory hierarchy, NoC, host link) on the
    model graph at each batch size and emits one row per FC op with the
    executor's measured op time as the target.  Op-level times include
    memory-path costs beyond the kernel engine model, so this table is
    a *different regression task* from the kernel dataset — it is the
    executor-path trace source the subsystem contract names, usable for
    op-latency surrogates over a model zoo.
    """
    from repro.perf.executor import Executor

    space = GemmFeatureSpace(chip, dtype)
    used = variant or GemmVariant()
    shapes: List[Tuple[int, int, int]] = []
    rows: List[GemmVariant] = []
    times: List[float] = []
    for batch in batches:
        graph = build_graph(batch)
        report = Executor(chip, gemm_variant=variant).run(graph, batch)
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
    dtype: DType = DType.FP16,
) -> SurrogateDataset:
    """Exact whole-graph executor latencies across a chip sample.

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
            X.append(executor_feature_row(chip, summary, dtype))
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
    dtype: DType = DType.FP16,
    seed: int = 0,
    holdout_fraction: float = 0.15,
    n_rounds: int = 16,
) -> Tuple[SurrogateModel, TrainReport]:
    """Collect whole-graph traces over a chip sample and fit the
    executor-latency surrogate (log-space target, seeded, bit-for-bit
    reproducible like every other surrogate here)."""
    dataset = collect_executor_graph_dataset(chips, models, dtype=dtype)
    model = SurrogateModel(n_rounds=n_rounds)
    report = model.fit(
        dataset.X, dataset.latency_s, seed=seed,
        holdout_fraction=holdout_fraction, target="executor_latency",
    )
    return model, report


def train_gemm_surrogate(
    chip: ChipSpec,
    n_samples: int = 6000,
    dtype: DType = DType.FP16,
    seed: int = 0,
    include_energy: bool = True,
    holdout_fraction: float = 0.2,
    n_rounds: int = 24,
) -> Tuple[GemmSurrogate, Dict[str, TrainReport]]:
    """Collect traces and fit the kernel latency (+ energy) surrogate."""
    dataset, space = collect_gemm_dataset(
        chip, n_samples=n_samples, dtype=dtype, seed=seed,
        include_energy=include_energy,
    )
    latency = SurrogateModel(n_rounds=n_rounds)
    reports = {
        "latency": latency.fit(
            dataset.X, dataset.latency_s, seed=seed,
            holdout_fraction=holdout_fraction, target="latency",
        )
    }
    energy = None
    if include_energy and dataset.energy_j is not None:
        energy = SurrogateModel(n_rounds=n_rounds)
        reports["energy"] = energy.fit(
            dataset.X, dataset.energy_j, seed=seed,
            holdout_fraction=holdout_fraction, target="energy",
        )
    return GemmSurrogate(space, latency, energy), reports


def train_capacity_surrogate(
    service,
    qps_points: Sequence[float],
    policies: Sequence[str] = ("round_robin", "po2"),
    p99_slo_s: float = 0.100,
    duration_s: float = 40.0,
    max_replicas: int = 96,
    seed: int = 0,
) -> Tuple[SurrogateModel, TrainReport]:
    """Fit a replicas-needed predictor from exact capacity searches.

    Each row costs a full seeded cluster search, so the grid is small;
    the resulting model seeds :func:`repro.cluster.capacity
    .replicas_needed`'s verified walk with a starting replica count —
    it never decides feasibility itself.
    """
    from repro.cluster.capacity import replicas_needed

    X: List[np.ndarray] = []
    y: List[float] = []
    for policy in policies:
        for qps in qps_points:
            point = replicas_needed(
                policy, qps, service, p99_slo_s=p99_slo_s,
                duration_s=duration_s, max_replicas=max_replicas, seed=seed,
            )
            if not point.feasible:
                continue
            X.append(capacity_feature_row(
                policy, qps, service.mean_service_s, p99_slo_s,
                service.jitter_sigma,
            ))
            y.append(float(point.replicas))
    if len(y) < 2:
        raise ValueError("capacity probe grid produced too few feasible rows")
    model = SurrogateModel(n_rounds=8)
    report = model.fit(
        np.vstack(X), np.asarray(y), seed=seed, holdout_fraction=0.0,
        target="capacity_replicas",
    )
    return model, report


def train_power_surrogate(
    service,
    probe_budgets_w: Sequence[float],
    replicas: int = 24,
    platform_power_w: float = 800.0,
    chip: Optional[ChipSpec] = None,
    p99_slo_s: float = 0.100,
    duration_s: float = 20.0,
    seed: int = 0,
) -> Tuple[SurrogateModel, TrainReport]:
    """Fit a max-QPS-fraction predictor from exact power-sweep probes.

    Targets are the feasible fraction of the fluid capacity ceiling at
    each probe budget (linear-space targets: fractions live in [0, 1]).
    The model seeds the guided descent in
    :func:`repro.power.cluster_link.power_limited_capacity_sweep`.
    """
    from repro.arch.mtia import mtia2i_spec
    from repro.cluster.capacity import max_qps_at_slo
    from repro.power.cluster_link import service_model_at_budget

    chip = chip or mtia2i_spec()
    X: List[np.ndarray] = []
    y: List[float] = []
    for budget in probe_budgets_w:
        per_chip = max(0.0, (budget - platform_power_w) / replicas)
        scaled, _ = service_model_at_budget(service, per_chip, chip=chip)
        max_qps, _ = max_qps_at_slo(
            scaled, replicas, p99_slo_s, duration_s, seed
        )
        ceiling = replicas * scaled.capacity_per_replica()
        if max_qps <= 0 or ceiling <= 0:
            continue  # nothing feasible at this probe: no learnable row
        X.append(power_feature_row(
            scaled.mean_service_s, replicas, p99_slo_s, duration_s,
            scaled.jitter_sigma,
        ))
        y.append(max_qps / ceiling)
    if len(y) < 2:
        raise ValueError("power probe grid produced too few rows")
    model = SurrogateModel(log_targets=False, n_rounds=8)
    report = model.fit(
        np.vstack(X), np.asarray(y), seed=seed, holdout_fraction=0.0,
        target="power_fraction",
    )
    return model, report


__all__ = [
    "DatasetRecorder",
    "SurrogateDataset",
    "collect_executor_dataset",
    "collect_executor_graph_dataset",
    "collect_gemm_dataset",
    "sample_gemm_points",
    "train_capacity_surrogate",
    "train_executor_surrogate",
    "train_gemm_surrogate",
    "train_power_surrogate",
]
