"""Trace collection: exact executor evaluations -> training tables.

Every training row here is an *exact-model* evaluation — the
``perf.executor`` path the rest of the repository treats as ground
truth — captured with its analytic features.  Collection is
deterministic: the same chips and models produce the same table byte
for byte.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.arch.specs import ChipSpec
from repro.graph.graph import OpGraph
from repro.surrogate.features import (
    EXECUTOR_FEATURE_NAMES,
    GraphSummary,
    executor_feature_row,
)
from repro.surrogate.model import SurrogateModel, TrainReport
from repro.tensors.dtypes import DType


@dataclasses.dataclass(frozen=True)
class SurrogateDataset:
    """A (features -> targets) table from exact-model evaluations."""

    X: np.ndarray  # (N, D) float32
    latency_s: np.ndarray  # (N,) float64
    feature_names: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.latency_s)


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


__all__ = [
    "SurrogateDataset",
    "collect_executor_graph_dataset",
    "train_executor_surrogate",
]
