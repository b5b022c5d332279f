"""Autotuning framework (paper section 4.1): placement, kernels, batch,
coalescing, sharding, and the orchestrator."""

from repro.autotune.batch import tune_batch_size
from repro.autotune.coalescing import tune_coalescing
from repro.autotune.kernel_tuner import (
    PerformanceDatabase,
    ann_tune,
    compare_tuners,
    exhaustive_tune,
    measure_variant,
    surrogate_tune,
)
from repro.autotune.placement import tune_placement
from repro.autotune.sharding import plan_sharding, required_shards
from repro.autotune.tuner import autotune_model

__all__ = [
    "PerformanceDatabase",
    "ann_tune",
    "autotune_model",
    "compare_tuners",
    "exhaustive_tune",
    "measure_variant",
    "plan_sharding",
    "required_shards",
    "surrogate_tune",
    "tune_batch_size",
    "tune_coalescing",
    "tune_placement",
]
