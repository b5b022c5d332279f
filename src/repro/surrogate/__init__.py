"""Learned performance surrogates with exact-model verification
(ROADMAP item 3; NeuroScalar / AutoDNNchip, PAPERS.md).

The co-design loop is throttled by the cost of exact performance
evaluation: the kernel cost model is ~10 us per point, a capacity probe
is a full seeded cluster simulation.  This package implements the
fast/accurate split those papers argue for:

- :mod:`repro.surrogate.features` — deterministic analytic features
  (roofline sketches) from ``ChipSpec`` + shape/variant descriptors;
- :mod:`repro.surrogate.dataset` — seeded trace collection off the
  exact models, with ``fastsim.memo`` recorder hooks so memoized exact
  evaluations double as training rows;
- :mod:`repro.surrogate.model` — a pure-numpy, bit-for-bit-reproducible
  ridge + gradient-boosted-stumps stack with measured holdout error
  bands, plus the factorized GEMM sweep path (>=100x cheaper per
  evaluation than the exact kernel model);
- :mod:`repro.surrogate.verify` — the soundness layer: surrogates rank
  or pick starting points, the exact model re-evaluates and certifies,
  and every returned answer is exact-evaluated.

Integrations (each takes a fitted ``surrogate=``; ``surrogate=None``,
the default, is the exact path): ``autotune.kernel_tuner.surrogate_tune``
/ ``autotune.tuner``, ``cluster.capacity.replicas_needed`` and
``capacity_sweep``, and
``power.cluster_link.power_limited_capacity_sweep``.  CLI:
``python -m repro surrogate [--smoke|--train|--sweep]``.

This package never imports ``repro.autotune`` at module level — the
tuner imports *us*, and the cluster/power integrations import their
surrogate helpers lazily inside their ``surrogate is not None`` branches.
"""

from repro.surrogate.dataset import (
    DatasetRecorder,
    collect_executor_dataset,
    collect_gemm_dataset,
    train_capacity_surrogate,
    train_gemm_surrogate,
    train_power_surrogate,
)
from repro.surrogate.features import GemmFeatureSpace
from repro.surrogate.model import RidgeRegressor, SurrogateModel
from repro.surrogate.verify import (
    verified_argmin,
    verified_max_feasible,
    verified_min_feasible,
)

__all__ = [
    "DatasetRecorder",
    "GemmFeatureSpace",
    "RidgeRegressor",
    "SurrogateModel",
    "collect_executor_dataset",
    "collect_gemm_dataset",
    "train_capacity_surrogate",
    "train_gemm_surrogate",
    "train_power_surrogate",
    "verified_argmin",
    "verified_max_feasible",
    "verified_min_feasible",
]
