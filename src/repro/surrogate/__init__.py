"""Learned performance surrogates with exact-model verification
(ROADMAP item 3; NeuroScalar / AutoDNNchip, PAPERS.md).

The co-design loop is throttled by the cost of exact performance
evaluation: the kernel cost model is ~10 us per point.  This package
implements the fast/accurate split those papers argue for:

- :mod:`repro.surrogate.features` — deterministic analytic features
  (roofline sketches) from ``ChipSpec`` + shape/variant descriptors;
- :mod:`repro.surrogate.dataset` — seeded trace collection off the
  exact models;
- :mod:`repro.surrogate.model` — a pure-numpy, bit-for-bit-reproducible
  ridge + gradient-boosted-stumps stack with measured holdout error
  bands, plus the factorized GEMM sweep path (>=100x cheaper per
  evaluation than the exact kernel model);
- :mod:`repro.surrogate.verify` — the soundness layer: surrogates rank
  candidates, the exact model re-evaluates the shortlist, and every
  returned answer is exact-evaluated.

Integrations: ``autotune.kernel_tuner.surrogate_tune`` (verified
kernel tuning) and the codesign DSE's executor-latency rung.  Capacity
and power questions have no surrogate path: their exact scans cost
fewer cluster simulations than training a guide would.  CLI:
``python -m repro surrogate [--smoke]``.

This package never imports ``repro.autotune`` at module level — the
tuner imports *us*.
"""

from repro.surrogate.dataset import collect_gemm_dataset, train_gemm_surrogate
from repro.surrogate.features import GemmFeatureSpace
from repro.surrogate.model import RidgeRegressor, SurrogateModel
from repro.surrogate.verify import verified_argmin

__all__ = [
    "GemmFeatureSpace",
    "RidgeRegressor",
    "SurrogateModel",
    "collect_gemm_dataset",
    "train_gemm_surrogate",
    "verified_argmin",
]
