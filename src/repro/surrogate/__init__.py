"""Learned executor-latency surrogate with exact-model verification
(NeuroScalar / AutoDNNchip, PAPERS.md).

The co-design search prices thousands of (candidate chip, zoo model)
pairs; an exact executor run per pair is its throttle.  This package
implements the fast/accurate split those papers argue for:

- :mod:`repro.surrogate.features` — deterministic analytic features
  (roofline sketches) from ``ChipSpec`` + a chip-independent graph
  summary;
- :mod:`repro.surrogate.dataset` — trace collection off the exact
  executor;
- :mod:`repro.surrogate.model` — a pure-numpy, bit-for-bit-reproducible
  ridge + gradient-boosted-stumps stack with measured holdout error
  bands.

Its one integration is the codesign DSE's surrogate rung, which only
ranks candidates: every point on the returned front is exact-evaluated.
Kernel tuning, capacity and power questions have no surrogate path:
their exact searches cost less than training a surrogate would.
"""

from repro.surrogate.model import RidgeRegressor, SurrogateModel

__all__ = [
    "RidgeRegressor",
    "SurrogateModel",
]
