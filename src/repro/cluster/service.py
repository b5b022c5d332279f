"""Per-replica service-time model, calibrated from the serving stack.

The cluster tier treats one replica as a single-server queue; what it
needs from the device level is *how long one routed request occupies a
replica*.  Rather than invent that number, it is derived from the same
:class:`~repro.serving.scheduler.ModelJobProfile` the device-level
simulator executes, in closed form from the job times
(:meth:`ServiceModel.from_profile`).

Service times carry a mean-preserving log-normal jitter (input-size and
cache variation), and requests served by a replica that does not hold
the request's embedding shard pay a ``cross_host_penalty`` — the remote
sparse lookup crossing the host network instead of the local PCIe
switch.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from repro.resilience.policies import require_finite
from repro.serving.scheduler import ModelJobProfile


@dataclasses.dataclass(frozen=True)
class ServiceModel:
    """How long one request occupies a replica."""

    mean_service_s: float
    jitter_sigma: float = 0.45  # log-normal shape of service-time noise
    cross_host_penalty: float = 1.35  # remote-shard fetch multiplier

    def __post_init__(self) -> None:
        require_finite("mean service time", self.mean_service_s)
        require_finite("jitter sigma", self.jitter_sigma)
        require_finite("cross-host penalty", self.cross_host_penalty)
        if self.mean_service_s <= 0:
            raise ValueError("mean service time must be positive")
        if self.jitter_sigma < 0:
            raise ValueError("jitter sigma must be non-negative")
        if self.cross_host_penalty < 1:
            raise ValueError("cross-host penalty must be at least 1")
        # ``sample`` runs once per routed request; precompute the
        # log-normal location parameter (same expression, same float).
        object.__setattr__(
            self,
            "_lognormal_mu",
            math.log(self.mean_service_s) - 0.5 * self.jitter_sigma**2,
        )

    def sample(self, rng: np.random.Generator, cross_host: bool = False) -> float:
        """Draw one service time (mean-preserving log-normal jitter)."""
        if self.jitter_sigma == 0:
            base = self.mean_service_s
        else:
            base = float(rng.lognormal(self._lognormal_mu, self.jitter_sigma))
        return base * (self.cross_host_penalty if cross_host else 1.0)

    def capacity_per_replica(self) -> float:
        """Sustainable requests/s of one replica at 100% occupancy."""
        return 1.0 / self.mean_service_s

    @classmethod
    def from_profile(
        cls,
        profile: ModelJobProfile,
        requests_per_batch: float = 4.0,
        **kwargs: float,
    ) -> "ServiceModel":
        """Closed-form calibration from the device job profile.

        One batch occupies the device for its remote jobs, merge job, and
        per-job dispatch overheads plus the merge resubmission round
        trip; coalescing amortizes that across ``requests_per_batch``
        requests.
        """
        if requests_per_batch <= 0:
            raise ValueError("requests per batch must be positive")
        batch_s = (
            profile.remote_jobs_per_batch
            * (profile.remote_time_s + profile.dispatch_overhead_s)
            + profile.merge_time_s
            + profile.dispatch_overhead_s
            + profile.merge_submission_delay_s
        )
        return cls(mean_service_s=batch_s / requests_per_batch, **kwargs)


def default_service_model() -> ServiceModel:
    """The ranking-model service model the CLI, example, and benchmark
    share: the same job profile the serving examples run, closed-form
    calibrated.  One request per batch (no coalescing credit) keeps
    request counts — and so simulation time — small at cluster scale."""
    profile = ModelJobProfile(
        remote_time_s=0.005,
        merge_time_s=0.009,
        remote_jobs_per_batch=2,
        dispatch_overhead_s=0.001,
        merge_submission_delay_s=0.0008,
    )
    return ServiceModel.from_profile(profile, requests_per_batch=1.0)
