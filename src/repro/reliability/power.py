"""Rack power provisioning (paper section 5.3).

The lifecycle the paper describes: set the initial rack budget from
small-scale stress tests of *unoptimized* models, then — six months into
production — re-derive it from two measurements and take the higher:

1. an experiment driving every accelerator in a server at the P90 of the
   peak per-accelerator throughput the two largest models see in
   production;
2. the P90 power of fully-utilized production servers.

For MTIA 2i this cut the budget nearly 40%, helped by model optimization
(out-of-the-box models burned more power per query) and by fine-grained
allocation across 24 small chips smoothing load spikes.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from repro.arch.server import ServerSpec

PAPER_REDUCTION_FRACTION = 0.40


@dataclasses.dataclass(frozen=True)
class PowerSample:
    """Per-accelerator power draw observations (watts)."""

    values_w: np.ndarray

    def percentile(self, q: float) -> float:
        """A percentile of the observed draw."""
        return float(np.percentile(self.values_w, q))


def stress_test_budget(server: ServerSpec) -> float:
    """The initial (pre-production) rack budget per server.

    Stress tests run out-of-the-box models that burn 1.25x the power of
    optimized ones, and planners stack a 1.15x safety margin on top —
    both factors the paper cites for the over-provisioning.
    """
    accelerators = server.accelerators_per_server * server.chip.tdp_watts
    return (server.platform_power_watts + accelerators * 1.25) * 1.15


def sample_production_power(server: ServerSpec, seed: int = 0) -> PowerSample:
    """Synthetic per-accelerator production power telemetry: 10,000
    samples.

    Optimized models draw 80% of the stress-test draw at equal load;
    utilization rides a diurnal curve (55% mean, ±35% swing) with 8%
    lognormal noise.
    """
    rng = np.random.default_rng(seed)
    t = rng.uniform(0, 2 * np.pi, size=10_000)
    utilization = np.clip(
        0.55 * (1 + 0.35 * np.sin(t)) * rng.lognormal(0, 0.08, 10_000),
        0.02,
        1.0,
    )
    chip = server.chip
    idle = chip.tdp_watts * chip.idle_power_fraction
    draw = (idle + utilization * (chip.tdp_watts - idle)) * 0.80
    return PowerSample(values_w=draw)


def p90_experiment_budget(
    server: ServerSpec, per_accelerator_p90_w: float
) -> float:
    """Prong 1: every accelerator held at the P90 of its peak production
    throughput for the largest models."""
    if per_accelerator_p90_w <= 0:
        raise ValueError("power must be positive")
    return server.platform_power_watts + server.accelerators_per_server * per_accelerator_p90_w


def p90_fleet_budget(
    server: ServerSpec, fully_utilized_server_powers_w: Sequence[float]
) -> float:
    """Prong 2: P90 power of fully-utilized production servers."""
    if not len(fully_utilized_server_powers_w):
        raise ValueError("need at least one observation")
    return float(np.percentile(np.asarray(fully_utilized_server_powers_w), 90))


@dataclasses.dataclass(frozen=True)
class ProvisioningOutcome:
    """Initial versus revised rack budget."""

    initial_budget_w: float
    experiment_budget_w: float
    fleet_budget_w: float

    @property
    def revised_budget_w(self) -> float:
        """The paper's rule: the higher of the two P90 figures."""
        return max(self.experiment_budget_w, self.fleet_budget_w)

    @property
    def reduction_fraction(self) -> float:
        """How much provisioned power the revision frees."""
        if self.initial_budget_w <= 0:
            return 0.0
        return 1.0 - self.revised_budget_w / self.initial_budget_w


def provisioning_study(server: ServerSpec, seed: int = 0) -> ProvisioningOutcome:
    """Run the full before/after provisioning analysis for one server
    generation."""
    initial = stress_test_budget(server)
    telemetry = sample_production_power(server, seed=seed)
    experiment = p90_experiment_budget(server, telemetry.percentile(90))
    # Fully-utilized servers: all accelerators near their production P90
    # simultaneously, with server-level dispersion.
    rng = np.random.default_rng(seed + 1)
    per_server = (
        server.platform_power_watts * rng.uniform(0.85, 1.0, size=500)
        + server.accelerators_per_server
        * telemetry.percentile(75)
        * rng.uniform(0.9, 1.05, size=500)
    )
    fleet = p90_fleet_budget(server, per_server)
    return ProvisioningOutcome(
        initial_budget_w=initial,
        experiment_budget_w=experiment,
        fleet_budget_w=fleet,
    )
