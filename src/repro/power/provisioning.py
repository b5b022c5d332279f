"""Time-domain replay of the rack-budget re-derivation (section 5.3).

The initial budget is :func:`repro.reliability.power.stress_test_budget`.
This module replays production in the time domain: a fleet of 24-chip
servers runs the shared diurnal utilization tape through the
leakage-aware power model for a simulated production window, and the
two P90 prongs the paper describes are measured off that telemetry
stream —

1. an experiment budget: every accelerator held at the fleet-wide P90 of
   per-chip draw during its own high-load windows;
2. a fleet budget: the P90 over servers of each server's power while it
   is effectively fully utilized.

The revised budget is the higher of the two, exactly the rule the paper
states, and against the stress-test initial budget it lands the ~40%
reduction, derived from the same watt-level model the DVFS and capping
studies step.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.arch.server import mtia2i_server
from repro.obs.metrics import MetricsRegistry, active
from repro.power.activity import chip_power_w, utilization_profile
from repro.reliability.power import stress_test_budget


# Optimized production models draw this fraction of the out-of-the-box
# stress-test models' power at equal load.
OPTIMIZED_POWER_FACTOR = 0.88
# Ticks above this quantile of a chip's (or server's) own utilization are
# its high-load windows.
HIGH_LOAD_QUANTILE = 0.75


@dataclasses.dataclass(frozen=True)
class TimeDomainProvisioning:
    """Before/after rack budget, measured from simulated telemetry."""

    initial_budget_w: float
    experiment_budget_w: float
    fleet_budget_w: float
    mean_server_power_w: float
    peak_server_power_w: float

    @property
    def revised_budget_w(self) -> float:
        """The paper's rule: the higher of the two P90 prongs."""
        return max(self.experiment_budget_w, self.fleet_budget_w)

    @property
    def reduction_fraction(self) -> float:
        """Provisioned power the revision frees (paper: ~0.40)."""
        if self.initial_budget_w <= 0:
            return 0.0
        return 1.0 - self.revised_budget_w / self.initial_budget_w


def time_domain_provisioning(
    num_servers: int = 40,
    duration_s: float = 600.0,
    seed: int = 0,
    registry: Optional[MetricsRegistry] = None,
) -> TimeDomainProvisioning:
    """Run the fleet and re-derive the budget from its telemetry.

    Each MTIA 2i chip runs the diurnal utilization profile (55% mean,
    independent noise, shared shape, one tick every 2 s) through
    :func:`chip_power_w` at the deployed frequency;
    ``OPTIMIZED_POWER_FACTOR`` captures that optimized production models
    draw less than the out-of-the-box stress-test models at equal load.
    High-load windows are the ticks above ``HIGH_LOAD_QUANTILE`` of each
    chip's own utilization — the paper's "peak throughput the largest
    models see in production".
    """
    dt_s = 2.0
    if num_servers <= 0:
        raise ValueError("need at least one server")
    server = mtia2i_server()
    chip = server.chip
    obs = active(registry)
    rng = np.random.default_rng(seed)
    num_chips = server.accelerators_per_server
    steps = int(np.ceil(duration_s / dt_s))

    initial = stress_test_budget(server)

    # The stress budget anchors at TDP; production telemetry must sit on
    # the same activity scale for the before/after to be meaningful.
    # ``chip_power_w`` anchors full activity at the *typical* dynamic
    # share, so map utilization up such that utilization 1.0 reaches TDP.
    leak = chip.leakage_power_w(None)
    dyn_typical = chip.typical_watts * (1.0 - chip.idle_power_fraction)
    peak_factor = (chip.tdp_watts - leak) / dyn_typical

    high_load_chip_draws = []
    server_high_load_power = []
    mean_power_sum = 0.0
    peak_power = 0.0
    for server_index in range(num_servers):
        tape = np.empty((num_chips, steps))
        for i in range(num_chips):
            tape[i] = utilization_profile(
                duration_s, dt_s, mean=0.55, rng=rng
            )
        draw = np.empty_like(tape)
        for i in range(num_chips):
            for t in range(steps):
                draw[i, t] = chip_power_w(
                    chip, chip.frequency_hz, float(tape[i, t]) * peak_factor
                )
        draw *= OPTIMIZED_POWER_FACTOR
        # Prong 1 telemetry: each chip's draw during its own high-load
        # windows.
        for i in range(num_chips):
            threshold = np.quantile(tape[i], HIGH_LOAD_QUANTILE)
            high_load_chip_draws.append(draw[i, tape[i] >= threshold])
        # Prong 2 telemetry: server power while the server as a whole is
        # running hot (total utilization above its own high quantile).
        server_util = tape.mean(axis=0)
        server_power = draw.sum(axis=0) + server.platform_power_watts
        hot = server_util >= np.quantile(server_util, HIGH_LOAD_QUANTILE)
        server_high_load_power.append(float(np.percentile(server_power[hot], 90)))
        mean_power_sum += float(server_power.mean())
        peak_power = max(peak_power, float(server_power.max()))
        if obs.enabled and server_index == 0:
            for t in range(steps):
                obs.series("power.provisioning.server_w").append(
                    t * dt_s, float(server_power[t])
                )

    per_chip_p90 = float(np.percentile(np.concatenate(high_load_chip_draws), 90))
    experiment = server.platform_power_watts + num_chips * per_chip_p90
    fleet = float(np.percentile(server_high_load_power, 90))

    outcome = TimeDomainProvisioning(
        initial_budget_w=initial,
        experiment_budget_w=experiment,
        fleet_budget_w=fleet,
        mean_server_power_w=mean_power_sum / num_servers,
        peak_server_power_w=peak_power,
    )
    if obs.enabled:
        obs.gauge("power.provisioning.reduction_fraction").set(
            outcome.reduction_fraction
        )
        obs.gauge("power.provisioning.revised_budget_w").set(
            outcome.revised_budget_w
        )
    return outcome


__all__ = [
    "TimeDomainProvisioning",
    "time_domain_provisioning",
]
