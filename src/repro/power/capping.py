"""Server and rack power capping (section 5.3's smoothing claim, live).

The paper credits part of the ~40% budget reduction to fine-grained
power allocation across 24 small accelerators smoothing load spikes: a
chip that spikes borrows headroom from the 23 that did not, where a
coarse server-level cap must clamp everyone to survive the worst chip.

This module makes that claim testable.  Two controllers share one
demand tape (per-chip diurnal utilization plus random spikes from
:func:`repro.power.activity.utilization_profile`):

* :class:`PerChipCapController` — water-filling: each tick the server
  budget is divided so no chip gets more than it asks for and the
  leftovers of frugal chips flow to spiking ones; each chip then runs
  at the highest ladder frequency its allocation affords.
* :class:`ServerCapController` — one uniform ladder index for all
  chips, stepped down a notch whenever the previous tick's total draw
  exceeded the budget (the one-tick measurement lag a real server-level
  loop has) and back up when there is headroom.

The figure of merit is throughput *deficit* — how much of the demanded
work each policy fails to deliver — and its P99 across ticks.  The
pinned golden: at equal budget, the per-chip P99 deficit is strictly
below the server-level one.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.arch.server import mtia2i_server
from repro.arch.specs import ChipSpec
from repro.obs.metrics import MetricsRegistry, active
from repro.power.activity import chip_power_w, utilization_profile
from repro.power.dvfs import DEFAULT_LADDER_HZ


def water_fill(demands_w: np.ndarray, budget_w: float) -> np.ndarray:
    """Divide a budget so nobody gets more than they asked for.

    Iteratively grants every unsatisfied chip an equal share of the
    remaining budget, capped at its demand; freed headroom recirculates
    until the budget is spent or everyone is satisfied.  Conserves the
    budget: ``sum(alloc) == min(budget, sum(demands))``.
    """
    demands = np.asarray(demands_w, dtype=float)
    if np.any(demands < 0):
        raise ValueError("demands must be non-negative")
    if budget_w < 0:
        raise ValueError("budget must be non-negative")
    alloc = np.zeros_like(demands)
    remaining = float(budget_w)
    unsatisfied = demands > 0
    while remaining > 1e-9 and np.any(unsatisfied):
        share = remaining / int(np.sum(unsatisfied))
        grant = np.minimum(demands[unsatisfied] - alloc[unsatisfied], share)
        alloc[unsatisfied] += grant
        remaining -= float(np.sum(grant))
        unsatisfied = alloc < demands - 1e-12
    return alloc


def _frequency_for_budget(
    chip: ChipSpec,
    ladder_hz: Sequence[float],
    utilization: float,
    budget_w: float,
) -> float:
    """Highest ladder frequency whose draw fits the budget (the ladder
    floor if none does — a chip cannot clock below its minimum state)."""
    for frequency in reversed(ladder_hz):
        if chip_power_w(chip, frequency, utilization) <= budget_w:
            return frequency
    return ladder_hz[0]


@dataclasses.dataclass(frozen=True)
class CapOutcome:
    """One controller's run against the shared demand tape."""

    policy: str
    budget_w: float
    delivered_fraction: float
    deficits: Tuple[float, ...]  # per-tick fraction of demanded work lost
    power_w: Tuple[float, ...]  # per-tick total server draw
    cap_violation_fraction: float

    @property
    def p99_deficit(self) -> float:
        return float(np.percentile(self.deficits, 99))


class PerChipCapController:
    """Fine-grained allocation: water-fill the budget every tick."""

    policy = "per_chip"

    def __init__(
        self,
        chip: ChipSpec,
        num_chips: int,
        budget_w: float,
    ) -> None:
        self.chip = chip
        self.num_chips = num_chips
        self.budget_w = budget_w
        self.ladder_hz = DEFAULT_LADDER_HZ

    def tick(self, utilizations: np.ndarray) -> Tuple[np.ndarray, float]:
        """Returns (per-chip frequency, total draw) for one tick."""
        demands = np.array([
            chip_power_w(self.chip, self.ladder_hz[-1], float(u))
            for u in utilizations
        ])
        alloc = water_fill(demands, self.budget_w)
        freqs = np.array([
            _frequency_for_budget(self.chip, self.ladder_hz, float(u), float(a))
            for u, a in zip(utilizations, alloc)
        ])
        power = float(sum(
            chip_power_w(self.chip, float(f), float(u))
            for f, u in zip(freqs, utilizations)
        ))
        return freqs, power


class ServerCapController:
    """Coarse control: one ladder index for every chip, adjusted on the
    *previous* tick's total draw (the measurement lag of a server-level
    loop polling a shared power meter)."""

    policy = "server_level"

    def __init__(
        self,
        chip: ChipSpec,
        num_chips: int,
        budget_w: float,
    ) -> None:
        self.chip = chip
        self.num_chips = num_chips
        self.budget_w = budget_w
        self.ladder_hz = DEFAULT_LADDER_HZ
        self.index = len(self.ladder_hz) - 1
        self._last_power: Optional[float] = None

    def tick(self, utilizations: np.ndarray) -> Tuple[np.ndarray, float]:
        if self._last_power is not None:
            if self._last_power > self.budget_w and self.index > 0:
                self.index -= 1
            elif self.index < len(self.ladder_hz) - 1:
                # Step back up only if the next state would have fit the
                # previous tick's load.
                probe = self._last_power * (
                    self.ladder_hz[self.index + 1] / self.ladder_hz[self.index]
                )
                if probe <= self.budget_w:
                    self.index += 1
        frequency = self.ladder_hz[self.index]
        power = float(sum(
            chip_power_w(self.chip, frequency, float(u)) for u in utilizations
        ))
        self._last_power = power
        freqs = np.full(len(utilizations), frequency)
        return freqs, power


def _spiky_utilization(
    num_chips: int,
    duration_s: float,
    dt_s: float,
    mean: float,
    spike_probability: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Per-chip diurnal load with uncorrelated spikes — the load shape
    whose smoothing fine-grained allocation exploits."""
    steps = int(np.ceil(duration_s / dt_s))
    tape = np.empty((num_chips, steps))
    for i in range(num_chips):
        tape[i] = utilization_profile(duration_s, dt_s, mean=mean, rng=rng)
    spikes = rng.random((num_chips, steps)) < spike_probability
    tape[spikes] = 1.0
    return tape


def run_capping(
    controller,
    utilization_tape: np.ndarray,
    registry: Optional[MetricsRegistry] = None,
) -> CapOutcome:
    """Drive one controller down a demand tape and score it.

    Demanded work per tick is utilization at the top ladder frequency;
    delivered work scales by the granted frequency ratio.
    """
    obs = active(registry)
    num_chips, steps = utilization_tape.shape
    fmax = DEFAULT_LADDER_HZ[-1]
    deficits, powers = [], []
    demanded_total = delivered_total = 0.0
    violations = 0
    for step in range(steps):
        utilizations = utilization_tape[:, step]
        freqs, power = controller.tick(utilizations)
        demanded = float(np.sum(utilizations))
        delivered = float(np.sum(utilizations * freqs / fmax))
        demanded_total += demanded
        delivered_total += delivered
        deficits.append(1.0 - delivered / demanded if demanded else 0.0)
        powers.append(power)
        if power > controller.budget_w * (1.0 + 1e-9):
            violations += 1
        if obs.enabled:
            obs.series(f"power.cap.{controller.policy}.draw_w").append(
                float(step), power
            )
    outcome = CapOutcome(
        policy=controller.policy,
        budget_w=controller.budget_w,
        delivered_fraction=delivered_total / demanded_total if demanded_total else 1.0,
        deficits=tuple(deficits),
        power_w=tuple(powers),
        cap_violation_fraction=violations / steps if steps else 0.0,
    )
    if obs.enabled:
        obs.gauge(f"power.cap.{controller.policy}.p99_deficit").set(
            outcome.p99_deficit
        )
    return outcome


@dataclasses.dataclass(frozen=True)
class CappingComparison:
    """Per-chip versus server-level capping at equal budget."""

    per_chip: CapOutcome
    server_level: CapOutcome
    budget_w: float

    @property
    def p99_deficit_improvement(self) -> float:
        """How much P99 deficit fine-grained allocation removes."""
        return self.server_level.p99_deficit - self.per_chip.p99_deficit


def capping_study(
    duration_s: float = 600.0,
    mean_utilization: float = 0.6,
    seed: int = 0,
    registry: Optional[MetricsRegistry] = None,
) -> CappingComparison:
    """Head-to-head: both controllers, one demand tape, one budget.

    The tape runs one tick a second on the MTIA 2i server, with a 3%
    chance per chip and tick of a full-load spike.  The budget is 82% of
    the server's worst-case accelerator draw (all 24 chips flat-out at
    the top ladder frequency) — tight enough that spikes force a choice,
    loose enough that the steady diurnal load fits.
    """
    server = mtia2i_server()
    chip = server.chip
    num_chips = server.accelerators_per_server
    worst_case = num_chips * chip_power_w(chip, DEFAULT_LADDER_HZ[-1], 1.0)
    budget = 0.82 * worst_case
    rng = np.random.default_rng(seed)
    tape = _spiky_utilization(num_chips, duration_s, 1.0, mean_utilization, 0.03, rng)
    per_chip = run_capping(
        PerChipCapController(chip, num_chips, budget),
        tape, registry=registry,
    )
    server_level = run_capping(
        ServerCapController(chip, num_chips, budget),
        tape, registry=registry,
    )
    return CappingComparison(
        per_chip=per_chip, server_level=server_level, budget_w=budget
    )


__all__ = [
    "CapOutcome",
    "CappingComparison",
    "PerChipCapController",
    "ServerCapController",
    "capping_study",
    "run_capping",
    "water_fill",
]
