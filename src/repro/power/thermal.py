"""Lumped RC thermal network: die → spreader → heatsink → ambient.

The standard compact model for package thermals: a chain of thermal
capacitances (die + package, heat spreader, heatsink) joined by thermal
resistances, with the last stage tied to ambient.  Power is injected at
the die node; the junction temperature that feeds back into leakage and
the DVFS governor is the die node's temperature.

Explicit-Euler stepping with automatic sub-stepping at the stability
limit; the closed-form steady state (every resistance carries the full
injected power, so ``T_i = ambient + P * sum(R_j, j >= i)``) doubles as
the validation oracle the hypothesis property tests converge against.

Constants for the MTIA 2i package reflect a dense 24-chip Grand Teton
chassis: shared airflow pre-heated by upstream modules (hot ambient),
modest per-chip sink mass.  They are shape-calibrated, not measured —
what matters downstream is the coupled dynamics (heating timescales of
seconds-to-minutes, leakage feedback, throttle crossings), not absolute
degrees, per the AutoDNNchip-style substitution argument in DESIGN.md.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence, Tuple

import numpy as np

# Junction limits for the governor (TSMC 5 nm class silicon).
THROTTLE_LIMIT_C = 105.0
THROTTLE_TARGET_C = 98.0


@dataclasses.dataclass(frozen=True)
class RcStage:
    """One node of the chain: its mass and the resistance downstream."""

    name: str
    heat_capacity_j_per_c: float
    # Resistance from this node to the next (or to ambient for the last).
    resistance_c_per_w: float

    def __post_init__(self) -> None:
        if self.heat_capacity_j_per_c <= 0:
            raise ValueError(f"{self.name}: heat capacity must be positive")
        if self.resistance_c_per_w <= 0:
            raise ValueError(f"{self.name}: resistance must be positive")

    @property
    def time_constant_s(self) -> float:
        """The stage's own RC time constant."""
        return self.heat_capacity_j_per_c * self.resistance_c_per_w


class ThermalNetwork:
    """A power-in, junction-temperature-out RC chain."""

    def __init__(self, stages: Sequence[RcStage], ambient_c: float = 40.0) -> None:
        if not stages:
            raise ValueError("need at least one stage")
        self.stages = tuple(stages)
        self.ambient_c = float(ambient_c)
        self._capacities = np.array(
            [s.heat_capacity_j_per_c for s in self.stages]
        )
        self._resistances = np.array(
            [s.resistance_c_per_w for s in self.stages]
        )

    @property
    def total_resistance_c_per_w(self) -> float:
        """Junction-to-ambient thermal resistance."""
        return float(self._resistances.sum())

    def steady_state(self, power_w: float) -> np.ndarray:
        """Closed-form settled temperatures under constant power.

        In steady state every resistance in the chain carries the full
        injected power, so each node sits at ambient plus power times
        the resistance downstream of it.
        """
        if power_w < 0:
            raise ValueError("power must be non-negative")
        downstream = np.cumsum(self._resistances[::-1])[::-1]
        return self.ambient_c + power_w * downstream

    def steady_junction_c(self, power_w: float) -> float:
        """Closed-form junction (die) temperature under constant power."""
        return float(self.steady_state(power_w)[0])

    def initial_state(self) -> np.ndarray:
        """All nodes at ambient (a cold start)."""
        return np.full(len(self.stages), self.ambient_c)

    def max_stable_dt(self) -> float:
        """Explicit-Euler stability bound with a 2x safety factor."""
        conductance = 1.0 / self._resistances
        node_g = conductance.copy()
        node_g[1:] += conductance[:-1]
        return float(0.5 * np.min(self._capacities / node_g))

    def step(
        self, temps_c: np.ndarray, power_w: float, dt_s: float
    ) -> np.ndarray:
        """Advance the network ``dt_s`` under constant injected power.

        Sub-steps internally at the stability limit, so any caller dt is
        safe; returns the new temperature vector (input untouched).
        """
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        temps = np.asarray(temps_c, dtype=float).copy()
        if temps.shape != self._capacities.shape:
            raise ValueError("temperature vector does not match the network")
        if dt_s == 0:
            return temps
        stable = self.max_stable_dt()
        substeps = max(1, int(np.ceil(dt_s / stable)))
        h = dt_s / substeps
        for _ in range(substeps):
            downstream = np.append(temps[1:], self.ambient_c)
            outflow = (temps - downstream) / self._resistances
            inflow = np.concatenate(([power_w], outflow[:-1]))
            temps = temps + h * (inflow - outflow) / self._capacities
        return temps

    def settle(
        self,
        power_w: float,
        tolerance_c: float = 0.01,
    ) -> Tuple[np.ndarray, float]:
        """Step from the initial state until within ``tolerance_c`` of
        steady state.

        Returns ``(temps, simulated_seconds)``.  Bounded by 40x the
        slowest stage time constant so a pathological network cannot
        spin forever.
        """
        temps = self.initial_state()
        target = self.steady_state(power_w)
        slowest = max(s.time_constant_s for s in self.stages)
        horizon = 40.0 * slowest
        dt = max(self.max_stable_dt(), slowest / 50.0)
        t = 0.0
        while t < horizon and float(np.max(np.abs(temps - target))) > tolerance_c:
            temps = self.step(temps, power_w, dt)
            t += dt
        return temps, t


def mtia2i_thermal() -> ThermalNetwork:
    """The per-chip MTIA 2i package stack in the dense 24-chip server.

    ~0.75 °C/W junction-to-ambient with a 45 °C pre-heated chassis
    ambient (24 modules share the airflow): the 65 W typical draw settles in the
    low 90s °C, and the overclocked worst case brushes the throttle
    ceiling — exactly the regime the DVFS study needs to exercise.
    """
    return ThermalNetwork(
        stages=(
            RcStage("die", heat_capacity_j_per_c=18.0, resistance_c_per_w=0.12),
            RcStage("spreader", heat_capacity_j_per_c=120.0, resistance_c_per_w=0.18),
            RcStage("heatsink", heat_capacity_j_per_c=420.0, resistance_c_per_w=0.45),
        ),
        ambient_c=45.0,
    )


__all__ = [
    "RcStage",
    "THROTTLE_LIMIT_C",
    "THROTTLE_TARGET_C",
    "ThermalNetwork",
    "mtia2i_thermal",
]
