"""Lumped RC thermal network: die → spreader → heatsink → ambient.

The standard compact model for package thermals: a chain of thermal
capacitances (die + package, heat spreader, heatsink) joined by thermal
resistances, with the last stage tied to ambient.  Power is injected at
the die node; the junction temperature that feeds back into leakage and
the DVFS governor is the die node's temperature.

Under constant power the chain is linear, so a step is exact: the
zero-order hold ``target + expm(A·dt) @ (temps - target)``, where
``target`` is the closed-form steady state (every resistance carries the
full injected power, so ``T_i = ambient + P * sum(R_j, j >= i)``) and
``A = -C⁻¹G`` the chain's conductance matrix over its capacities.  The
steady state doubles as the oracle the hypothesis property tests
converge against.

Constants for the MTIA 2i package reflect a dense 24-chip Grand Teton
chassis: shared airflow pre-heated by upstream modules (hot ambient),
modest per-chip sink mass.  They are shape-calibrated, not measured —
what matters downstream is the coupled dynamics (heating timescales of
seconds-to-minutes, leakage feedback, throttle crossings), not absolute
degrees, per the AutoDNNchip-style substitution argument in DESIGN.md.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Sequence

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
        # expm(A·dt) per step length.
        self._propagators: Dict[float, np.ndarray] = {}

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

    def _propagator(self, dt_s: float) -> np.ndarray:
        """``expm(A·dt)``, from ``eigh`` of the symmetrized chain.

        ``G`` is symmetric, so ``S = C^-1/2 G C^-1/2`` is too, with
        eigenpairs ``(λ, V)``, and ``expm(A·dt) = C^-1/2 V diag(exp(-λ
        dt)) Vᵀ C^1/2``.
        """
        propagator = self._propagators.get(dt_s)
        if propagator is None:
            conductance = 1.0 / self._resistances
            node_g = conductance.copy()
            node_g[1:] += conductance[:-1]
            chain = (
                np.diag(node_g)
                - np.diag(conductance[:-1], 1)
                - np.diag(conductance[:-1], -1)
            )
            scale = 1.0 / np.sqrt(self._capacities)
            rates, vectors = np.linalg.eigh(
                scale[:, None] * chain * scale[None, :]
            )
            left = scale[:, None] * vectors
            right = vectors.T / scale[None, :]
            propagator = (left * np.exp(-rates * dt_s)) @ right
            self._propagators[dt_s] = propagator
        return propagator

    def step(
        self, temps_c: np.ndarray, power_w: float, dt_s: float
    ) -> np.ndarray:
        """Advance the network ``dt_s`` under constant injected power.

        Exact for any ``dt``; returns the new temperature vector (input
        untouched).
        """
        if dt_s < 0:
            raise ValueError("dt must be non-negative")
        temps = np.asarray(temps_c, dtype=float).copy()
        if temps.shape != self._capacities.shape:
            raise ValueError("temperature vector does not match the network")
        if dt_s == 0:
            return temps
        target = self.steady_state(power_w)
        return target + self._propagator(dt_s) @ (temps - target)


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
