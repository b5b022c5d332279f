"""Admission control and load shedding at the cluster front door.

Under overload the serving tier must bound queueing rather than let
latency grow without limit (the paper's section 5.5 incident shows what
unbounded backlog does to a pool): a replica stops being an admissible
routing target once its outstanding count reaches the per-replica cap,
and a request that finds no admissible replica at all is shed — counted,
never silently dropped.  An optional total-outstanding cap models a
global front-door token limit.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.cluster.checks import require_count


@dataclasses.dataclass(frozen=True)
class AdmissionConfig:
    """The front door's overload limits."""

    max_outstanding_per_replica: int = 16
    max_total_outstanding: Optional[int] = None

    def __post_init__(self) -> None:
        require_count("per-replica outstanding cap", self.max_outstanding_per_replica)
        if self.max_total_outstanding is not None:
            require_count("total outstanding cap", self.max_total_outstanding)
        if self.max_outstanding_per_replica < 1:
            raise ValueError("per-replica outstanding cap must be at least 1")
        if self.max_total_outstanding is not None and self.max_total_outstanding < 1:
            raise ValueError("total outstanding cap must be at least 1")

    @staticmethod
    def priority_admissible(priority: int, floor: int) -> bool:
        """Priority-tiered admission for brownout serving.

        Under overload the chaos tier's brownout controller raises the
        admission ``floor``; only requests at or above it are admitted
        (higher number = more important).  At the default floor of 0
        every request passes, so the gate is invisible until a brownout
        ladder is armed.
        """
        return priority >= floor
