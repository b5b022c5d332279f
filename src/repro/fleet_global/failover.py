"""Health-probe failover and capacity spill at the global front door.

The anycast load balancer never sees a region's true state — it sees
*probes*: periodic health checks whose answers are already
:data:`PROBE_LAG_S` stale when they arrive, debounced so one dropped probe
cannot fail a healthy region over (flap damping), with an asymmetric
up/down threshold (hysteresis) so a region recovering from an outage
must prove itself before taking traffic back.  :class:`HealthMonitor`
turns a region's ground-truth outage intervals into the *detected*
outage intervals the router actually acts on; the gap between the two —
detection lag on the way down, probation on the way up — is exactly the
window every real failover story is about.

:class:`SpillRouter` is the deterministic spill policy: a request whose
home region is detected-down is re-homed to the least-loaded region the
LB believes healthy (load measured as assigned requests per replica, so
a big region absorbs proportionally more), paying the inter-region
round trip on its latency and refused entirely — shed at the LB — when
every candidate is beyond the spill admission cap or the whole planet
is dark.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import List, Optional, Sequence, Tuple

PROBE_INTERVAL_S = 0.5
PROBE_LAG_S = 0.25  # a probe's answer reflects this far back
DOWN_AFTER = 2  # consecutive failed probes to declare down
UP_AFTER = 2  # consecutive good probes to take traffic back
SPILL_ONE_WAY_S = 0.015  # inter-region forward (and return) leg
# Spill admission: a region stops accepting spill once its assigned load
# (home + spilled-in) reaches this fraction of its nominal request
# capacity over the run.
MAX_SPILL_LOAD = 0.95


Interval = Tuple[float, float]


def _inside(intervals: Sequence[Interval], t_s: float) -> bool:
    for start, end in intervals:
        if start <= t_s < end:
            return True
    return False


class HealthMonitor:
    """Probe-eye view of one region's health over a run.

    Built from the ground-truth unreachable intervals (the outages the
    drill schedule injects), it replays the probe sequence once —
    probes at ``k * PROBE_INTERVAL_S``, each observing the truth
    ``PROBE_LAG_S`` earlier — applying the down/up streak thresholds,
    and exposes the *detected*-down intervals the router queries.  Pure
    and deterministic: same truth, same detection timeline.
    """

    def __init__(
        self,
        truth_down: Sequence[Interval],
        horizon_s: float,
    ) -> None:
        self.truth_down = tuple(
            (float(start), float(end)) for start, end in truth_down
        )
        for start, end in self.truth_down:
            if end < start:
                raise ValueError("outage intervals must not end before start")
        self.horizon_s = float(horizon_s)
        self.detected_down = self._replay_probes()
        self._starts = [start for start, _ in self.detected_down]

    def _replay_probes(self) -> Tuple[Interval, ...]:
        detected: List[Interval] = []
        down_since: Optional[float] = None
        fail_streak = 0
        ok_streak = 0
        t = PROBE_INTERVAL_S
        while t <= self.horizon_s + PROBE_LAG_S + (
            DOWN_AFTER + UP_AFTER
        ) * PROBE_INTERVAL_S:
            observed_at = t - PROBE_LAG_S
            failing = observed_at >= 0 and _inside(self.truth_down, observed_at)
            if failing:
                fail_streak += 1
                ok_streak = 0
                if down_since is None and fail_streak >= DOWN_AFTER:
                    down_since = t
            else:
                ok_streak += 1
                fail_streak = 0
                if down_since is not None and ok_streak >= UP_AFTER:
                    detected.append((down_since, t))
                    down_since = None
            t += PROBE_INTERVAL_S
        if down_since is not None:
            detected.append((down_since, float("inf")))
        return tuple(detected)

    def down_at(self, t_s: float) -> bool:
        """Whether the LB believes the region is down at ``t_s``."""
        index = bisect.bisect_right(self._starts, t_s) - 1
        if index < 0:
            return False
        start, end = self.detected_down[index]
        return start <= t_s < end

    def detection_lag_s(self) -> float:
        """Time from the first true outage to its detection (0 if the
        outage was never detected, inf if there was no outage)."""
        if not self.truth_down:
            return float("inf")
        first = self.truth_down[0][0]
        for start, _ in self.detected_down:
            if start >= first:
                return start - first
        return 0.0


@dataclasses.dataclass(frozen=True)
class Assignment:
    """Where the LB sent one request."""

    region: int  # destination region index
    spilled: bool
    lb_shed: bool = False


class SpillRouter:
    """The deterministic global spill chooser.

    Tracks assigned load per region (home and spilled-in alike) and, for
    a request whose home is detected-down, picks the healthy region with
    the lowest assigned-requests-per-replica, ties broken by region
    index.  A candidate past :data:`MAX_SPILL_LOAD` of its nominal capacity
    refuses spill; with no willing candidate the request is shed at the
    LB.  State is advanced one arrival at a time in chronological order,
    so the assignment sequence is a pure function of the arrival
    sequence and the monitors.

    :meth:`assign` runs once per request fleet-wide, so it checks the
    home monitor inline and returns one of three per-region
    :class:`Assignment` instances (home, spilled-in, LB-shed) built
    once here; ``Assignment`` is frozen, so sharing them is safe.
    """

    def __init__(
        self,
        monitors: Sequence[Optional[HealthMonitor]],
        replicas: Sequence[int],
        capacity_requests: Sequence[float],
    ) -> None:
        if len(monitors) != len(replicas) or len(replicas) != len(
            capacity_requests
        ):
            raise ValueError("monitors, replicas, capacities must align")
        self.monitors = list(monitors)
        self.replicas = list(replicas)
        self.capacity_requests = list(capacity_requests)
        self.assigned = [0] * len(replicas)
        self.spilled_out = [0] * len(replicas)
        self.spilled_in = [0] * len(replicas)
        self.lb_shed = 0
        regions = range(len(replicas))
        self._home = [Assignment(region, spilled=False) for region in regions]
        self._spill = [Assignment(region, spilled=True) for region in regions]
        self._shed = [
            Assignment(region, spilled=False, lb_shed=True)
            for region in regions
        ]

    def _down(self, region: int, t_s: float) -> bool:
        monitor = self.monitors[region]
        return monitor is not None and monitor.down_at(t_s)

    def assign(self, home: int, arrival_s: float) -> Assignment:
        """Route one arrival: home, spill, or LB shed."""
        monitor = self.monitors[home]
        if monitor is None or not monitor.down_at(arrival_s):
            self.assigned[home] += 1
            return self._home[home]
        best: Optional[int] = None
        best_load = float("inf")
        for region in range(len(self.replicas)):
            if region == home or self._down(region, arrival_s):
                continue
            if (self.assigned[region]
                    >= MAX_SPILL_LOAD * self.capacity_requests[region]):
                continue  # spill admission: the region is already full
            load = self.assigned[region] / self.replicas[region]
            if load < best_load:
                best, best_load = region, load
        if best is None:
            self.lb_shed += 1
            return self._shed[home]
        self.assigned[best] += 1
        self.spilled_out[home] += 1
        self.spilled_in[best] += 1
        return self._spill[best]


__all__ = [
    "Assignment",
    "HealthMonitor",
    "SpillRouter",
]
