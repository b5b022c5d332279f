"""Reactive + predictive replica autoscaling.

The reactive half is classic utilization tracking: when the measured
busy fraction over the last tick leaves the target band, resize toward
``measured_rate * mean_service / target_utilization`` replicas.  The
predictive half uses the known diurnal traffic model
(:class:`~repro.serving.workload.DiurnalTrafficModel`) to provision for
the rate ``predictive_lead_s`` ahead — replicas take minutes to place,
load, and warm, so scaling on the forecast rather than the measurement
is what keeps the morning ramp from eating the P99 budget.  The two
estimates race and the larger wins; a cooldown stops flapping.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

from repro.cluster.service import ServiceModel
from repro.serving.workload import DiurnalTrafficModel


# The utilization band: a tick measuring busy fraction above
# ``SCALE_UP_UTILIZATION`` or below ``SCALE_DOWN_UTILIZATION`` resizes
# toward ``TARGET_UTILIZATION``.
TARGET_UTILIZATION = 0.70
SCALE_UP_UTILIZATION = 0.85
SCALE_DOWN_UTILIZATION = 0.45


@dataclasses.dataclass(frozen=True)
class AutoscalerConfig:
    """Scaling bounds, cadence, and forecast lead."""

    min_replicas: int = 1
    max_replicas: int = 64
    tick_interval_s: float = 30.0
    cooldown_s: float = 60.0
    predictive_lead_s: float = 300.0

    def __post_init__(self) -> None:
        if not (1 <= self.min_replicas <= self.max_replicas):
            raise ValueError("need 1 <= min_replicas <= max_replicas")
        if self.tick_interval_s <= 0 or self.cooldown_s < 0:
            raise ValueError("tick interval must be positive, cooldown >= 0")
        if self.predictive_lead_s < 0:
            raise ValueError("predictive lead must be non-negative")


class Autoscaler:
    """Desired-replica-count controller for one replica set; with a
    ``traffic_model`` it also provisions for the forecast rate."""

    def __init__(
        self,
        config: AutoscalerConfig,
        service: ServiceModel,
        traffic_model: Optional[DiurnalTrafficModel] = None,
    ) -> None:
        self.config = config
        self.service = service
        self.traffic_model = traffic_model
        self._last_change_s = -math.inf

    def _clamp(self, replicas: int) -> int:
        return max(self.config.min_replicas,
                   min(self.config.max_replicas, replicas))

    def _replicas_for_rate(self, rate_per_s: float) -> int:
        demand = rate_per_s * self.service.mean_service_s
        return self._clamp(
            math.ceil(demand / TARGET_UTILIZATION)
            if demand > 0 else self.config.min_replicas
        )

    def desired_replicas(
        self,
        now_s: float,
        current: int,
        measured_utilization: float,
        measured_rate_per_s: float,
    ) -> int:
        """The replica count this tick wants (current if inside the band
        or cooling down)."""
        config = self.config
        if now_s - self._last_change_s < config.cooldown_s:
            return current
        reactive = current
        if (measured_utilization > SCALE_UP_UTILIZATION
                or measured_utilization < SCALE_DOWN_UTILIZATION):
            reactive = self._replicas_for_rate(measured_rate_per_s)
        predictive = 0
        if self.traffic_model is not None:
            forecast = self.traffic_model.rate_at(
                now_s + config.predictive_lead_s
            )
            predictive = self._replicas_for_rate(forecast)
        desired = self._clamp(max(reactive, predictive))
        # Never scale *down* on the forecast alone while measured load is
        # inside the band — the model may underestimate a burst in flight.
        if desired < current and measured_utilization >= SCALE_DOWN_UTILIZATION:
            return current
        if desired != current:
            self._last_change_s = now_s
        return desired
