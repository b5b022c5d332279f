"""The seeded discrete-event fleet resilience simulator.

Composes the pieces the rest of the repo computes statically into one
closed loop over simulated time:

* fault arrivals drawn from the section 5 reliability models
  (:mod:`repro.resilience.faults`);
* a per-device lifecycle state machine
  (:mod:`repro.resilience.device`);
* serving-tier recovery policies — retry, hedging, drain/reboot, load
  shedding (:mod:`repro.resilience.policies`);
* the emergency firmware rollout of
  :func:`repro.reliability.firmware.emergency_rollout`, executed wave by
  wave under its restart-concurrency limit when the pool's
  ``slo_at_risk`` signal (from :mod:`repro.serving.faults`) trips.

The engine is :class:`repro.fastsim.engine.EventEngine`, the shared
event queue, keyed on ``(time, sequence)``; all
randomness flows from one seeded generator consumed in a fixed order, so
two runs with the same seed produce identical event logs — byte for
byte — which the acceptance tests assert.

Every lifecycle change (wedge, degrade, degrade-end, drain,
reboot-start, reboot-done, rollout wave) goes through one
``_transition`` helper, which keeps a
:class:`~repro.resilience.device.PoolCensus` live; the hourly metrics
tick reads that census instead of rescanning the pool.  Ticks fall at
``k * metrics_interval_s`` plus the window's end, and a final partial
interval averages its corrupted samples over the time it covers.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.fastsim.engine import EventEngine
from repro.resilience.device import (
    Device,
    DeviceState,
    PoolCensus,
    downed_device_minutes,
)
from repro.resilience.events import Event, EventKind, EventLog
from repro.resilience.faults import (
    FaultRates,
    fault_rates_from_reliability,
    presample_fault_arrivals,
)
from repro.obs.metrics import MetricsRegistry, active
from repro.resilience.metrics import (
    IntervalMetrics,
    ResilienceReport,
    evaluate_interval,
)
from repro.resilience.policies import ResiliencePolicies
from repro.serving.batcher import CoalescingConfig
from repro.serving.scheduler import ModelJobProfile
from repro.serving.simulator import simulate_serving

# Rollout-wave restart priority: cure the worst devices first.
_WAVE_PRIORITY = {
    DeviceState.WEDGED: 0,
    DeviceState.DRAINING: 1,
    DeviceState.DEGRADED: 2,
    DeviceState.HEALTHY: 3,
}


@dataclasses.dataclass(frozen=True)
class ResilienceConfig:
    """One resilience run's pool, load, and clock parameters."""

    devices: int = 300
    device_throughput: float = 1000.0  # samples/s per healthy device
    offered_load: float = 255_000.0  # samples/s (85% of 300 devices)
    duration_s: float = 90 * 86_400.0
    metrics_interval_s: float = 3600.0
    degraded_scale: float = 0.6
    # Baseline request latency (fault-free, at baseline utilization);
    # calibrate from the serving machinery via calibrate_base_latency().
    base_p50_s: float = 0.020
    base_p99_s: float = 0.080
    seed: int = 0

    def __post_init__(self) -> None:
        if self.devices <= 0 or self.device_throughput <= 0:
            raise ValueError("pool must have capacity")
        if self.offered_load < 0:
            raise ValueError("load must be non-negative")
        if self.duration_s <= 0 or self.metrics_interval_s <= 0:
            raise ValueError("window and metrics interval must be positive")
        if not (0 < self.degraded_scale <= 1):
            raise ValueError("degraded scale must be in (0, 1]")
        if self.base_p50_s <= 0 or self.base_p99_s < self.base_p50_s:
            raise ValueError("need 0 < p50 <= p99 baseline latency")

    @property
    def baseline_utilization(self) -> float:
        """Offered load over the fault-free pool capacity."""
        return self.offered_load / (self.devices * self.device_throughput)


def calibrate_base_latency(
    profile: ModelJobProfile,
    coalescing: CoalescingConfig,
    request_rate_per_s: float,
    samples_per_request: int = 256,
    duration_s: float = 30.0,
    seed: int = 3,
) -> Tuple[float, float]:
    """Baseline (p50, p99) request latency from the serving simulator.

    Runs the real coalescing + job-scheduling pipeline once so the
    resilience time series starts from the same latency machinery the
    rest of the serving stack uses.
    """
    outcome = simulate_serving(
        profile,
        coalescing,
        request_rate_per_s=request_rate_per_s,
        samples_per_request=samples_per_request,
        duration_s=duration_s,
        seed=seed,
    )
    return outcome.p50_latency_s, outcome.p99_latency_s


class ResilienceSimulator:
    """Seeded DES over one serving pool."""

    def __init__(
        self,
        config: ResilienceConfig,
        rates: Optional[FaultRates] = None,
        policies: Optional[ResiliencePolicies] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.rates = rates if rates is not None else fault_rates_from_reliability()
        self.policies = policies if policies is not None else ResiliencePolicies.production()
        # Observability only: the registry never touches the RNG or the
        # event heap, so seeded runs are byte-identical with or without
        # it (pinned by the trace-hash regression test).
        self._obs = active(registry)
        self._rng = np.random.default_rng(config.seed)
        self._devices: Dict[int, Device] = {
            i: Device(device_id=i, degraded_scale=config.degraded_scale)
            for i in range(config.devices)
        }
        # Every lifecycle change goes through _transition, which keeps
        # this census live for the metrics ticks.
        self._census = PoolCensus.of(self._devices)
        self._log = EventLog()
        # Payloads are ``(kind, device_id, handler_kwargs)``.
        self._events = EventEngine()
        self._intervals: List[IntervalMetrics] = []
        # Transient bookkeeping.
        self._degrade_until: Dict[int, float] = {}
        self._corrupted_samples = 0.0
        self._slo_tripped = False
        self._rollout_started = False
        self._rollout_done = False
        self._patch_scheduled: set = set()
        self._last_shedding = False
        self._last_tick_s = 0.0
        self._handlers = {
            "fault_deadlock": self._on_deadlock,
            "fault_ecc_ue": self._on_ecc_ue,
            "fault_sdc": self._on_sdc,
            "fault_throttle": self._on_throttle,
            "degrade_end": self._on_degrade_end,
            "drain_decision": self._on_drain_decision,
            "reboot_start": self._on_reboot_start,
            "reboot_done": self._on_reboot_done,
            "metrics": self._on_metrics,
            "rollout_start": self._on_rollout_start,
            "rollout_wave": self._on_rollout_wave,
        }

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _push(self, time_s: float, kind: str, device_id: Optional[int] = None,
              **payload: float) -> None:
        self._events.schedule(time_s, (kind, device_id, payload))

    def _emit(self, time_s: float, kind: EventKind,
              device_id: Optional[int] = None, **detail: float) -> None:
        if self._obs.enabled:
            self._obs.counter("resilience.events." + kind.value).inc()
        self._log.append(
            Event(time_s=time_s, kind=kind, device_id=device_id, detail=detail)
        )

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------

    def run(self) -> ResilienceReport:
        """Execute the window and return the report."""
        config = self.config
        schedule = presample_fault_arrivals(
            self.rates, config.devices, config.duration_s, self._rng
        )
        # Pre-known populations are staged (fault arrivals, then metrics
        # ticks), taking their sequence numbers in this order; runtime
        # events go through ``_push``.
        events = self._events
        events.schedule_batch(
            (time_s, (f"fault_{family}", device_id, {}))
            for family, arrivals in schedule.items()
            for time_s, device_id in arrivals
        )
        # Metrics ticks: t=0 baseline, then every interval, then t=end.
        # ``k * interval`` rather than a running sum, which drifts.
        ticks = []
        k = 0
        while k * config.metrics_interval_s < config.duration_s:
            ticks.append((k * config.metrics_interval_s, ("metrics", None, {})))
            k += 1
        ticks.append((config.duration_s, ("metrics", None, {})))
        events.schedule_batch(ticks)

        while events:
            time_s, _, (kind, device_id, payload) = events.pop()
            if time_s > config.duration_s + 1e-9:
                break
            self._dispatch(time_s, kind, device_id, payload)

        unavailability = downed_device_minutes(self._devices, end_s=config.duration_s)
        baseline = min(
            config.offered_load, config.devices * config.device_throughput
        )
        return ResilienceReport(
            num_devices=config.devices,
            duration_s=config.duration_s,
            seed=config.seed,
            offered_samples_per_s=config.offered_load,
            baseline_goodput_samples_per_s=baseline,
            intervals=self._intervals,
            events=self._log,
            unavailability_device_minutes=unavailability,
        )

    def _dispatch(self, time_s: float, kind: str, device_id: Optional[int],
                  payload: dict) -> None:
        handler = self._handlers[kind]
        if device_id is None:
            handler(time_s, **payload)
        else:
            handler(time_s, self._devices[device_id], **payload)

    def _transition(self, device: Device, state: DeviceState,
                    time_s: float) -> None:
        """Move ``device`` to ``state`` (legality-checked, residency
        accrued) and update the live census."""
        old_state = device.state
        device.transition(state, time_s)
        self._census.moved(device, old_state)

    # ------------------------------------------------------------------
    # Fault handlers (arrivals on no-longer-susceptible devices are
    # dropped — Poisson thinning)
    # ------------------------------------------------------------------

    def _on_deadlock(self, time_s: float, device: Device) -> None:
        if not device.susceptible_to_deadlock:
            return
        self._transition(device, DeviceState.WEDGED, time_s)
        self._emit(time_s, EventKind.FAULT_DEADLOCK, device.device_id)
        drain = self.policies.drain
        if drain is not None:
            # The device fails every probe from now on; schedule the
            # consecutive failures leading to the drain decision.
            for failure in range(1, drain.failures_to_drain + 1):
                when = time_s + failure * drain.health_check_interval_s
                self._push(when, "drain_decision", device.device_id,
                           failure=float(failure))

    def _on_ecc_ue(self, time_s: float, device: Device) -> None:
        if not device.serving:
            return
        self._emit(time_s, EventKind.FAULT_ECC_UE, device.device_id)
        self._degrade(device, time_s, self.rates.ecc_degrade_duration_s)

    def _on_sdc(self, time_s: float, device: Device) -> None:
        if not device.serving:
            return
        poisoned = self.config.device_throughput * self.rates.sdc_blast_window_s
        self._corrupted_samples += poisoned
        self._emit(time_s, EventKind.FAULT_SDC, device.device_id,
                   poisoned_samples=poisoned)

    def _on_throttle(self, time_s: float, device: Device) -> None:
        if not device.serving:
            return
        self._emit(time_s, EventKind.FAULT_THROTTLE, device.device_id,
                   duration_s=self.rates.throttle_duration_s)
        self._degrade(device, time_s, self.rates.throttle_duration_s)

    def _degrade(self, device: Device, time_s: float, duration_s: float) -> None:
        until = time_s + duration_s
        self._degrade_until[device.device_id] = max(
            self._degrade_until.get(device.device_id, 0.0), until
        )
        if device.state == DeviceState.HEALTHY:
            self._transition(device, DeviceState.DEGRADED, time_s)
        self._push(until, "degrade_end", device.device_id)

    def _on_degrade_end(self, time_s: float, device: Device) -> None:
        if device.state != DeviceState.DEGRADED:
            return  # wedged, drained, or rebooted in the meantime
        if time_s + 1e-9 < self._degrade_until.get(device.device_id, 0.0):
            return  # a later episode extended the degradation
        self._transition(device, DeviceState.HEALTHY, time_s)
        self._emit(time_s, EventKind.DEGRADE_END, device.device_id)

    # ------------------------------------------------------------------
    # Drain / reboot lifecycle
    # ------------------------------------------------------------------

    def _on_drain_decision(self, time_s: float, device: Device,
                           failure: float) -> None:
        drain = self.policies.drain
        if drain is None or device.state != DeviceState.WEDGED:
            return  # recovered another way (e.g. a rollout power-cycle)
        if not device.health_check():
            self._emit(time_s, EventKind.HEALTH_CHECK_FAIL, device.device_id,
                       consecutive=float(device.consecutive_health_failures))
        if device.consecutive_health_failures >= drain.failures_to_drain:
            self._transition(device, DeviceState.DRAINING, time_s)
            self._emit(time_s, EventKind.DRAIN_START, device.device_id)
            self._push(time_s + drain.drain_grace_s, "reboot_start",
                       device.device_id)

    def _on_reboot_start(self, time_s: float, device: Device) -> None:
        drain = self.policies.drain
        if drain is None or device.state != DeviceState.DRAINING:
            return
        self._transition(device, DeviceState.REBOOTING, time_s)
        reboot_s = drain.sample_reboot_s(self._rng)
        self._obs.histogram("resilience.reboot_duration_s").observe(reboot_s)
        self._emit(time_s, EventKind.REBOOT_START, device.device_id,
                   reboot_s=reboot_s)
        self._push(time_s + reboot_s, "reboot_done", device.device_id,
                   patch=0.0)

    def _on_reboot_done(self, time_s: float, device: Device,
                        patch: float) -> None:
        if device.state != DeviceState.REBOOTING:
            return  # pragma: no cover - defensive; single reboot in flight
        self._transition(device, DeviceState.HEALTHY, time_s)
        self._degrade_until.pop(device.device_id, None)
        if patch:
            device.patched = True
            self._emit(time_s, EventKind.DEVICE_PATCHED, device.device_id)
        self._emit(time_s, EventKind.REBOOT_DONE, device.device_id)
        if (
            self._rollout_started
            and not self._rollout_done
            and all(d.patched for d in self._devices.values())
        ):
            self._rollout_done = True
            self._emit(time_s, EventKind.ROLLOUT_DONE)

    # ------------------------------------------------------------------
    # Metrics and the rollout trigger
    # ------------------------------------------------------------------

    def _on_metrics(self, time_s: float) -> None:
        # The last interval may be partial: average over what elapsed.
        elapsed_s = time_s - self._last_tick_s
        self._last_tick_s = time_s
        corrupted_per_s = (
            self._corrupted_samples / elapsed_s if elapsed_s > 0 else 0.0
        )
        self._corrupted_samples = 0.0
        metrics = evaluate_interval(
            now_s=time_s,
            census=self._census,
            offered_samples_per_s=self.config.offered_load,
            device_throughput=self.config.device_throughput,
            policies=self.policies,
            base_p50_s=self.config.base_p50_s,
            base_p99_s=self.config.base_p99_s,
            baseline_utilization=self.config.baseline_utilization,
            corrupted_samples_per_s=corrupted_per_s,
        )
        self._intervals.append(metrics)
        if self._obs.enabled:
            self._obs.gauge("resilience.goodput_fraction").set(
                metrics.goodput_fraction
            )
            self._obs.gauge("resilience.wedged_devices").set(metrics.wedged)
            self._obs.histogram("resilience.retry_amplification").observe(
                metrics.retry_amplification
            )
            self._obs.histogram("resilience.interval_p99_s").observe(
                metrics.p99_latency_s
            )
            self._obs.series("resilience.goodput_curve").append(
                time_s, metrics.goodput_fraction
            )
        if metrics.shed_fraction > 0 and not self._last_shedding:
            self._emit(time_s, EventKind.LOAD_SHED,
                       shed_fraction=metrics.shed_fraction)
        self._last_shedding = metrics.shed_fraction > 0
        if metrics.slo_at_risk and not self._slo_tripped:
            self._slo_tripped = True
            self._emit(time_s, EventKind.SLO_AT_RISK,
                       wedged=float(metrics.wedged),
                       utilization=min(metrics.utilization, 1e6))
            if self.policies.rollout is not None and not self._rollout_started:
                delay = self.policies.rollout.detection_delay_s
                self._emit(time_s, EventKind.ROLLOUT_TRIGGERED,
                           starts_in_s=delay)
                self._push(time_s + delay, "rollout_start")

    def _on_rollout_start(self, time_s: float) -> None:
        if self._rollout_started:
            return
        self._rollout_started = True
        self._push(time_s, "rollout_wave", wave_index=0.0)

    def _on_rollout_wave(self, time_s: float, wave_index: float) -> None:
        """One restart wave under the plan's concurrency cap.

        Waves self-schedule until every device is covered: a device
        mid-reboot (from a drain) when its wave fires is skipped and
        picked up by a later wave, so the rollout always completes.
        """
        plan = self.policies.rollout.resolved_plan()
        wave_size = plan.restart_wave_size(self.config.devices)
        remaining = [
            d for d in self._devices.values()
            if not d.patched and d.device_id not in self._patch_scheduled
        ]
        if not remaining:
            return
        candidates = [d for d in remaining if d.state != DeviceState.REBOOTING]
        candidates.sort(key=lambda d: (_WAVE_PRIORITY[d.state], d.device_id))
        wave = candidates[:wave_size]
        restart_s = plan.restart_minutes * 60.0
        for device in wave:
            self._transition(device, DeviceState.REBOOTING, time_s)
            self._patch_scheduled.add(device.device_id)
            self._emit(time_s, EventKind.REBOOT_START, device.device_id,
                       reboot_s=restart_s, rollout=1.0)
            self._push(time_s + restart_s, "reboot_done", device.device_id,
                       patch=1.0)
        if wave:
            self._emit(time_s, EventKind.ROLLOUT_WAVE,
                       wave_index=wave_index, devices=float(len(wave)))
        if len(wave) < len(remaining):
            self._push(time_s + restart_s, "rollout_wave",
                       wave_index=wave_index + 1.0)


def run_resilience(
    config: Optional[ResilienceConfig] = None,
    rates: Optional[FaultRates] = None,
    policies: Optional[ResiliencePolicies] = None,
    registry: Optional[MetricsRegistry] = None,
) -> ResilienceReport:
    """One-call entry point: simulate a pool and return the report."""
    return ResilienceSimulator(
        config or ResilienceConfig(), rates=rates, policies=policies,
        registry=registry,
    ).run()
