"""The seeded discrete-event fleet resilience simulator.

Composes the pieces the rest of the repo computes statically into one
closed loop over simulated time:

* fault arrivals drawn from the section 5 reliability models
  (:mod:`repro.resilience.faults`);
* a per-device lifecycle state machine
  (:mod:`repro.resilience.device`);
* serving-tier recovery policies — retry, hedging, load shedding
  (:func:`repro.resilience.metrics.evaluate_interval`), on in the
  mitigated arm and off in the other;
* the emergency firmware rollout of
  :func:`repro.reliability.firmware.emergency_rollout`, executed wave by
  wave under its restart-concurrency limit when the pool's
  ``slo_at_risk`` signal (from :mod:`repro.serving.faults`) trips.

The engine is :class:`repro.fastsim.engine.EventEngine`, the shared
event queue, keyed on ``(time, sequence)``; all
randomness flows from one seeded generator consumed in a fixed order, so
two runs with the same seed produce identical event logs — byte for
byte — which the acceptance tests assert.

Each queued event carries its bound handler, the :class:`Device` it
concerns (``None`` for pool-level events) and a tuple of positional
arguments, so the run loop calls the handler directly.  Every lifecycle
change (wedge, degrade, degrade-end, rollout restart, reboot-done) goes
through one ``_transition`` step that checks legality, accrues
residency and keeps a
:class:`~repro.resilience.device.PoolCensus` live; the hourly metrics
tick reads that census instead of rescanning the pool.  Ticks fall at
``k * METRICS_INTERVAL_S`` plus the window's end, and a final partial
interval averages its corrupted samples over the time it covers.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.fastsim.engine import EventEngine
from repro.resilience.device import (
    Device,
    DeviceState,
    PoolCensus,
    downed_device_minutes,
)
from repro.resilience.events import EventKind, EventLog
from repro.resilience.faults import (
    ECC_DEGRADE_DURATION_S,
    THROTTLE_DURATION_S,
    FaultRates,
    presample_fault_arrivals,
)
from repro.obs.metrics import MetricsRegistry, active
from repro.resilience.metrics import (
    IntervalMetrics,
    ResilienceReport,
    evaluate_interval,
)
from repro.reliability.firmware import emergency_rollout

# Rollout-wave restart priority: cure the worst devices first.
_WAVE_PRIORITY = {
    DeviceState.WEDGED: 0,
    DeviceState.DEGRADED: 1,
    DeviceState.HEALTHY: 2,
}
# Wall time between the slo_at_risk trip and the mitigated arm's first
# rollout wave (paging, triage, build pinning).
ROLLOUT_DETECTION_DELAY_S = 1800.0
# Samples/s per healthy device, and the fault-free request latency at
# baseline utilization.
DEVICE_THROUGHPUT = 1000.0
BASE_P50_S = 0.020
BASE_P99_S = 0.080
# Seconds between metrics ticks.
METRICS_INTERVAL_S = 3600.0


@dataclasses.dataclass(frozen=True)
class ResilienceConfig:
    """One resilience run's pool, load, and window."""

    devices: int = 300
    offered_load: float = 255_000.0  # samples/s (85% of 300 devices)
    duration_s: float = 90 * 86_400.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.devices <= 0:
            raise ValueError("pool must have capacity")
        if self.offered_load < 0:
            raise ValueError("load must be non-negative")
        if self.duration_s <= 0:
            raise ValueError("window must be positive")

    @property
    def baseline_utilization(self) -> float:
        """Offered load over the fault-free pool capacity."""
        return self.offered_load / (self.devices * DEVICE_THROUGHPUT)


class ResilienceSimulator:
    """Seeded DES over one serving pool.

    ``mitigated`` arms the serving tier's retry, hedge and shed policies
    and the emergency firmware rollout; without it nothing fights back.
    """

    def __init__(
        self,
        config: ResilienceConfig,
        rates: FaultRates,
        mitigated: bool,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        self.config = config
        self.rates = rates
        self.mitigated = mitigated
        # Observability only: the registry never touches the RNG or the
        # event heap, so seeded runs are byte-identical with or without
        # it (pinned by the trace-hash regression test).
        self._obs = active(registry)
        self._rng = np.random.default_rng(config.seed)
        self._devices: Dict[int, Device] = {
            i: Device(device_id=i)
            for i in range(config.devices)
        }
        # Every lifecycle change goes through _transition, which keeps
        # this census live for the metrics ticks; it is the census's own
        # one-call transition step.
        self._census = PoolCensus.of(self._devices)
        self._transition = self._census.transition
        self._log = EventLog()
        # Payloads are ``(handler, device_or_None, args)``; the run loop
        # calls ``handler(time_s, device, *args)``.
        self._events = EventEngine()
        self._intervals: List[IntervalMetrics] = []
        # Transient bookkeeping.
        self._degrade_until: Dict[int, float] = {}
        self._corrupted_samples = 0.0
        self._slo_tripped = False
        self._rollout_started = False
        self._rollout_done = False
        self._patch_scheduled: set = set()
        # Kept where ``patched`` flips, so the rollout-done check is O(1).
        self._unpatched = sum(not d.patched for d in self._devices.values())
        self._last_shedding = False
        self._last_tick_s = 0.0

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _push(self, time_s: float, handler: Callable[..., None],
              device: Optional[Device] = None, *args: object) -> None:
        self._events.schedule(time_s, (handler, device, args))

    def _emit(self, time_s: float, kind: EventKind,
              device_id: Optional[int] = None, **detail: float) -> None:
        if self._obs.enabled:
            self._obs.counter("resilience.events." + kind.value).inc()
        self._log.record(time_s, kind, device_id, detail)

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
        devices = self._devices
        on_fault = {
            "deadlock": self._on_deadlock,
            "ecc_ue": self._on_ecc_ue,
            "sdc": self._on_sdc,
            "throttle": self._on_throttle,
        }
        events.schedule_batch(
            (time_s, (on_fault[family], devices[device_id], ()))
            for family, arrivals in schedule.items()
            for time_s, device_id in arrivals
        )
        # Metrics ticks: t=0 baseline, then every interval, then t=end.
        # ``k * interval`` rather than a running sum, which drifts.
        tick = (self._on_metrics, None, ())
        ticks = []
        k = 0
        while k * METRICS_INTERVAL_S < config.duration_s:
            ticks.append((k * METRICS_INTERVAL_S, tick))
            k += 1
        ticks.append((config.duration_s, tick))
        events.schedule_batch(ticks)

        end_s = config.duration_s + 1e-9
        pop = events.pop
        while events:
            time_s, _, (handler, device, args) = pop()
            if time_s > end_s:
                break
            handler(time_s, device, *args)

        unavailability = downed_device_minutes(self._devices, end_s=config.duration_s)
        baseline = min(
            config.offered_load, config.devices * DEVICE_THROUGHPUT
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

    # ------------------------------------------------------------------
    # Fault handlers (arrivals on no-longer-susceptible devices are
    # dropped — Poisson thinning)
    # ------------------------------------------------------------------

    def _on_deadlock(self, time_s: float, device: Device) -> None:
        if not device.susceptible_to_deadlock:
            return
        self._transition(device, DeviceState.WEDGED, time_s)
        self._emit(time_s, EventKind.FAULT_DEADLOCK, device.device_id)

    def _on_ecc_ue(self, time_s: float, device: Device) -> None:
        if not device.serving:
            return
        self._emit(time_s, EventKind.FAULT_ECC_UE, device.device_id)
        self._degrade(device, time_s, ECC_DEGRADE_DURATION_S)

    def _on_sdc(self, time_s: float, device: Device) -> None:
        if not device.serving:
            return
        poisoned = DEVICE_THROUGHPUT * self.rates.sdc_blast_window_s
        self._corrupted_samples += poisoned
        self._emit(time_s, EventKind.FAULT_SDC, device.device_id,
                   poisoned_samples=poisoned)

    def _on_throttle(self, time_s: float, device: Device) -> None:
        if not device.serving:
            return
        self._emit(time_s, EventKind.FAULT_THROTTLE, device.device_id,
                   duration_s=THROTTLE_DURATION_S)
        self._degrade(device, time_s, THROTTLE_DURATION_S)

    def _degrade(self, device: Device, time_s: float, duration_s: float) -> None:
        until = time_s + duration_s
        self._degrade_until[device.device_id] = max(
            self._degrade_until.get(device.device_id, 0.0), until
        )
        if device.state == DeviceState.HEALTHY:
            self._transition(device, DeviceState.DEGRADED, time_s)
        self._push(until, self._on_degrade_end, device)

    def _on_degrade_end(self, time_s: float, device: Device) -> None:
        if device.state != DeviceState.DEGRADED:
            return  # wedged or rebooted in the meantime
        if time_s + 1e-9 < self._degrade_until.get(device.device_id, 0.0):
            return  # a later episode extended the degradation
        self._transition(device, DeviceState.HEALTHY, time_s)
        self._emit(time_s, EventKind.DEGRADE_END, device.device_id)

    # ------------------------------------------------------------------
    # Reboot completion
    # ------------------------------------------------------------------

    def _on_reboot_done(self, time_s: float, device: Device) -> None:
        if device.state != DeviceState.REBOOTING:
            return  # pragma: no cover - defensive; single reboot in flight
        self._transition(device, DeviceState.HEALTHY, time_s)
        self._degrade_until.pop(device.device_id, None)
        if not device.patched:
            device.patched = True
            self._unpatched -= 1
        self._emit(time_s, EventKind.DEVICE_PATCHED, device.device_id)
        self._emit(time_s, EventKind.REBOOT_DONE, device.device_id)
        if (
            self._rollout_started
            and not self._rollout_done
            and not self._unpatched
        ):
            self._rollout_done = True
            self._emit(time_s, EventKind.ROLLOUT_DONE)

    # ------------------------------------------------------------------
    # Metrics and the rollout trigger
    # ------------------------------------------------------------------

    def _on_metrics(self, time_s: float, _device: None) -> None:
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
            device_throughput=DEVICE_THROUGHPUT,
            mitigated=self.mitigated,
            base_p50_s=BASE_P50_S,
            base_p99_s=BASE_P99_S,
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
            if self.mitigated and not self._rollout_started:
                delay = ROLLOUT_DETECTION_DELAY_S
                self._emit(time_s, EventKind.ROLLOUT_TRIGGERED,
                           starts_in_s=delay)
                self._push(time_s + delay, self._on_rollout_start)

    def _on_rollout_start(self, time_s: float, _device: None) -> None:
        if self._rollout_started:
            return
        self._rollout_started = True
        self._push(time_s, self._on_rollout_wave, None, 0.0)

    def _on_rollout_wave(self, time_s: float, _device: None,
                         wave_index: float) -> None:
        """One restart wave under the plan's concurrency cap.

        Waves self-schedule until every device is covered, so the
        rollout always completes.  Only a wave restarts a device, so no
        device still waiting for its wave is mid-reboot.
        """
        plan = emergency_rollout()
        wave_size = plan.restart_wave_size(self.config.devices)
        remaining = [
            d for d in self._devices.values()
            if not d.patched and d.device_id not in self._patch_scheduled
        ]
        if not remaining:
            return
        remaining.sort(key=lambda d: (_WAVE_PRIORITY[d.state], d.device_id))
        wave = remaining[:wave_size]
        restart_s = plan.restart_minutes * 60.0
        for device in wave:
            self._transition(device, DeviceState.REBOOTING, time_s)
            self._patch_scheduled.add(device.device_id)
            self._emit(time_s, EventKind.REBOOT_START, device.device_id,
                       reboot_s=restart_s, rollout=1.0)
            self._push(time_s + restart_s, self._on_reboot_done, device)
        if wave:
            self._emit(time_s, EventKind.ROLLOUT_WAVE,
                       wave_index=wave_index, devices=float(len(wave)))
        if len(wave) < len(remaining):
            self._push(time_s + restart_s, self._on_rollout_wave, None,
                       wave_index + 1.0)


def run_resilience(
    config: ResilienceConfig,
    rates: FaultRates,
    mitigated: bool,
    registry: Optional[MetricsRegistry] = None,
) -> ResilienceReport:
    """One-call entry point: simulate a pool and return the report."""
    return ResilienceSimulator(config, rates, mitigated, registry).run()
