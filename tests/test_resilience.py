"""Tests for the fleet resilience simulator (section 5.5 closed loop)."""

import dataclasses
import hashlib
import json
import math
import pickle
from unittest import mock

import pytest

from repro.graph.ops import OpType
from repro.memory.hierarchy import Placement
from repro.reliability import deadlock_incidence, emergency_rollout, typical_rollout
from repro.resilience import (
    Device,
    DeviceState,
    Event,
    EventKind,
    EventLog,
    FaultRates,
    PoolCensus,
    ResilienceConfig,
    ResilienceSimulator,
    TransitionError,
    evaluate_interval,
    fault_rates_from_reliability,
    presample_fault_arrivals,
    run_resilience,
    run_section_55_drill,
    to_resilience_trace,
    write_resilience_trace,
)
from repro.resilience.metrics import HEDGE_AFTER_S, SHED_MAX_UTILIZATION
from repro.resilience.policies import sample_reboot_s
from repro.resilience import device as device_module
from repro.resilience import faults as faults_module
from repro.resilience import metrics as metrics_module
from repro.tensors.dtypes import DType
from repro.units import GHZ

import numpy as np


# ---------------------------------------------------------------------------
# Device lifecycle state machine
# ---------------------------------------------------------------------------


class TestDeviceLifecycle:
    def test_full_cycle(self):
        device = Device(device_id=0)
        device.transition(DeviceState.WEDGED, 10.0)
        device.transition(DeviceState.REBOOTING, 20.0)
        device.transition(DeviceState.HEALTHY, 620.0)
        device.finalize(1000.0)
        assert device.state == DeviceState.HEALTHY
        assert device.state_seconds[DeviceState.WEDGED] == pytest.approx(10.0)
        assert device.state_seconds[DeviceState.REBOOTING] == pytest.approx(600.0)
        # Downtime = wedged + rebooting.
        assert device.downtime_seconds() == pytest.approx(610.0)

    def test_illegal_transitions_raise(self):
        device = Device(device_id=0)
        with pytest.raises(TransitionError):
            device.transition(DeviceState.HEALTHY, 1.0)  # no self-loop
        device.transition(DeviceState.WEDGED, 1.0)
        with pytest.raises(TransitionError):
            device.transition(DeviceState.HEALTHY, 2.0)  # wedge needs a reboot
        with pytest.raises(TransitionError):
            device.transition(DeviceState.DEGRADED, 2.0)

    def test_rotation_vs_serving(self):
        device = Device(device_id=0)
        assert device.serving
        device.transition(DeviceState.WEDGED, 0.0)
        # The crux of section 5.5: silently dead, but the census still
        # counts it among the routed-to states until it is restarted.
        assert not device.serving
        assert device.throughput_scale == 0.0
        census = PoolCensus.of({0: device})
        assert census.counts[DeviceState.WEDGED] == 1
        census.transition(device, DeviceState.REBOOTING, 1.0)
        assert census.counts[DeviceState.WEDGED] == 0

    def test_degraded_scale(self):
        device = Device(device_id=0)
        device.transition(DeviceState.DEGRADED, 0.0)
        assert device.throughput_scale == device_module.DEGRADED_SCALE == 0.6
        assert device.serving

    def test_patched_immunity(self):
        device = Device(device_id=0)
        assert device.susceptible_to_deadlock
        device.patched = True
        assert not device.susceptible_to_deadlock

    def test_illegal_transition_through_simulator_raises(self):
        sim = ResilienceSimulator(
            ResilienceConfig(devices=3, offered_load=2000.0),
            fault_rates_from_reliability(), mitigated=True,
        )
        device = sim._devices[1]
        with pytest.raises(TransitionError):
            sim._transition(device, DeviceState.HEALTHY, 5.0)
        # Nothing moved: the device, its residency and the census.
        assert device.state is DeviceState.HEALTHY
        assert device.state_entered_s == 0.0
        assert sim._census == PoolCensus.of(sim._devices)
        sim._transition(device, DeviceState.WEDGED, 5.0)
        with pytest.raises(TransitionError):
            sim._transition(device, DeviceState.HEALTHY, 6.0)
        assert sim._census.counts[DeviceState.WEDGED] == 1

    def test_enum_members_survive_pickle(self):
        # The resilience enums and the executor tier's enums all hash by
        # identity; a pickled member must come back as the same object
        # and find its own dict entry.
        members = (
            list(DeviceState) + list(EventKind)
            + list(OpType) + list(DType) + list(Placement)
        )
        index = {member: i for i, member in enumerate(members)}
        for i, member in enumerate(members):
            assert type(member).__hash__ is object.__hash__
            clone = pickle.loads(pickle.dumps(member))
            assert clone is member
            assert index[clone] == i
        device = Device(device_id=4)
        device.transition(DeviceState.WEDGED, 3.0)
        device.finalize(10.0)
        clone = pickle.loads(pickle.dumps(device))
        assert clone.state is DeviceState.WEDGED
        assert clone.state_seconds[DeviceState.WEDGED] == 7.0
        assert clone.downtime_seconds() == 7.0


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------


class TestEventLog:
    def test_ordering_enforced(self):
        log = EventLog()
        log.append(Event(time_s=5.0, kind=EventKind.FAULT_DEADLOCK, device_id=1))
        with pytest.raises(ValueError):
            log.append(Event(time_s=1.0, kind=EventKind.REBOOT_DONE, device_id=1))

    def test_filters(self):
        log = EventLog()
        log.append(Event(time_s=1.0, kind=EventKind.FAULT_DEADLOCK, device_id=1))
        log.append(Event(time_s=2.0, kind=EventKind.FAULT_SDC, device_id=2))
        log.append(Event(time_s=3.0, kind=EventKind.FAULT_DEADLOCK, device_id=2))
        assert len(log.of_kind(EventKind.FAULT_DEADLOCK)) == 2
        assert log.first_of_kind(EventKind.FAULT_SDC).time_s == 2.0
        assert log.first_of_kind(EventKind.ROLLOUT_DONE) is None

    def test_jsonable_and_timeline(self):
        log = EventLog()
        log.append(Event(time_s=7200.0, kind=EventKind.SLO_AT_RISK,
                         detail={"wedged": 17.0}))
        plain = log.to_jsonable()
        assert plain == [{"time_s": 7200.0, "kind": "slo_at_risk",
                          "device_id": None, "detail": {"wedged": 17.0}}]
        assert "slo_at_risk" in log.timeline()
        assert "t=    2.00h" in log.timeline()

    def test_both_paths_reject_negative_and_out_of_order_times(self):
        log = EventLog()
        with pytest.raises(ValueError, match="non-negative"):
            log.record(-1.0, EventKind.FAULT_SDC, 0, {})
        with pytest.raises(ValueError, match="non-negative"):
            log.append(Event(time_s=-1.0, kind=EventKind.FAULT_SDC))
        log.record(5.0, EventKind.FAULT_DEADLOCK, 1, {})
        with pytest.raises(ValueError, match="time order"):
            log.record(1.0, EventKind.REBOOT_DONE, 1, {})
        with pytest.raises(ValueError, match="time order"):
            log.append(Event(time_s=1.0, kind=EventKind.REBOOT_DONE, device_id=1))
        log.append(Event(time_s=6.0, kind=EventKind.REBOOT_DONE, device_id=1))
        with pytest.raises(ValueError, match="time order"):
            log.record(5.5, EventKind.FAULT_SDC, 2, {})
        assert [e.time_s for e in log] == [5.0, 6.0]

    def test_row_built_events_equal_eager_ones(self):
        eager = [
            Event(time_s=1.0, kind=EventKind.FAULT_THROTTLE, device_id=3,
                  detail={"duration_s": 900.0}),
            Event(time_s=1.0, kind=EventKind.FAULT_DEADLOCK, device_id=1),
            Event(time_s=2.5, kind=EventKind.SLO_AT_RISK,
                  detail={"wedged": 2.0, "utilization": 0.9}),
            Event(time_s=4.0, kind=EventKind.FAULT_DEADLOCK, device_id=3),
        ]
        appended = EventLog()
        rows = EventLog()
        for event in eager[:2]:
            appended.append(event)
            rows.record(event.time_s, event.kind, event.device_id,
                        dict(event.detail))
        assert list(rows) == eager[:2]
        for event in eager[2:]:
            appended.append(event)
            rows.record(event.time_s, event.kind, event.device_id,
                        dict(event.detail))
        first = list(rows)
        assert first == eager and len(rows) == 4
        assert all(a is b for a, b in zip(first, rows))
        assert rows[2] is first[2] and rows[-1] == eager[-1]
        assert rows.to_jsonable() == appended.to_jsonable()
        assert rows.of_kind(EventKind.FAULT_DEADLOCK) == [eager[1], eager[3]]
        assert rows.of_kind(EventKind.FAULT_DEADLOCK, EventKind.SLO_AT_RISK) == (
            eager[1:]
        )
        assert rows.first_of_kind(EventKind.SLO_AT_RISK) is first[2]
        assert rows.first_of_kind(EventKind.ROLLOUT_DONE) is None
        assert rows.timeline() == appended.timeline()


# ---------------------------------------------------------------------------
# Fault rates from the reliability models
# ---------------------------------------------------------------------------


class TestFaultRates:
    def test_rates_from_reliability_models(self):
        rates = fault_rates_from_reliability()
        # The firmware model's incidence lands in the paper's ~0.1%/day band.
        assert 0.0005 < rates.deadlock_per_device_hour * 24 < 0.005
        assert rates.ecc_ue_per_device_hour > 0
        assert rates.sdc_per_device_hour > 0

    def test_mitigated_firmware_kills_deadlocks(self):
        assert deadlock_incidence(mitigated=True) == 0.0

    def test_design_frequency_has_no_sdc_tail(self):
        tail = faults_module.margin_shortfall_fraction(1.1 * GHZ)
        assert tail * faults_module.SDC_EVENTS_PER_MARGINAL_CHIP_HOUR < 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultRates(-1, 0, 0, 0)

    def test_presample_sorted_bounded_deterministic(self):
        rates = FaultRates(0.05, 0.01, 0.0, 0.02)
        first = presample_fault_arrivals(rates, 20, 3600.0, np.random.default_rng(4))
        again = presample_fault_arrivals(rates, 20, 3600.0, np.random.default_rng(4))
        assert first == again
        for family, arrivals in first.items():
            assert arrivals == sorted(arrivals)
            assert all(0 <= t < 3600.0 for t, _ in arrivals)
        assert first["sdc"] == []  # zero rate -> no arrivals


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------


class TestPolicies:
    def test_drain_reboot_mttr(self):
        rng = np.random.default_rng(1)
        samples = [sample_reboot_s(rng) for _ in range(2000)]
        assert np.mean(samples) == pytest.approx(600.0, rel=0.05)


class TestRolloutWaves:
    def test_waves_cover_fleet_under_cap(self):
        plan = emergency_rollout()
        waves = plan.restart_waves(300)
        assert sum(waves) == 300
        cap = plan.restart_wave_size(300)
        assert all(w <= cap for w in waves)
        assert waves[-1] <= cap

    def test_small_fleet_gets_single_device_waves(self):
        plan = typical_rollout()  # 2% concurrency
        assert plan.restart_wave_size(10) == 1
        assert plan.restart_waves(10) == [1] * 10

    def test_validation(self):
        with pytest.raises(ValueError):
            emergency_rollout().restart_waves(0)


# ---------------------------------------------------------------------------
# Interval arithmetic
# ---------------------------------------------------------------------------


_PATHS = {
    DeviceState.HEALTHY: (),
    DeviceState.DEGRADED: (DeviceState.DEGRADED,),
    DeviceState.WEDGED: (DeviceState.WEDGED,),
    DeviceState.REBOOTING: (DeviceState.WEDGED, DeviceState.REBOOTING),
}


def _pool(states):
    devices = {}
    for i, state in enumerate(states):
        device = Device(device_id=i)
        for step in _PATHS[state]:
            device.transition(step, 0.0)
        devices[i] = device
    return devices


class TestEvaluateInterval:
    def _metrics(self, states, mitigated, offered=8_000.0, **kwargs):
        defaults = dict(
            now_s=0.0,
            census=PoolCensus.of(_pool(states)),
            offered_samples_per_s=offered,
            device_throughput=1000.0,
            mitigated=mitigated,
            base_p50_s=0.02,
            base_p99_s=0.08,
            baseline_utilization=0.8,
        )
        defaults.update(kwargs)
        return evaluate_interval(**defaults)

    def test_healthy_pool(self):
        metrics = self._metrics([DeviceState.HEALTHY] * 10,
                                False)
        assert metrics.goodput_fraction == pytest.approx(1.0)
        assert metrics.retry_amplification == pytest.approx(1.0)
        assert metrics.failed_fraction == 0.0
        assert not metrics.slo_at_risk
        assert metrics.p99_latency_s == pytest.approx(0.08)

    def test_wedged_without_retry_loses_their_share(self):
        states = [DeviceState.HEALTHY] * 8 + [DeviceState.WEDGED] * 2
        metrics = self._metrics(states, False)
        assert metrics.failed_fraction == pytest.approx(0.2)
        assert metrics.goodput_fraction == pytest.approx(0.8)

    def test_retry_recovers_goodput_with_amplification(self):
        states = [DeviceState.HEALTHY] * 8 + [DeviceState.WEDGED] * 2
        # 6k offered leaves headroom on the 8 survivors for the retried
        # and hedged load.
        metrics = self._metrics(states, True, offered=6_000.0)
        # Three attempts, then the hedge's independent second replica.
        assert metrics.failed_fraction == pytest.approx(0.2**4)
        assert metrics.goodput_fraction > 0.99
        hedge_extra = 0.2 + 0.01 * 0.8
        assert metrics.retry_amplification == pytest.approx(
            1 + 0.2 + 0.04 + hedge_extra
        )
        # The hedged tail pushes P99 past the hedge budget.
        assert metrics.p99_latency_s > HEDGE_AFTER_S

    def test_retry_amplification_can_overload_survivors(self):
        # At exactly-full surviving capacity the retried load overflows:
        # goodput dips below the no-retry wedge share would suggest.
        states = [DeviceState.HEALTHY] * 8 + [DeviceState.WEDGED] * 2
        metrics = self._metrics(states, True, offered=8_000.0)
        assert metrics.utilization >= 0.95
        assert metrics.goodput_fraction < 1.0
        assert metrics.slo_at_risk

    def test_load_shedding_caps_utilization(self):
        # 8k offered onto 4 healthy devices = 2x overload.
        states = [DeviceState.HEALTHY] * 4 + [DeviceState.REBOOTING] * 6
        metrics = self._metrics(states, True)
        assert metrics.shed_fraction > 0.5
        assert metrics.utilization == SHED_MAX_UTILIZATION
        assert metrics.slo_at_risk

    def test_overload_without_shedding_drops_excess(self):
        states = [DeviceState.HEALTHY] * 4 + [DeviceState.REBOOTING] * 6
        metrics = self._metrics(states, False)
        assert metrics.shed_fraction == 0.0
        assert metrics.goodput_samples_per_s == pytest.approx(4000.0)

    def test_all_devices_down(self):
        states = [DeviceState.REBOOTING] * 4
        metrics = self._metrics(states, False)
        assert metrics.goodput_samples_per_s == 0.0
        assert metrics.slo_at_risk

    def test_degraded_devices_reduce_capacity(self):
        healthy = self._metrics([DeviceState.HEALTHY] * 10,
                                False)
        degraded = self._metrics(
            [DeviceState.HEALTHY] * 5 + [DeviceState.DEGRADED] * 5,
            False,
        )
        assert degraded.capacity_samples_per_s < healthy.capacity_samples_per_s
        assert degraded.utilization > healthy.utilization


# ---------------------------------------------------------------------------
# The full simulator: the acceptance arc
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def drill():
    """One shared section 5.5 drill (both arms, default paper-rate knobs)."""
    return run_section_55_drill(seed=0)


class TestSection55Arc:
    def test_baseline_goodput_degrades_monotonically(self, drill):
        series = drill.baseline.goodput_series
        assert series[0] == pytest.approx(1.0)
        # Monotone within a tiny tolerance (SDC blips are ~1e-4).
        assert all(b <= a + 1e-3 for a, b in zip(series, series[1:]))
        assert drill.baseline.final_goodput_fraction < 0.95

    def test_baseline_slo_trips_within_window(self, drill):
        trip = drill.baseline.first_slo_trip_s
        assert trip is not None
        assert trip < drill.config.duration_s
        assert drill.baseline.events.first_of_kind(EventKind.SLO_AT_RISK) is not None

    def test_mitigated_recovers_to_99_percent(self, drill):
        assert drill.recovered
        assert drill.mitigated.final_goodput_fraction >= 0.99

    def test_rollout_honors_concurrency_and_completes(self, drill):
        events = drill.mitigated.events
        assert events.first_of_kind(EventKind.ROLLOUT_TRIGGERED) is not None
        done = events.first_of_kind(EventKind.ROLLOUT_DONE)
        assert done is not None
        plan = emergency_rollout()
        cap = plan.restart_wave_size(drill.config.devices)
        waves = events.of_kind(EventKind.ROLLOUT_WAVE)
        assert waves and all(e.detail["devices"] <= cap for e in waves)
        # Every device got patched.
        assert len(events.of_kind(EventKind.DEVICE_PATCHED)) == drill.config.devices
        # Wall time in the emergency-rollout ballpark (paper: ~3 h).
        trigger = events.first_of_kind(EventKind.ROLLOUT_TRIGGERED)
        assert (done.time_s - trigger.time_s) / 3600.0 < 6.0

    def test_no_deadlocks_after_fleet_patched(self, drill):
        done = drill.mitigated.events.first_of_kind(EventKind.ROLLOUT_DONE)
        late = [
            e for e in drill.mitigated.events.of_kind(EventKind.FAULT_DEADLOCK)
            if e.time_s > done.time_s
        ]
        assert late == []

    def test_retry_amplification_visible_before_rollout(self, drill):
        assert drill.mitigated.peak_retry_amplification > 1.01

    def test_mitigation_cuts_unavailability(self, drill):
        assert (
            drill.mitigated.unavailability_device_minutes
            < 0.5 * drill.baseline.unavailability_device_minutes
        )

    def test_same_seed_identical_event_logs(self, drill):
        again = run_section_55_drill(seed=0)
        assert (
            again.baseline.events.to_jsonable()
            == drill.baseline.events.to_jsonable()
        )
        assert (
            again.mitigated.events.to_jsonable()
            == drill.mitigated.events.to_jsonable()
        )

    def test_event_logs_match_pinned_digest(self, drill):
        # Pins the exact seed-0 event order of both arms, so a change to
        # the event engine underneath cannot reorder events unnoticed
        # (the same-seed test above only compares a run with itself).
        logs = [
            drill.baseline.events.to_jsonable(),
            drill.mitigated.events.to_jsonable(),
        ]
        digest = hashlib.sha256(
            json.dumps(logs, sort_keys=True).encode()
        ).hexdigest()
        assert digest == (
            "02d421d965858e28a60eb7334e4cc6ee0ad3755d818165d623aacd43fa9753c3"
        )

    def test_interval_series_match_pinned_digest(self, drill):
        # The event-log digest sees the metrics only through LOAD_SHED and
        # SLO_AT_RISK details; this pins every interval of both seed-0
        # arms, each as a field tuple with floats in repr.
        series = [
            [dataclasses.astuple(m) for m in arm.intervals]
            for arm in (drill.baseline, drill.mitigated)
        ]
        digest = hashlib.sha256(repr(series).encode()).hexdigest()
        assert digest == (
            "6616ceebc1454f97077fc7acf81fca07eab475592ca62d8a9a1cf9ff04dac462"
        )

    def test_intervals_hold_under_compensated_sum(self, drill):
        # Python 3.12's builtin ``sum`` is compensated; shadowing it with
        # ``math.fsum`` in the modules that compute intervals and
        # downtime shows any float sum left to it on every interpreter.
        with mock.patch.object(metrics_module, "sum", math.fsum, create=True), \
                mock.patch.object(device_module, "sum", math.fsum, create=True):
            again = run_section_55_drill(seed=0)
        def digest(report):
            series = [dataclasses.astuple(m) for m in report.intervals]
            return hashlib.sha256(repr(series).encode()).hexdigest()

        for arm, base in ((again.baseline, drill.baseline),
                          (again.mitigated, drill.mitigated)):
            assert digest(arm) == digest(base)
            assert (arm.unavailability_device_minutes.hex()
                    == base.unavailability_device_minutes.hex())

    def test_different_seed_different_schedule(self, drill):
        other = run_section_55_drill(seed=1, duration_days=30)
        assert (
            other.baseline.events.to_jsonable()
            != drill.baseline.events.to_jsonable()
        )

    def test_summary_mentions_the_arc(self, drill):
        text = drill.summary()
        assert "slo_at_risk" in text
        assert "rollout" in text
        assert "recovered" in text


class TestThrottleEpisodes:
    """Power-cap throttle episodes degrade devices and end on time."""

    def test_throttle_episodes_recover(self):
        rates = FaultRates(0.0, 0.0, 0.0, 0.2)
        config = ResilienceConfig(
            devices=20, offered_load=12_000.0, duration_s=6 * 3600.0, seed=2,
        )
        report = run_resilience(config, rates, mitigated=True)
        throttles = report.events.of_kind(EventKind.FAULT_THROTTLE)
        ends = report.events.of_kind(EventKind.DEGRADE_END)
        assert throttles
        assert ends, "throttled devices must come back"
        # No device may end the window still degraded forever.
        assert report.intervals[-1].degraded <= len(throttles)


# ---------------------------------------------------------------------------
# Trace export
# ---------------------------------------------------------------------------


class TestResilienceTrace:
    def _report(self):
        rates = FaultRates(0.05, 0.0, 0.01, 0.05)
        config = ResilienceConfig(
            devices=12, offered_load=8_000.0, duration_s=6 * 3600.0, seed=5,
        )
        return run_resilience(config, rates, mitigated=True)

    def test_trace_structure(self):
        report = self._report()
        doc = to_resilience_trace(report)
        phases = {e["ph"] for e in doc["traceEvents"]}
        assert {"M", "C"} <= phases
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans and all(e["dur"] >= 0 for e in spans)
        assert doc["otherData"]["devices"] == 12
        counters = {e["name"] for e in doc["traceEvents"] if e["ph"] == "C"}
        assert {"goodput_fraction", "wedged_devices", "p99_latency_ms"} <= counters

    def test_trace_written_to_disk(self, tmp_path):
        report = self._report()
        path = tmp_path / "resilience.json"
        write_resilience_trace(report, str(path))
        doc = json.loads(path.read_text())
        assert "traceEvents" in doc


# ---------------------------------------------------------------------------
# Config validation and the scenario helper
# ---------------------------------------------------------------------------


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(devices=0)
        with pytest.raises(ValueError):
            ResilienceConfig(duration_s=0)
        with pytest.raises(ValueError):
            run_section_55_drill(utilization=1.5)

    def test_baseline_utilization(self):
        config = ResilienceConfig(devices=10, offered_load=8_500.0)
        assert config.baseline_utilization == pytest.approx(0.85)


class TestMetricsTicks:
    _NO_FAULTS = FaultRates(
        deadlock_per_device_hour=0.0,
        ecc_ue_per_device_hour=0.0,
        sdc_per_device_hour=0.0,
        throttle_per_device_hour=0.0,
    )

    def test_ticks_do_not_drift(self, monkeypatch):
        import repro.resilience.simulator as simulator_module

        # A running sum of 0.1 s steps reaches 0.9999999999999999 and
        # then adds a duplicate tick at 1.0.
        monkeypatch.setattr(simulator_module, "METRICS_INTERVAL_S", 0.1)
        config = ResilienceConfig(devices=4, offered_load=3000.0,
                                  duration_s=1.0)
        report = run_resilience(config, rates=self._NO_FAULTS,
                                mitigated=False)
        times = [m.time_s for m in report.intervals]
        assert len(times) == 11
        assert all(a < b for a, b in zip(times, times[1:]))
        assert times[-1] == config.duration_s

    def test_partial_last_interval_averages_over_its_length(self, monkeypatch):
        import repro.resilience.simulator as simulator_module

        # One SDC lands inside the final 60 s of a 7 h 60 s window.
        forced = [(7 * 3600.0 + 30.0, 0)]
        monkeypatch.setattr(
            simulator_module, "presample_fault_arrivals",
            lambda rates, devices, duration_s, rng: {"sdc": forced},
        )
        config = ResilienceConfig(devices=4, offered_load=3000.0,
                                  duration_s=7 * 3600.0 + 60.0)
        report = run_resilience(config, rates=self._NO_FAULTS,
                                mitigated=False)
        last = report.intervals[-1]
        assert last.time_s == config.duration_s
        poisoned = (simulator_module.DEVICE_THROUGHPUT
                    * self._NO_FAULTS.sdc_blast_window_s)
        assert last.corrupted_samples_per_s == poisoned / 60.0
        assert all(m.corrupted_samples_per_s == 0.0
                   for m in report.intervals[:-1])
