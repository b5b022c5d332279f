"""Differential test: the live pool census versus a full rescan.

``ResilienceSimulator`` keeps a :class:`PoolCensus` live by routing
every lifecycle change through ``_transition``, and each metrics tick
reads that census.  The oracle is the per-tick scan it replaced, kept
here (``scan_evaluate_interval``): after every dispatched event the
live census must equal ``PoolCensus.of(devices)`` with a
``live_scale`` bit-equal to the scan's sum, and every interval the
simulator records must equal the scan's, field by field.  Events carry
bound handlers, so the tests wrap every ``_on_*`` handler of the
simulator instance before the run.

Windows are short and fault rates inflated, so wedges, degrades,
degrade-ends, rollout waves and reboots all occur; degraded
scales are non-dyadic, so a different summation order shows up as a
different float.  The degraded scale, the metrics interval and the
transient-fault durations are module constants of the program; the
tests patch them per example to reach values the program never runs.  Python 3.11's builtin ``sum`` is itself a plain
left-to-right loop, so the tests shadow ``sum`` in the device and
metrics modules with ``math.fsum`` to stand in for the compensated sum
of Python 3.12+ on every interpreter; the oracle's own sums are
explicit loops.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
from typing import Dict
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.resilience import device as device_module
from repro.resilience import metrics as metrics_module
from repro.resilience import simulator as simulator_module
from repro.resilience import (
    Device,
    DeviceState,
    FaultRates,
    IntervalMetrics,
    PoolCensus,
    ResilienceConfig,
    ResilienceSimulator,
)
from repro.resilience.metrics import (
    _DELAY_CAP_UTILIZATION,
    FALSE_HEDGE_FRACTION,
    HEDGE_AFTER_S,
    MAX_ATTEMPTS,
    SHED_MAX_UTILIZATION,
)
from repro.serving.faults import FaultImpact, PoolState, queueing_delay_factor


# The states the router still targets: a WEDGED device has not been
# noticed yet, so requests keep landing on it.
ROTATION = (DeviceState.HEALTHY, DeviceState.DEGRADED, DeviceState.WEDGED)


def scan_live_scale(devices: Dict[int, Device]) -> float:
    """The retired scan's rotation-capacity sum."""
    live_scale = 0.0
    for device in devices.values():
        if device.state in ROTATION:
            live_scale += device.throughput_scale
    return live_scale


def scan_evaluate_interval(
    now_s: float,
    devices: Dict[int, Device],
    offered_samples_per_s: float,
    device_throughput: float,
    mitigated: bool,
    base_p50_s: float,
    base_p99_s: float,
    baseline_utilization: float,
    corrupted_samples_per_s: float = 0.0,
) -> IntervalMetrics:
    """Convert the pool's device states into one metrics sample."""
    census = {state: 0 for state in DeviceState}
    live_scale = 0.0
    for device in devices.values():
        census[device.state] += 1
        if device.state in ROTATION:
            live_scale += device.throughput_scale
    rotation = (
        census[DeviceState.HEALTHY]
        + census[DeviceState.DEGRADED]
        + census[DeviceState.WEDGED]
    )
    live_capacity = live_scale * device_throughput
    p_bad = census[DeviceState.WEDGED] / rotation if rotation else 1.0

    # --- Retry chain: attempts and terminal failures -------------------
    max_attempts = MAX_ATTEMPTS if mitigated else 1
    # Each attempt independently lands on a wedged replica w.p. p_bad
    # (routers that exclude the failed instance do slightly better; this
    # is the conservative bound).
    retry_amplification = 0.0
    for k in range(max_attempts):
        retry_amplification += p_bad**k
    failed_fraction = p_bad**max_attempts
    if mitigated:
        # A hedge fires for every wedged-routed first attempt plus the
        # healthy tail that trips the budget anyway.
        hedge_extra = p_bad + FALSE_HEDGE_FRACTION * (1.0 - p_bad)
        retry_amplification += hedge_extra
        # The hedge gives the request a second, independent replica.
        failed_fraction *= p_bad
    else:
        hedge_extra = 0.0

    # --- Load and shedding on the live devices -------------------------
    # Attempts that hit wedged replicas consume no live capacity; the
    # live demand is the admitted load plus hedge duplicates.
    live_demand = offered_samples_per_s * (1.0 + hedge_extra)
    shed_fraction = 0.0
    if live_capacity <= 0:
        utilization = math.inf
        admitted = 0.0
        served_fraction = 0.0
    else:
        utilization = live_demand / live_capacity
        if mitigated and utilization > SHED_MAX_UTILIZATION:
            shed_fraction = 1.0 - (
                SHED_MAX_UTILIZATION * live_capacity / live_demand
            )
            utilization = SHED_MAX_UTILIZATION
        admitted = offered_samples_per_s * (1.0 - shed_fraction)
        # Without shedding an overloaded pool drops what it cannot queue.
        served_fraction = min(1.0, 1.0 / utilization) if utilization > 1 else 1.0
    goodput = admitted * (1.0 - failed_fraction) * served_fraction
    goodput = max(0.0, goodput - corrupted_samples_per_s)

    # --- Latency with retries ------------------------------------------
    capped = min(utilization, _DELAY_CAP_UTILIZATION)
    base_factor = queueing_delay_factor(min(baseline_utilization, _DELAY_CAP_UTILIZATION))
    delay_ratio = queueing_delay_factor(capped) / base_factor
    p50 = base_p50_s * delay_ratio
    p99 = base_p99_s * delay_ratio
    # When >=1% of requests need a second attempt, the 99th percentile
    # includes the hedge budget.
    if mitigated and p_bad >= 0.01:
        p99 = HEDGE_AFTER_S + p99

    # --- SLO verdict via the serving-tier machinery --------------------
    total = len(devices)
    effective_devices = max(1, int(round(live_capacity / device_throughput)))
    impact = FaultImpact(
        before=PoolState(
            devices=total,
            device_throughput=device_throughput,
            offered_load=offered_samples_per_s,
        ),
        after=PoolState(
            devices=effective_devices,
            device_throughput=device_throughput,
            offered_load=offered_samples_per_s,
        ),
        fault_rate=(total - effective_devices) / total if total else 0.0,
    )

    return IntervalMetrics(
        time_s=now_s,
        healthy=census[DeviceState.HEALTHY],
        degraded=census[DeviceState.DEGRADED],
        wedged=census[DeviceState.WEDGED],
        draining=0,
        rebooting=census[DeviceState.REBOOTING],
        capacity_samples_per_s=live_capacity,
        offered_samples_per_s=offered_samples_per_s,
        admitted_samples_per_s=admitted,
        goodput_samples_per_s=goodput,
        corrupted_samples_per_s=corrupted_samples_per_s,
        shed_fraction=shed_fraction,
        failed_fraction=failed_fraction,
        retry_amplification=retry_amplification,
        utilization=utilization,
        p50_latency_s=p50,
        p99_latency_s=p99,
        slo_at_risk=impact.slo_at_risk,
    )


@contextlib.contextmanager
def compensated_builtin_sum():
    """Make a builtin ``sum`` in the device and metrics modules round
    like 3.12+ (neither calls one today)."""
    with mock.patch.object(device_module, "sum", math.fsum, create=True), \
            mock.patch.object(metrics_module, "sum", math.fsum, create=True):
        yield


_rates = st.builds(
    FaultRates,
    deadlock_per_device_hour=st.sampled_from([0.0, 0.02, 0.1, 0.3]),
    ecc_ue_per_device_hour=st.sampled_from([0.0, 0.05, 0.2]),
    sdc_per_device_hour=st.sampled_from([0.0, 0.1]),
    throttle_per_device_hour=st.sampled_from([0.0, 0.2, 0.5]),
)


def _config(devices, utilization, duration_s, seed):
    return ResilienceConfig(
        devices=devices,
        offered_load=devices * 1000.0 * utilization,
        duration_s=duration_s,
        seed=seed,
    )


_configs = st.builds(
    _config,
    devices=st.integers(min_value=1, max_value=40),
    utilization=st.sampled_from([0.5, 0.85, 0.95]),
    duration_s=st.sampled_from([6 * 3600.0, 12 * 3600.0 + 60.0, 24 * 3600.0]),
    seed=st.integers(min_value=0, max_value=3),
)

# Module constants to patch for one run: the simulator's metrics
# interval and transient-fault durations, and the device's degraded
# scale.
_constants = st.fixed_dictionaries({
    "METRICS_INTERVAL_S": st.sampled_from([600.0, 1800.0, 3600.0]),
    "THROTTLE_DURATION_S": st.sampled_from([300.0, 900.0, 1800.0]),
    "ECC_DEGRADE_DURATION_S": st.sampled_from([120.0, 600.0]),
    "DEGRADED_SCALE": st.sampled_from([0.6, 0.3, 0.7, 0.45, 1.0]),
})


@contextlib.contextmanager
def module_constants(constants):
    """Run with the simulator's and the device's constants patched."""
    with contextlib.ExitStack() as stack:
        for name, value in constants.items():
            module = device_module if name == "DEGRADED_SCALE" else simulator_module
            stack.enter_context(mock.patch.object(module, name, value))
        yield


def run_checked(config, rates, mitigated):
    """Run one simulation, checking the census after every event.

    Returns the report and the set of ``(old, new)`` transitions seen.
    """
    sim = ResilienceSimulator(config, rates, mitigated)
    transition = sim._transition
    seen = set()
    ticks_checked = []

    def checked_transition(device, state, time_s):
        seen.add((device.state, state))
        transition(device, state, time_s)

    def check_after(time_s, is_tick):
        live = sim._census
        assert live == PoolCensus.of(sim._devices)
        oracle_scale = scan_live_scale(sim._devices)
        assert live.live_scale.hex() == oracle_scale.hex()
        if is_tick:
            ticks_checked.append(time_s)
            metrics = sim._intervals[-1]
            oracle = scan_evaluate_interval(
                now_s=time_s,
                devices=sim._devices,
                offered_samples_per_s=config.offered_load,
                device_throughput=simulator_module.DEVICE_THROUGHPUT,
                mitigated=mitigated,
                base_p50_s=simulator_module.BASE_P50_S,
                base_p99_s=simulator_module.BASE_P99_S,
                baseline_utilization=config.baseline_utilization,
                corrupted_samples_per_s=metrics.corrupted_samples_per_s,
            )
            for field in dataclasses.fields(IntervalMetrics):
                got = getattr(metrics, field.name)
                want = getattr(oracle, field.name)
                assert type(got) is type(want), field.name
                assert repr(got) == repr(want), (field.name, got, want)

    def checked(name):
        handler = getattr(sim, name)

        def checked_handler(time_s, *args):
            handler(time_s, *args)
            check_after(time_s, name == "_on_metrics")

        return checked_handler

    sim._transition = checked_transition
    for name in dir(ResilienceSimulator):
        if name.startswith("_on_"):
            setattr(sim, name, checked(name))
    report = sim.run()
    assert ticks_checked == [m.time_s for m in report.intervals]
    return report, seen


@settings(max_examples=150, deadline=None)
@given(config=_configs, constants=_constants, rates=_rates,
       mitigated=st.booleans())
def test_live_census_matches_full_scan(config, constants, rates, mitigated):
    with compensated_builtin_sum(), module_constants(constants):
        report, _ = run_checked(config, rates, mitigated)
    assert report.intervals[-1].time_s == config.duration_s


# The five lifecycle changes the simulator makes.
_WEDGE = {(DeviceState.HEALTHY, DeviceState.WEDGED),
          (DeviceState.DEGRADED, DeviceState.WEDGED)}
_DEGRADE = {(DeviceState.HEALTHY, DeviceState.DEGRADED)}
_DEGRADE_END = {(DeviceState.DEGRADED, DeviceState.HEALTHY)}
_REBOOT_DONE = {(DeviceState.REBOOTING, DeviceState.HEALTHY)}
_ROLLOUT_WAVE = {(DeviceState.HEALTHY, DeviceState.REBOOTING),
                 (DeviceState.DEGRADED, DeviceState.REBOOTING),
                 (DeviceState.WEDGED, DeviceState.REBOOTING)}


def test_every_transition_kind_is_checked():
    """One rolled-out run makes all five lifecycle changes."""
    config = _config(devices=40, utilization=0.85, duration_s=24 * 3600.0,
                     seed=1)
    rates = FaultRates(deadlock_per_device_hour=0.1, ecc_ue_per_device_hour=0.2,
                       sdc_per_device_hour=0.1, throttle_per_device_hour=0.5)
    constants = {"METRICS_INTERVAL_S": 1800.0, "THROTTLE_DURATION_S": 900.0,
                 "ECC_DEGRADE_DURATION_S": 120.0, "DEGRADED_SCALE": 0.7}
    with compensated_builtin_sum(), module_constants(constants):
        report, seen = run_checked(config, rates, mitigated=True)
    for kind in (_WEDGE, _DEGRADE, _DEGRADE_END, _REBOOT_DONE, _ROLLOUT_WAVE):
        assert seen & kind, kind
    assert report.intervals[-1].time_s == config.duration_s


def test_census_of_counts_every_state():
    devices = {i: Device(device_id=i) for i in range(5)}
    devices[1].transition(DeviceState.DEGRADED, 0.0)
    devices[2].transition(DeviceState.WEDGED, 0.0)
    devices[3].transition(DeviceState.WEDGED, 0.0)
    devices[3].transition(DeviceState.REBOOTING, 1.0)
    census = PoolCensus.of(devices)
    assert census.counts == {
        DeviceState.HEALTHY: 2,
        DeviceState.DEGRADED: 1,
        DeviceState.WEDGED: 1,
        DeviceState.REBOOTING: 1,
    }
    assert census.scales == [1.0, 0.6, 0.0, 0.0, 1.0]
    assert census.live_scale == scan_live_scale(devices)
    census.transition(devices[3], DeviceState.HEALTHY, 2.0)
    assert census == PoolCensus.of(devices)
    assert devices[3].state_seconds[DeviceState.REBOOTING] == 1.0
