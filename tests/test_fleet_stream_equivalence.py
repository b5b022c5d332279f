"""Differential test: cached fleet streams and the lighter LB pass.

``run_fleet`` caches each region's diurnal stream on its inputs, caches
the defended arm's priority tiers and the global merge order next to
them, routes through a :class:`SpillRouter` that hands out shared
:class:`Assignment` instances, and re-stamps a request only when it
spilled or landed at another index.  The oracles are the code this
replaced, kept here verbatim:

- ``retired_region_streams``, with the retired ``with_priorities`` and
  ``diurnal_poisson_stream`` it called;
- ``retired_lb_pass``: the router build and LB loop once inline in
  ``run_fleet``, over ``RetiredSpillRouter``, whose ``assign`` builds a
  new ``Assignment`` per call.

Hypothesis draws seeds, user counts, durations, region sizes and
drills (none, one region out, two regions out), each with the defended
arm on and off, and asserts equal destination streams, attribution tags
and LB sheds.  Cached values must be tuples of frozen ``Request``, and a
cold-cache run must report exactly what a warm-cache run does.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import List, Optional, Sequence, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.brownout import PRIORITY_WEIGHTS
from repro.cluster.service import default_service_model
from repro.fleet_global import (
    Assignment,
    FleetConfig,
    RegionEvent,
    SpillRouter,
    build_drill,
    run_fleet,
    standard_fleet,
)
from repro.fleet_global import simulator as fleet_simulator
from repro.fleet_global.failover import MAX_SPILL_LOAD, SPILL_ONE_WAY_S
from repro.fleet_global.simulator import (
    _PRIORITY_SEED,
    _STREAM_SEED,
    _build_monitors,
    _build_router,
    _lb_pass,
    _region_streams,
)
from repro.serving.workload import (
    DiurnalTrafficModel,
    Request,
    diurnal_poisson_stream,
    with_priorities,
)


# -- oracles: the retired code, verbatim -----------------------------------


def retired_with_priorities(
    requests: Sequence["Request"],
    weights: Sequence[float],
    seed: int = 0,
) -> List["Request"]:
    if not weights or any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative and non-empty")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("at least one weight must be positive")
    rng = np.random.default_rng(seed)
    priorities = rng.choice(
        len(weights), size=len(requests), p=[w / total for w in weights]
    )
    return [
        dataclasses.replace(request, priority=int(priority))
        for request, priority in zip(requests, priorities)
    ]


def retired_diurnal_poisson_stream(
    model: DiurnalTrafficModel,
    duration_s: float,
    samples_per_request: int = 64,
    samples_jitter: float = 0.3,
    burst_rate_per_hour: float = 0.0,
    burst_factor: float = 3.0,
    burst_duration_s: float = 30.0,
    seed: int = 0,
) -> List[Request]:
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if burst_rate_per_hour < 0 or burst_duration_s < 0:
        raise ValueError("burst rate and duration must be non-negative")
    if burst_factor < 1:
        raise ValueError("burst factor must be at least 1")
    rng = np.random.default_rng(seed)
    episodes: List[float] = []
    if burst_rate_per_hour > 0:
        episode_rate = burst_rate_per_hour / 3600.0
        t = 0.0
        while True:
            t += rng.exponential(1.0 / episode_rate)
            if t >= duration_s:
                break
            episodes.append(t)

    def in_burst(t: float) -> bool:
        index = bisect.bisect_right(episodes, t) - 1
        return index >= 0 and t < episodes[index] + burst_duration_s

    lam_max = model.peak_rate_per_s * (burst_factor if episodes else 1.0)
    arrivals: List[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / lam_max)
        if t >= duration_s:
            break
        rate = model.rate_at(t) * (burst_factor if in_burst(t) else 1.0)
        if rng.random() * lam_max <= rate:
            arrivals.append(t)
    sizes = np.maximum(
        1,
        np.round(
            samples_per_request * rng.lognormal(0, samples_jitter, size=len(arrivals))
        ).astype(int),
    )
    return [
        Request(arrival_s=float(t), samples=int(s), request_id=i)
        for i, (t, s) in enumerate(zip(arrivals, sizes))
    ]


def retired_region_streams(
    config: FleetConfig, defended: bool
) -> List[List[Request]]:
    streams: List[List[Request]] = []
    for index, spec in enumerate(config.regions):
        stream = retired_diurnal_poisson_stream(
            config.traffic_model(spec),
            duration_s=config.duration_s,
            seed=config.seed + _STREAM_SEED + index,
        )
        if defended:
            stream = retired_with_priorities(
                stream, PRIORITY_WEIGHTS,
                seed=config.seed + _PRIORITY_SEED + index,
            )
        streams.append(stream)
    return streams


class RetiredSpillRouter(SpillRouter):
    """The router with its retired per-call ``assign``."""

    def _down(self, region: int, t_s: float) -> bool:
        monitor = self.monitors[region]
        return monitor is not None and monitor.down_at(t_s)

    def assign(self, home: int, arrival_s: float) -> Assignment:
        """Route one arrival: home, spill, or LB shed."""
        if not self._down(home, arrival_s):
            self.assigned[home] += 1
            return Assignment(region=home, spilled=False)
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
            return Assignment(region=home, spilled=False, lb_shed=True)
        self.assigned[best] += 1
        self.spilled_out[home] += 1
        self.spilled_in[best] += 1
        return Assignment(region=best, spilled=True)


def retired_lb_pass(config, drill, defended, service, streams):
    num_regions = len(config.regions)
    if defended:
        monitors = _build_monitors(config, drill)
    else:
        monitors = [None] * num_regions
    capacity_requests = [
        spec.replicas * service.capacity_per_replica() * config.duration_s
        for spec in config.regions
    ]
    router = RetiredSpillRouter(
        monitors,
        [spec.replicas for spec in config.regions],
        capacity_requests,
    )

    order = sorted(
        (request.arrival_s, origin, index)
        for origin, stream in enumerate(streams)
        for index, request in enumerate(stream)
    )
    dest_streams: List[List[Request]] = [[] for _ in range(num_regions)]
    dest_tags: List[List[Tuple[int, bool]]] = [[] for _ in range(num_regions)]
    lb_shed_by_origin = [0] * num_regions
    for arrival_s, origin, index in order:
        assignment = router.assign(origin, arrival_s)
        if assignment.lb_shed:
            lb_shed_by_origin[origin] += 1
            continue
        request = streams[origin][index]
        dest = assignment.region
        arrival = request.arrival_s
        if assignment.spilled:
            arrival += SPILL_ONE_WAY_S
        bucket = dest_streams[dest]
        bucket.append(Request(
            arrival_s=arrival,
            samples=request.samples,
            request_id=len(bucket),
            priority=request.priority,
        ))
        dest_tags[dest].append((origin, assignment.spilled))
    return dest_streams, dest_tags, lb_shed_by_origin


# -- helpers ----------------------------------------------------------------


def _drill(fleet: FleetConfig, kind: str, region: int, at: float):
    """An outage of one region from ``at`` of the run to its 60%;
    ``both`` takes the next region out over the same span too."""
    if kind == "none":
        return None
    names = [spec.name for spec in fleet.regions]
    span = dict(at_s=at * fleet.duration_s,
                duration_s=(0.6 - at) * fleet.duration_s)
    events = [RegionEvent(region=names[region], **span)]
    if kind == "both":
        events.append(RegionEvent(
            region=names[(region + 1) % len(names)], **span,
        ))
    return build_drill(fleet, events)


def _new_lb_pass(fleet, drill, defended, service):
    streams, order = _region_streams(fleet, defended)
    _, router = _build_router(fleet, drill, defended, service)
    return streams, _lb_pass(streams, order, router)


def _frozen_request_tuple(stream) -> bool:
    return isinstance(stream, tuple) and all(
        type(request) is Request for request in stream
    ) and Request.__dataclass_params__.frozen


def _clear_caches() -> None:
    fleet_simulator._base_stream.cache_clear()
    fleet_simulator._merged_streams.cache_clear()


# -- tests ------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    users=st.sampled_from([0.5, 1.0, 2.0, 4.0, 6.0]),
    duration_s=st.sampled_from([1.0, 2.5, 4.0, 6.0]),
    size=st.integers(1, 6),
    kind=st.sampled_from(["none", "outage", "both"]),
    region=st.integers(0, 2),
    at=st.sampled_from([0.0, 0.1, 0.3]),
    defended=st.booleans(),
)
def test_lb_pass_matches_the_retired_streams_and_loop(
    seed, users, duration_s, size, kind, region, at, defended,
):
    fleet = standard_fleet(size, users, duration_s, seed)
    drill = _drill(fleet, kind, region, at)
    service = default_service_model()

    old_streams = retired_region_streams(fleet, defended)
    old = retired_lb_pass(fleet, drill, defended, service, old_streams)
    streams, new = _new_lb_pass(fleet, drill, defended, service)

    assert streams == tuple(tuple(stream) for stream in old_streams)
    assert all(_frozen_request_tuple(stream) for stream in streams)
    new_dest, new_tags, new_shed = new
    old_dest, old_tags, old_shed = old
    assert new_dest == old_dest
    assert new_tags == old_tags
    assert new_shed == old_shed


def test_a_drill_run_spills_sheds_restamps_and_passes_through():
    """One fixed case that takes every branch of the LB loop."""
    fleet = standard_fleet(2, 4.0, 6.0, seed=1)
    drill = _drill(fleet, "both", 0, 0.1)
    service = default_service_model()
    streams, (dest, tags, lb_shed) = _new_lb_pass(
        fleet, drill, True, service
    )
    assert sum(lb_shed) > 0
    assert any(spilled for region in tags for _, spilled in region)
    shared = {id(request) for stream in streams for request in stream}
    passed = sum(id(r) in shared for stream in dest for r in stream)
    restamped = sum(len(stream) for stream in dest) - passed
    assert passed > 0 and restamped > 0
    assert (dest, tags, lb_shed) == retired_lb_pass(
        fleet, drill, True, service, retired_region_streams(fleet, True),
    )


def test_undefended_arm_passes_every_request_through():
    fleet = standard_fleet(3, 2.0, 4.0, seed=2)
    streams, (dest, _, lb_shed) = _new_lb_pass(
        fleet, None, False, default_service_model()
    )
    assert lb_shed == [0, 0, 0]
    for stream, routed in zip(streams, dest):
        assert len(stream) == len(routed)
        assert all(a is b for a, b in zip(stream, routed))


def test_streams_are_generated_once_per_region():
    _clear_caches()
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs["seed"])
        return diurnal_poisson_stream(*args, **kwargs)

    original = fleet_simulator.diurnal_poisson_stream
    fleet_simulator.diurnal_poisson_stream = counting
    try:
        for size in (2, 3):
            fleet = standard_fleet(size, 1.0, 3.0, seed=4)
            for defended in (False, True):
                _region_streams(fleet, defended)
    finally:
        fleet_simulator.diurnal_poisson_stream = original
    assert sorted(calls) == [4, 5, 6]
    merged = fleet_simulator._merged_streams.cache_info()
    assert merged.misses == 2 and merged.hits == 2


def test_cached_values_are_tuples_of_frozen_requests():
    fleet = standard_fleet(2, 1.0, 3.0, seed=9)
    for defended in (False, True):
        streams, order = _region_streams(fleet, defended)
        assert isinstance(streams, tuple) and isinstance(order, tuple)
        assert all(_frozen_request_tuple(stream) for stream in streams)
        assert all(isinstance(entry, tuple) for entry in order)
    tiered, _ = _region_streams(fleet, True)
    assert any(request.priority for stream in tiered for request in stream)


def test_cold_and_warm_cache_runs_report_equal():
    fleet = standard_fleet(3, 2.0, 6.0, seed=3)
    drill = _drill(fleet, "outage", 0, 0.3)
    _clear_caches()
    cold = run_fleet(fleet, drill, defended=True)
    _clear_caches()
    # Warm the base streams through the other arm first.
    run_fleet(fleet, drill, defended=False)
    warm_base = run_fleet(fleet, drill, defended=True)
    warm = run_fleet(fleet, drill, defended=True)
    assert fleet_simulator._merged_streams.cache_info().hits >= 1
    assert cold == warm_base == warm
    assert cold.spilled_served > 0


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    mean_rate=st.sampled_from([0.5, 3.0, 40.0]),
    duration_s=st.sampled_from([5.0, 60.0, 400.0]),
    burst_rate_per_hour=st.sampled_from([0.0, 30.0, 600.0]),
    burst_duration_s=st.sampled_from([0.0, 10.0, 30.0]),
    weights=st.sampled_from([(0.3, 0.5, 0.2), (1.0,), (0.0, 2.0, 1.0)]),
)
def test_stream_generators_match_the_retired_ones(
    seed, mean_rate, duration_s, burst_rate_per_hour, burst_duration_s,
    weights,
):
    model = DiurnalTrafficModel(mean_rate_per_s=mean_rate,
                                day_length_s=duration_s)
    kwargs = dict(burst_rate_per_hour=burst_rate_per_hour,
                  burst_duration_s=burst_duration_s, seed=seed)
    stream = diurnal_poisson_stream(model, duration_s, **kwargs)
    assert stream == retired_diurnal_poisson_stream(
        model, duration_s, **kwargs
    )
    assert with_priorities(stream, weights, seed=seed) == (
        retired_with_priorities(stream, weights, seed=seed)
    )
