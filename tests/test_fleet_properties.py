"""Property-based tests for the global fleet tier's safety invariants.

Mirrors ``tests/test_chaos_properties.py`` one level up: Hypothesis
generates arbitrary region-scale drill schedules (outages at arbitrary
times, on either arm) against small fleets and
asserts the two contracts the tier rests on:

* **global conservation** — every generated request reaches exactly one
  terminal outcome, ``served + shed + timed_out + spilled_served ==
  offered``, globally and per origin region, whatever the drill does;
* **bit-for-bit determinism** — the same config, drill, and arm produce
  an identical :class:`~repro.fleet_global.simulator.FleetReport`,
  event logs included.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet_global import (
    FleetConfig,
    RegionEvent,
    RegionSpec,
    build_drill,
    run_fleet,
)

DURATION_S = 6.0
REGION_NAMES = ("alpha", "beta")


def _fleet(seed: int) -> FleetConfig:
    return FleetConfig(
        regions=tuple(
            RegionSpec(name=name, timezone_offset_h=12.0 * index, replicas=3)
            for index, name in enumerate(REGION_NAMES)
        ),
        users_millions=1.0,
        duration_s=DURATION_S,
        seed=seed,
    )


region_events = st.builds(
    RegionEvent,
    region=st.sampled_from(REGION_NAMES),
    at_s=st.floats(min_value=0.0, max_value=DURATION_S,
                   allow_nan=False, allow_infinity=False),
    duration_s=st.floats(min_value=0.1, max_value=DURATION_S,
                         allow_nan=False, allow_infinity=False),
)

drills = st.lists(region_events, min_size=0, max_size=4)


@settings(max_examples=40, deadline=None)
@given(events=drills, defended=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**16))
def test_conservation_under_arbitrary_region_drills(events, defended, seed):
    fleet = _fleet(seed)
    report = run_fleet(
        fleet, build_drill(fleet, events), defended=defended
    )
    assert (report.served + report.shed + report.timed_out
            + report.spilled_served == report.offered)
    assert report.lb_shed <= report.shed
    for region in report.regions:
        assert (region.served + region.spilled_served + region.shed
                + region.timed_out == region.offered)
    assert report.offered == sum(r.offered for r in report.regions)
    # Every answered request has exactly one recorded global latency.
    assert len(report.latencies_s) == report.served + report.spilled_served
    if not defended:
        # Failover off means nothing ever leaves its home region.
        assert report.spilled_served == 0
        assert report.lb_shed == 0


@settings(max_examples=20, deadline=None)
@given(events=drills, defended=st.booleans(),
       seed=st.integers(min_value=0, max_value=2**16))
def test_fleet_runs_are_bit_for_bit_deterministic(events, defended, seed):
    fleet = _fleet(seed)
    drill = build_drill(fleet, events)
    first = run_fleet(fleet, drill, defended=defended)
    second = run_fleet(fleet, drill, defended=defended)
    assert first == second
    for a, b in zip(first.regions, second.regions):
        assert a.report.event_log == b.report.event_log


@settings(max_examples=20, deadline=None)
@given(events=st.lists(region_events, min_size=2, max_size=4),
       seed=st.integers(min_value=0, max_value=2**16))
def test_drill_compilation_is_event_order_independent(events, seed):
    """The same incidents in any order compile to the same drill —
    the merge tie-break at work one level up."""
    fleet = _fleet(seed)
    forward = build_drill(fleet, events)
    backward = build_drill(fleet, list(reversed(events)))
    assert forward.injections == backward.injections
    assert forward.unreachable == backward.unreachable
