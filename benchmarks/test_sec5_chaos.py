"""Section 5 chaos headline: the metastable retry storm, off vs on.

Paper: section 5's productionization story is surviving correlated
trouble — host hangs and firmware regressions (5.5), re-derived power
budgets running close to the wire (5.3), thermal emergencies (5.4).
Measured here: the two scenario pairs the ``sec5_chaos`` goldens pin.
The retry storm — a correlated three-host outage plus impatient
clients — is *metastable* with defenses off (post-clear goodput stays
collapsed after the outage clears, the tier never recovers) and
recovers within the first post-clear window with deadlines, retry
budgets, backoff, and circuit breakers armed.  The power-domain trip
shows the brownout ladder trading quality for availability: the
defended run's unavailability drops ~25x versus undefended.
"""

from conftest import once

from repro.chaos import CampaignConfig, run_scenario, scenario_by_name
from repro.chaos.campaign import RECOVERY_THRESHOLD

PAIRED_SCENARIOS = ("retry_storm", "power_trip")


def _run():
    config = CampaignConfig()
    outcomes = {}
    for name in PAIRED_SCENARIOS:
        scenario = scenario_by_name(name)
        for defended in (False, True):
            outcomes[(name, defended)] = run_scenario(
                scenario, config, defended=defended
            )
    return config, outcomes


def test_sec5_chaos(benchmark, record, record_json):
    config, outcomes = once(benchmark, _run)

    storm_off = outcomes[("retry_storm", False)]
    storm_on = outcomes[("retry_storm", True)]
    trip_off = outcomes[("power_trip", False)]
    trip_on = outcomes[("power_trip", True)]

    lines = [
        f"chaos scenarios: replicas={config.replicas} "
        f"util={config.utilization:.0%} duration={config.duration_s:.0f}s "
        f"seed={config.seed}",
        "",
    ]
    lines.extend(o.summary() for o in outcomes.values())
    lines.append("")
    lines.append(
        "headline: undefended retry storm is metastable "
        f"(post-clear goodput {storm_off.post_clear_goodput_ratio:.1%}, "
        "never recovers); defended recovers in "
        f"{storm_on.time_to_recovery_s:.1f}s"
    )
    lines.append(
        "brownout: power-trip unavailability "
        f"{trip_off.unavailability:.2%} -> {trip_on.unavailability:.2%} "
        "with the degradation ladder armed"
    )

    # The acceptance shape: metastable off, recovered on.
    assert not storm_off.recovered
    assert storm_off.post_clear_goodput_ratio < 0.5
    assert storm_on.recovered
    assert storm_on.time_to_recovery_s <= 2.0
    assert storm_on.post_clear_goodput_ratio >= RECOVERY_THRESHOLD
    # Brownout converts an availability hit into a quality hit.
    assert trip_on.unavailability < trip_off.unavailability / 5
    # Conservation held in every run (ClusterReport enforces it too).
    for outcome in outcomes.values():
        report = outcome.report
        assert report.served + report.shed + report.timed_out == report.offered

    record("sec5_chaos", "\n".join(lines))
    scalars = {}
    for outcome in outcomes.values():
        scalars.update(outcome.scalars())
    record_json("sec5_chaos", scalars)
