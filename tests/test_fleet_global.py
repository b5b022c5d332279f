"""Tests for the global fleet tier (repro.fleet_global).

Covers the region/fleet configuration (timezone phases, traffic shares,
power-budget throttles), the probe-eye health monitor (detection lag,
flap damping, up/down hysteresis), the deterministic spill router, the
drill compiler (outage/brownout/partition semantics, staged global
rollouts), the composed fleet simulator's conservation and attribution,
and the region-outage capacity study's verdict logic.
"""

import math

import pytest

from repro.fleet_global import (
    FailoverConfig,
    FleetConfig,
    HealthMonitor,
    RegionEvent,
    RegionSpec,
    SpillRouter,
    build_drill,
    rate_for_users,
    region_outage_drill,
    run_capacity_study,
    run_fleet,
    standard_fleet,
    standard_regions,
)
from repro.fleet_global.regions import PEAK_RPS_PER_MILLION_USERS
from repro.fleet_global.simulator import TERMINAL_KINDS


class TestRegions:
    def test_rate_for_users_quotes_the_peak(self):
        # 2M users at peak-to-mean 2.0: peak rate 2*PEAK, mean rate half.
        assert rate_for_users(2.0, peak_to_mean=2.0) == pytest.approx(
            PEAK_RPS_PER_MILLION_USERS
        )
        with pytest.raises(ValueError):
            rate_for_users(0.0)

    def test_standard_regions_phase_eight_hours_apart(self):
        regions = standard_regions()
        assert [r.timezone_offset_h for r in regions] == [0.0, 8.0, 16.0]
        assert len({r.name for r in regions}) == 3

    def test_traffic_models_split_the_global_mean(self):
        fleet = standard_fleet()
        models = [fleet.traffic_model(spec) for spec in fleet.regions]
        total = sum(m.mean_rate_per_s for m in models)
        assert total == pytest.approx(fleet.global_mean_rate_s)
        # Timezone phase is threaded through phase_h, day compressed to
        # the run duration.
        assert [m.phase_h for m in models] == [0.0, 8.0, 16.0]
        assert all(m.day_length_s == fleet.duration_s for m in models)

    def test_traffic_share_skews_the_split(self):
        regions = (
            RegionSpec(name="big", traffic_share=3.0),
            RegionSpec(name="small", traffic_share=1.0),
        )
        fleet = FleetConfig(regions=regions)
        big = fleet.traffic_model(regions[0]).mean_rate_per_s
        small = fleet.traffic_model(regions[1]).mean_rate_per_s
        assert big == pytest.approx(3.0 * small)

    def test_unbudgeted_region_has_no_throttle(self):
        assert RegionSpec(name="r").throttle() is None

    def test_power_budget_throttles_the_region(self):
        tight = RegionSpec(name="r", power_budget_w_per_server=900.0)
        throttle = tight.throttle()
        assert throttle is not None
        assert throttle.multiplier(0.0) > 1.0  # service times stretch

    def test_fleet_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(regions=())
        with pytest.raises(ValueError):
            FleetConfig(regions=(
                RegionSpec(name="a"), RegionSpec(name="a"),
            ))
        with pytest.raises(KeyError):
            standard_fleet().region_index("atlantis")

    @pytest.mark.parametrize("samples", [0, -3])
    def test_fleet_rejects_non_positive_samples(self, samples):
        # Once clamped to one sample per request and run to a P99.
        with pytest.raises(ValueError, match="sample"):
            FleetConfig(regions=standard_regions(),
                        samples_per_request=samples)

    def test_fleet_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="policy"):
            FleetConfig(regions=standard_regions(), policy="random")

    @pytest.mark.parametrize(
        "weights", [(), (0.5, -0.1, 0.6), (0.0, 0.0, 0.0)]
    )
    def test_fleet_rejects_bad_priority_weights(self, weights):
        # Used to fail only once the defended arm started.
        with pytest.raises(ValueError, match="priority weights"):
            FleetConfig(regions=standard_regions(), priority_weights=weights)

    def test_fleet_rejects_peak_below_mean(self):
        with pytest.raises(ValueError, match="peak-to-mean"):
            FleetConfig(regions=standard_regions(), peak_to_mean=0.9)

    def test_fleet_priority_weights_become_a_tuple(self):
        fleet = FleetConfig(regions=standard_regions(),
                            priority_weights=[0.3, 0.5, 0.2])
        assert fleet.priority_weights == (0.3, 0.5, 0.2)
        hash(fleet)


class TestHealthMonitor:
    CFG = FailoverConfig(probe_interval_s=0.5, probe_lag_s=0.25,
                         down_after=2, up_after=2)

    def test_healthy_region_is_never_detected_down(self):
        monitor = HealthMonitor((), horizon_s=20.0, config=self.CFG)
        assert monitor.detected_down == ()
        assert not monitor.down_at(10.0)
        assert monitor.detection_lag_s() == math.inf

    def test_detection_lags_the_truth(self):
        monitor = HealthMonitor(
            ((5.0, 12.0),), horizon_s=20.0, config=self.CFG
        )
        assert len(monitor.detected_down) == 1
        start, end = monitor.detected_down[0]
        # Two failed probes after the outage plus probe lag: detection
        # strictly after the truth, recovery strictly after the heal.
        assert start > 5.0
        assert end > 12.0
        assert monitor.detection_lag_s() == pytest.approx(start - 5.0)
        assert not monitor.down_at(5.0)  # before detection
        assert monitor.down_at(start)
        assert monitor.down_at((start + end) / 2)
        assert not monitor.down_at(end)

    def test_flap_damping_ignores_a_single_bad_probe(self):
        # One probe observes the blip; the streak never reaches 2.
        blip = ((0.70, 0.80),)  # only the t=1.0 probe (observes 0.75) fails
        monitor = HealthMonitor(blip, horizon_s=10.0, config=self.CFG)
        assert monitor.detected_down == ()

    def test_unhealed_outage_stays_detected_down(self):
        monitor = HealthMonitor(
            ((5.0, math.inf),), horizon_s=10.0, config=self.CFG
        )
        assert monitor.detected_down[-1][1] == math.inf
        assert monitor.down_at(1e9)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            HealthMonitor(((5.0, 4.0),), horizon_s=10.0, config=self.CFG)


class TestSpillRouter:
    def _router(self, truth=((2.0, 8.0),), **kwargs):
        config = FailoverConfig(**kwargs) if kwargs else FailoverConfig()
        monitor = HealthMonitor(truth, horizon_s=20.0, config=config)
        return SpillRouter(
            monitors=[monitor, None, None],
            replicas=[4, 4, 8],
            capacity_requests=[100.0, 100.0, 200.0],
            config=config,
        )

    def test_healthy_home_stays_home(self):
        router = self._router()
        assignment = router.assign(0, 0.5)
        assert assignment.region == 0
        assert not assignment.spilled and not assignment.lb_shed

    def test_detected_down_spills_to_least_loaded_per_replica(self):
        router = self._router()
        down_at = router.monitors[0].detected_down[0][0]
        # Preload region 1 so region 2 is the lighter per-replica choice.
        for _ in range(4):
            router.assign(1, 0.1)
        assignment = router.assign(0, down_at + 0.1)
        assert assignment.spilled
        assert assignment.region == 2
        assert router.spilled_out[0] == 1
        assert router.spilled_in[2] == 1

    def test_index_breaks_per_replica_load_ties(self):
        router = self._router()
        down_at = router.monitors[0].detected_down[0][0]
        # Equal load per replica everywhere: lowest index wins.
        assert router.assign(0, down_at + 0.1).region == 1

    def test_spill_admission_cap_sheds_at_the_lb(self):
        config = FailoverConfig(max_spill_load=0.5)
        monitor = HealthMonitor(((0.0, 10.0),), horizon_s=20.0, config=config)
        router = SpillRouter(
            monitors=[monitor, None],
            replicas=[4, 4],
            capacity_requests=[100.0, 4.0],  # cap admits only 2 spills
            config=config,
        )
        outcomes = [router.assign(0, 1.0 + 0.01 * i) for i in range(4)]
        assert [a.spilled for a in outcomes] == [True, True, False, False]
        assert [a.lb_shed for a in outcomes] == [False, False, True, True]
        assert router.lb_shed == 2

    def test_partitioned_region_serves_home_but_refuses_spill(self):
        config = FailoverConfig()
        outage = HealthMonitor(((0.0, 10.0),), horizon_s=20.0, config=config)
        cut = HealthMonitor(((0.0, 10.0),), horizon_s=20.0, config=config)
        router = SpillRouter(
            monitors=[outage, None, None],
            replicas=[4, 4, 4],
            capacity_requests=[100.0, 100.0, 100.0],
            config=config,
            spill_monitors=[outage, cut, None],
        )
        down_at = outage.detected_down[0][0]
        # Region 1 is partitioned: its own traffic stays home...
        assert not router.assign(1, down_at + 0.1).spilled
        # ...but region 0's failover must skip it and land on region 2.
        assert router.assign(0, down_at + 0.1).region == 2

    def test_router_validation(self):
        with pytest.raises(ValueError):
            SpillRouter(monitors=[None], replicas=[1, 2],
                        capacity_requests=[1.0, 2.0])


class TestDrills:
    def test_region_event_validation(self):
        with pytest.raises(ValueError):
            RegionEvent(region="r", kind="earthquake", at_s=0.0,
                        duration_s=1.0)
        with pytest.raises(ValueError):
            RegionEvent(region="r", kind="outage", at_s=0.0, duration_s=0.0)
        with pytest.raises(ValueError):
            RegionEvent(region="r", kind="brownout", at_s=0.0,
                        duration_s=1.0, magnitude=0.0)

    def test_outage_takes_every_replica_and_marks_unreachable(self):
        fleet = standard_fleet(replicas_per_region=8)
        drill = region_outage_drill(fleet, region="eu-west", at_s=5.0,
                                    duration_s=3.0)
        schedule = drill.injections_for("eu-west")
        downed = {
            target for injection in schedule if injection.kind == "down"
            for target in injection.targets
        }
        assert downed == set(range(8))
        assert drill.unreachable_for("eu-west") == ((5.0, 8.0),)
        assert drill.injections_for("us-east") == ()

    def test_default_drill_covers_the_first_region_peak(self):
        fleet = standard_fleet()
        drill = region_outage_drill(fleet)
        start, end = drill.unreachable_for(fleet.regions[0].name)[0]
        # phase_h=0 peaks mid-run; the default window must cover it.
        assert start < fleet.duration_s / 2 < end

    def test_brownout_trips_a_fraction_of_power_domains(self):
        fleet = standard_fleet(replicas_per_region=8)
        drill = build_drill(fleet, [RegionEvent(
            region="us-east", kind="brownout", at_s=2.0, duration_s=4.0,
            magnitude=0.5,
        )])
        schedule = drill.injections_for("us-east")
        downed = {
            target for injection in schedule if injection.kind == "down"
            for target in injection.targets
        }
        assert 0 < len(downed) < 8  # partial, not a full outage
        assert drill.unreachable_for("us-east") == ()  # probes stay green

    def test_partition_is_isolated_not_unreachable(self):
        fleet = standard_fleet()
        drill = build_drill(fleet, [RegionEvent(
            region="ap-south", kind="partition", at_s=1.0, duration_s=2.0,
        )])
        assert drill.injections_for("ap-south") == ()
        assert drill.unreachable_for("ap-south") == ()
        assert drill.isolated_for("ap-south") == ((1.0, 3.0),)


def _small_fleet(**kwargs):
    defaults = dict(replicas_per_region=5, users_millions=2.0,
                    duration_s=12.0, seed=3)
    defaults.update(kwargs)
    return standard_fleet(**defaults)


class TestRunFleet:
    def test_quiet_day_conserves_and_never_spills(self):
        report = run_fleet(_small_fleet())
        assert (report.served + report.shed + report.timed_out
                + report.spilled_served == report.offered)
        assert report.spilled_served == 0 and report.lb_shed == 0
        assert report.offered == sum(r.offered for r in report.regions)

    def test_outage_conservation_holds_on_both_arms(self):
        fleet = _small_fleet()
        drill = region_outage_drill(fleet)
        for defended in (False, True):
            report = run_fleet(fleet, drill, defended=defended)
            assert (report.served + report.shed + report.timed_out
                    + report.spilled_served == report.offered)
            for region in report.regions:
                assert (region.served + region.spilled_served + region.shed
                        + region.timed_out == region.offered)

    def test_undefended_outage_loses_the_dead_regions_peak(self):
        fleet = _small_fleet()
        drill = region_outage_drill(fleet)
        undefended = run_fleet(fleet, drill, defended=False)
        dead = undefended.region(fleet.regions[0].name)
        assert dead.loss_fraction > 0.3
        assert undefended.spilled_served == 0  # no failover, no spill

    def test_defended_outage_spills_and_bounds_the_loss(self):
        fleet = _small_fleet()
        drill = region_outage_drill(fleet)
        undefended = run_fleet(fleet, drill, defended=False)
        defended = run_fleet(fleet, drill, defended=True)
        assert defended.spilled_served > 0
        assert defended.loss_fraction < undefended.loss_fraction / 3
        dead = defended.region(fleet.regions[0].name)
        assert dead.detection_lag_s < 2.0
        # Spilled answers pay both inter-region legs.
        assert defended.p99_latency_s >= undefended.p99_latency_s

    def test_spilled_latency_carries_the_round_trip(self):
        failover = FailoverConfig(spill_one_way_s=0.05)
        fleet = _small_fleet()
        drill = region_outage_drill(fleet)
        report = run_fleet(fleet, drill, defended=True, failover=failover)
        assert report.spilled_served > 0
        # Every latency at least clears the forward+return legs for the
        # spilled population: the global max must exceed 2x one-way.
        assert max(report.latencies_s) > 2 * failover.spill_one_way_s

    def test_terminal_events_attribute_exactly_once(self):
        fleet = _small_fleet()
        drill = region_outage_drill(fleet)
        report = run_fleet(fleet, drill, defended=True)
        terminal = sum(
            1 for region in report.regions
            for _, kind, _ in region.report.event_log
            if kind in TERMINAL_KINDS
        )
        assert terminal + report.lb_shed == report.offered
        assert len(report.latencies_s) == report.served + report.spilled_served

    def test_fleet_runs_are_deterministic(self):
        fleet = _small_fleet()
        drill = region_outage_drill(fleet)
        assert run_fleet(fleet, drill, defended=True) == run_fleet(
            fleet, drill, defended=True
        )

    def test_seed_changes_the_run(self):
        base = run_fleet(_small_fleet())
        other = run_fleet(_small_fleet(seed=99))
        assert base.offered != other.offered or (
            base.latencies_s != other.latencies_s
        )


class TestCapacityStudy:
    def test_study_verdict_and_table(self):
        # The short 12 s day concentrates the detection-window loss, so
        # the loss budget scales up with it (the pinned study uses the
        # full day and the default budget).
        study = run_capacity_study(
            users_millions=2.0, sizes=(2, 3, 5), duration_s=12.0, seed=3,
            max_loss_fraction=0.05,
        )
        assert study.undefended_replicas is None
        assert study.defended_replicas is not None
        if study.baseline_replicas is not None:
            assert study.baseline_replicas <= study.defended_replicas
            assert study.overprovision_fraction >= 0.0
        table = study.table()
        assert "repl/region" in table
        assert "verdict" in study.summary() or "widen" in study.summary()
        scalars = study.scalars()
        assert scalars["capacity.undefended_replicas"] == -1.0

    def test_study_validation(self):
        with pytest.raises(ValueError):
            run_capacity_study(sizes=())
        with pytest.raises(ValueError):
            run_capacity_study(sizes=(0,))
