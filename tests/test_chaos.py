"""Tests for the chaos tier (repro.chaos).

Covers the fault-domain topology and its correlated injection builders
(including the physics gating: no budget breach, no trip; no thermal
excursion, no throttle), the overload-defense state machines, the
brownout ladder, the scenario catalog, and the campaign scoring —
plus the contract the whole tier rests on: with every hook left at its
default, the cluster simulator's output is identical to a run that
never heard of the chaos tier.
"""

import dataclasses
import math

import pytest

from repro.chaos import (
    BrownoutConfig,
    BrownoutController,
    BrownoutRung,
    FaultDomainTopology,
    default_ladder,
    firmware_rollout,
    host_failure,
    measure_ladder_quality,
    merge_schedules,
    network_partition,
    power_domain_trip,
    quality_cost_of_run,
    rack_failure,
    run_scenario,
    scenario_by_name,
    smoke_config,
    standard_catalog,
    thermal_emergency,
    thermal_slow_factor,
)
from repro.chaos.campaign import CampaignConfig
from repro.cluster import ClusterConfig, ServiceModel, run_cluster
from repro.reliability.firmware import emergency_rollout
from repro.resilience.policies import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    Backoff,
    BreakerConfig,
    CircuitBreaker,
    DefenseConfig,
    DefenseRuntime,
    TokenBucket,
)
from repro.serving import Request, with_priorities
import numpy as np


class TestFaultDomainTopology:
    def test_sizes_round_up(self):
        topo = FaultDomainTopology(
            replicas=10, replicas_per_host=2, hosts_per_rack=2,
            racks_per_power_domain=2,
        )
        assert topo.num_hosts == 5
        assert topo.num_racks == 3
        assert topo.num_power_domains == 2

    def test_membership_nests(self):
        topo = FaultDomainTopology(replicas=16)
        for r in range(topo.replicas):
            host = topo.host_of(r)
            assert r in topo.replicas_on_host(host)
            assert topo.rack_of(r) == host // topo.hosts_per_rack
            assert topo.power_domain_of(r) == (
                topo.rack_of(r) // topo.racks_per_power_domain
            )

    def test_racks_partition_the_replicas(self):
        topo = FaultDomainTopology(replicas=13, replicas_per_host=3)
        seen = []
        for rack in range(topo.num_racks):
            seen.extend(topo.replicas_in_rack(rack))
        assert sorted(seen) == list(range(topo.replicas))

    def test_power_domains_partition_the_replicas(self):
        topo = FaultDomainTopology(replicas=12, hosts_per_rack=2)
        seen = []
        for domain in range(topo.num_power_domains):
            seen.extend(topo.replicas_in_power_domain(domain))
        assert sorted(seen) == list(range(topo.replicas))

    def test_bounds_are_checked(self):
        topo = FaultDomainTopology(replicas=4)
        with pytest.raises(ValueError):
            topo.host_of(4)
        with pytest.raises(ValueError):
            topo.replicas_in_rack(99)
        with pytest.raises(ValueError):
            FaultDomainTopology(replicas=0)


class TestInjectionBuilders:
    topo = FaultDomainTopology(
        replicas=12, replicas_per_host=2, hosts_per_rack=2,
        racks_per_power_domain=2,
    )

    def test_host_failure_is_a_down_up_pair(self):
        schedule = host_failure(self.topo, host=1, at_s=5.0, duration_s=3.0)
        assert [i.kind for i in schedule] == ["down", "up"]
        assert schedule[0].targets == self.topo.replicas_on_host(1)
        assert schedule[1].time_s == pytest.approx(8.0)

    def test_rack_failure_takes_every_host_together(self):
        schedule = rack_failure(self.topo, rack=0, at_s=1.0, duration_s=2.0)
        assert schedule[0].targets == self.topo.replicas_in_rack(0)
        assert len(schedule[0].targets) == 4  # 2 hosts x 2 replicas

    def test_partition_uses_partition_heal_kinds(self):
        schedule = network_partition(self.topo, rack=1, at_s=1.0,
                                     duration_s=2.0)
        assert [i.kind for i in schedule] == ["partition", "heal"]

    def test_power_trip_holds_within_budget(self):
        assert power_domain_trip(
            self.topo, domain=0, at_s=1.0, duration_s=2.0,
            demand_w_per_server=100.0, budget_w_per_server=200.0,
        ) == []

    def test_power_trip_fires_on_breach(self):
        schedule = power_domain_trip(
            self.topo, domain=0, at_s=1.0, duration_s=2.0,
            demand_w_per_server=250.0, budget_w_per_server=200.0,
        )
        assert [i.kind for i in schedule] == ["down", "up"]
        assert schedule[0].targets == self.topo.replicas_in_power_domain(0)

    def test_thermal_slow_factor_is_physics_gated(self):
        # A load the heatsink can reject leaves the tier alone...
        assert thermal_slow_factor(30.0) == 1.0
        assert thermal_emergency(self.topo, rack=0, at_s=1.0,
                                 duration_s=2.0, power_w=30.0) == []
        # ...and a real excursion throttles by the derived ratio.
        factor = thermal_slow_factor(150.0)
        assert factor > 1.5
        schedule = thermal_emergency(self.topo, rack=0, at_s=1.0,
                                     duration_s=2.0, power_w=150.0)
        assert schedule[0].kind == "slow"
        assert schedule[0].magnitude == pytest.approx(factor)
        assert schedule[1].kind == "slow_end"

    def test_firmware_rollout_honors_the_concurrency_cap(self):
        plan = emergency_rollout()
        schedule = firmware_rollout(self.topo, at_s=0.0, plan=plan)
        waves = [i for i in schedule if i.kind == "down"]
        cap = max(1, int(self.topo.num_hosts
                         * plan.max_concurrent_restart_fraction))
        per_wave_hosts = [
            len({r // self.topo.replicas_per_host for r in w.targets})
            for w in waves
        ]
        assert all(hosts <= cap for hosts in per_wave_hosts)
        # Every host restarts exactly once across the waves.
        restarted = [r for w in waves for r in w.targets]
        assert sorted(restarted) == list(range(self.topo.replicas))

    def test_firmware_regression_ends_at_rollback(self):
        schedule = firmware_rollout(
            self.topo, at_s=0.0, restart_s=1.0, wave_gap_s=2.0,
            plan=emergency_rollout(), regression_slow=1.5,
            rollback_at_s=4.0,
        )
        slows = [i for i in schedule if i.kind == "slow"]
        ends = [i for i in schedule if i.kind == "slow_end"]
        assert slows and ends
        # No wave starting after the rollback carries the bad build.
        assert all(i.time_s - 1.0 < 4.0 for i in slows)
        assert len(ends) == 1 and ends[0].time_s == pytest.approx(4.0)
        # The rollback restores exactly the hosts that were regressed.
        assert sorted(ends[0].targets) == sorted(
            r for i in slows for r in i.targets
        )

    def test_merge_schedules_time_orders(self):
        a = host_failure(self.topo, host=0, at_s=5.0, duration_s=1.0)
        b = host_failure(self.topo, host=1, at_s=2.0, duration_s=1.0)
        merged = merge_schedules(a, b)
        assert [i.time_s for i in merged] == sorted(i.time_s for i in merged)

    def test_merge_schedules_is_argument_order_independent(self):
        """The documented tie-break: same-timestamp injections sort by
        kind declaration order, then targets, then magnitude — so any
        argument order merges to the same schedule."""
        a = host_failure(self.topo, host=0, at_s=3.0, duration_s=2.0)
        b = host_failure(self.topo, host=1, at_s=3.0, duration_s=2.0)
        c = rack_failure(self.topo, rack=1, at_s=3.0, duration_s=1.0)
        assert merge_schedules(a, b, c) == merge_schedules(c, b, a)
        assert merge_schedules(b, a) == merge_schedules(a, b)

    def test_same_timestamp_down_sorts_before_up(self):
        from repro.cluster import Injection, injection_sort_key

        # A zero-duration outage: the pair shares one timestamp.  The
        # tie-break must execute down before up so the net state is
        # recovered, not wedged.
        down = Injection(time_s=4.0, kind="down", targets=(0,))
        up = Injection(time_s=4.0, kind="up", targets=(0,))
        merged = merge_schedules([up], [down])
        assert [i.kind for i in merged] == ["down", "up"]
        assert injection_sort_key(down) < injection_sort_key(up)
        # ...and likewise for the other paired kinds.
        slow = Injection(time_s=4.0, kind="slow", targets=(0,),
                         magnitude=2.0)
        slow_end = Injection(time_s=4.0, kind="slow_end", targets=(0,))
        assert injection_sort_key(slow) < injection_sort_key(slow_end)
        cut = Injection(time_s=4.0, kind="partition", targets=(0,))
        heal = Injection(time_s=4.0, kind="heal", targets=(0,))
        assert injection_sort_key(cut) < injection_sort_key(heal)

    def test_sort_key_is_a_total_order_over_all_fields(self):
        from repro.cluster import Injection, injection_sort_key

        events = [
            Injection(time_s=1.0, kind="down", targets=(1,)),
            Injection(time_s=1.0, kind="down", targets=(0,)),
            Injection(time_s=1.0, kind="slow", targets=(0,), magnitude=3.0),
            Injection(time_s=1.0, kind="slow", targets=(0,), magnitude=2.0),
        ]
        keys = [injection_sort_key(e) for e in sorted(
            events, key=injection_sort_key
        )]
        assert keys == sorted(keys)
        # Distinct events get distinct keys: every field participates.
        assert len(set(keys)) == len(events)

    def test_simulator_sorts_same_time_injections_deterministically(self):
        """The constructor applies the same total order, so permuting a
        schedule with same-timestamp events cannot change the run."""
        from repro.cluster import Injection

        service = ServiceModel(mean_service_s=0.02, jitter_sigma=0.2)
        requests = [
            Request(arrival_s=0.01 * i, samples=8, request_id=i)
            for i in range(40)
        ]
        schedule = [
            Injection(time_s=0.1, kind="down", targets=(0,)),
            Injection(time_s=0.1, kind="down", targets=(1,)),
            Injection(time_s=0.1, kind="up", targets=(0,)),
            Injection(time_s=0.3, kind="up", targets=(1,)),
        ]
        config = ClusterConfig(replicas=3, num_hosts=2, seed=0)
        forward = run_cluster(config, service, requests,
                              injections=schedule)
        backward = run_cluster(config, service, requests,
                               injections=list(reversed(schedule)))
        assert forward == backward


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate_per_s=10.0, burst=2.0)
        assert bucket.take(0.0)
        assert bucket.take(0.0)
        assert not bucket.take(0.0)  # burst exhausted
        assert bucket.take(0.1)  # 1 token refilled after 100 ms
        assert not bucket.take(0.1)

    def test_time_must_not_run_backwards(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=1.0)
        bucket.take(5.0)
        with pytest.raises(ValueError):
            bucket.take(4.0)


class TestCircuitBreaker:
    config = BreakerConfig(failure_threshold=2, cooldown_s=1.0,
                           probe_quota=2, close_after_successes=2)

    def test_trips_after_threshold_failures(self):
        breaker = CircuitBreaker(self.config)
        breaker.record_failure(0.0)
        assert breaker.state == BREAKER_CLOSED
        breaker.record_failure(0.0)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(0.5)  # inside cooldown

    def test_half_open_probes_then_closes(self):
        breaker = CircuitBreaker(self.config)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)  # cooldown elapsed -> half-open probe
        assert breaker.state == BREAKER_HALF_OPEN
        breaker.on_dispatch(1.0)
        assert breaker.allow(1.0)
        breaker.on_dispatch(1.0)
        assert not breaker.allow(1.0)  # probe quota spent
        breaker.record_success(1.1)
        breaker.record_success(1.2)
        assert breaker.state == BREAKER_CLOSED

    def test_half_open_failure_reopens(self):
        breaker = CircuitBreaker(self.config)
        breaker.record_failure(0.0)
        breaker.record_failure(0.0)
        assert breaker.allow(1.0)
        breaker.on_dispatch(1.0)
        breaker.record_failure(1.1)
        assert breaker.state == BREAKER_OPEN
        assert not breaker.allow(1.5)  # cooldown restarted at 1.1
        assert breaker.allow(2.2)


class TestDefenseRuntime:
    def test_default_config_is_inert(self):
        runtime = DefenseRuntime(DefenseConfig())
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert runtime.deadline_s is None
        assert not runtime.past_deadline(1e9, arrival_s=0.0)
        assert all(runtime.take_retry_token(0.0) for _ in range(100))
        assert runtime.backoff_s(3, rng) == 0.0
        assert rng.bit_generator.state == state  # no jitter drawn
        assert runtime.breaker(0) is None and runtime.replica_allowed(0, 0.0)
        assert (runtime.retries_denied, runtime.deadline_drops,
                runtime.breaker_rejections) == (0, 0, 0)

    def test_breakers_are_watched_from_failure_to_close(self):
        runtime = DefenseRuntime(DefenseConfig(breaker=BreakerConfig(
            failure_threshold=2, cooldown_s=1.0, probe_quota=2,
            close_after_successes=2,
        )))
        runtime.on_dispatch(0, 0.0)
        runtime.on_replica_success(0, 0.0)
        assert runtime.replica_allowed(0, 0.0)
        assert runtime.breaker(0) is None and runtime.watched == {}
        runtime.on_replica_failure(0, 0.0)  # closed, one failure counted
        assert list(runtime.watched) == [0]
        runtime.on_replica_success(0, 0.1)  # resets the count
        assert runtime.watched == {} and runtime.breaker(0) is not None
        runtime.on_replica_failure(0, 1.0)
        runtime.on_replica_failure(0, 1.0)  # opens
        assert not runtime.replica_allowed(0, 1.5)
        assert runtime.breaker_rejections == 1
        assert runtime.replica_allowed(0, 2.0)  # half-open
        runtime.on_dispatch(0, 2.0)
        runtime.on_dispatch(0, 2.0)
        assert not runtime.replica_allowed(0, 2.0)  # probe quota spent
        assert runtime.breaker_rejections == 2
        runtime.on_replica_success(0, 2.1)
        assert list(runtime.watched) == [0]
        runtime.on_replica_success(0, 2.2)  # closes
        assert runtime.watched == {}
        assert runtime.breaker(0).state == BREAKER_CLOSED

    def test_deadline_propagation_counts_drops(self):
        runtime = DefenseRuntime(DefenseConfig(deadline_s=0.3))
        assert not runtime.past_deadline(0.2, arrival_s=0.0)
        assert runtime.past_deadline(0.4, arrival_s=0.0)
        assert runtime.deadline_drops == 1

    def test_backoff_grows_and_caps(self):
        runtime = DefenseRuntime(DefenseConfig(backoff=Backoff(
            base_s=0.1, factor=2.0, cap_s=0.5, jitter=0.0,
        )))
        rng = np.random.default_rng(0)
        delays = [runtime.backoff_s(a, rng) for a in range(5)]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.5, 0.5])

    def test_backoff_jitter_is_seeded_and_bounded(self):
        runtime = DefenseRuntime(DefenseConfig(backoff=Backoff(
            base_s=0.1, jitter=0.5, cap_s=1.0,
        )))
        first = [runtime.backoff_s(0, np.random.default_rng(7))
                 for _ in range(10)]
        second = [runtime.backoff_s(0, np.random.default_rng(7))
                  for _ in range(10)]
        assert first == second  # same seed, same jitter
        assert all(0.05 <= d <= 0.15 for d in first)

    def test_backoff_is_the_armed_backoff(self):
        backoff = Backoff(base_s=0.1, factor=2.0, cap_s=0.5, jitter=0.5)
        runtime = DefenseRuntime(DefenseConfig(backoff=backoff))
        delays = [runtime.backoff_s(a, np.random.default_rng(7)) for a in range(5)]
        assert delays == [backoff.delay_s(a, np.random.default_rng(7)) for a in range(5)]
        assert delays[-1] > 0.2

    def test_retry_tokens_deny_when_exhausted(self):
        runtime = DefenseRuntime(DefenseConfig(
            retry_tokens_per_s=1.0, retry_token_burst=1.0,
        ))
        assert runtime.take_retry_token(0.0)
        assert not runtime.take_retry_token(0.0)
        assert runtime.retries_denied == 1


class TestBrownout:
    def _config(self):
        return BrownoutConfig(
            rungs=(
                BrownoutRung("full", 1.0, 0),
                BrownoutRung("cheap", 0.5, 0),
                BrownoutRung("tiny", 0.25, 1),
            ),
            enter_at=8.0, exit_at=4.0, step=4.0,
        )

    def test_hysteresis_escalates_and_descends(self):
        controller = BrownoutController(self._config())
        assert controller.on_route(0.0, outstanding=4, up_replicas=1) == 0
        assert controller.on_route(1.0, outstanding=9, up_replicas=1) == 1
        # Between exit (4) and the next enter (12): holds at level 1.
        assert controller.on_route(2.0, outstanding=6, up_replicas=1) == 1
        assert controller.on_route(3.0, outstanding=13, up_replicas=1) == 2
        assert controller.on_route(4.0, outstanding=1, up_replicas=1) == 0

    def test_priority_floor_sheds_best_effort_at_depth(self):
        controller = BrownoutController(self._config())
        controller.on_route(0.0, outstanding=20, up_replicas=1)  # -> tiny
        assert controller.admit(1)
        assert not controller.admit(0)
        assert controller.shed_below_floor == 1

    def test_rung_zero_must_be_full_service(self):
        with pytest.raises(ValueError):
            BrownoutConfig(rungs=(BrownoutRung("half", 0.5, 0),))

    def test_default_ladder_gets_monotonically_cheaper(self):
        ladder = default_ladder()
        multipliers = [r.service_multiplier for r in ladder.rungs]
        assert multipliers[0] == 1.0
        assert multipliers == sorted(multipliers, reverse=True)
        assert ladder.rungs[-1].priority_floor >= 1

    def test_tiny_multiplier_is_computed_once(self):
        from repro.chaos.brownout import _tiny_model_multiplier

        cached = _tiny_model_multiplier()
        assert _tiny_model_multiplier() is cached
        assert cached == _tiny_model_multiplier.__wrapped__()
        assert default_ladder().rungs[-1].service_multiplier == cached

    def test_ladder_quality_orders_by_damage(self):
        deltas = measure_ladder_quality(num_requests=6000, seed=0)
        assert set(deltas) == {"full", "fp16", "int8", "tiny"}
        # The control arm's own delta is the noise floor; the tiny
        # model's quality damage towers over it.
        assert abs(deltas["fp16"]) <= abs(deltas["tiny"])
        assert deltas["tiny"] > abs(deltas["full"]) + 0.005

    def test_quality_cost_weights_by_served(self):
        deltas = {"full": 0.0, "tiny": 0.1}
        cost = quality_cost_of_run((("full", 75), ("tiny", 25)), deltas)
        assert cost == pytest.approx(0.025)
        assert quality_cost_of_run((), deltas) == 0.0


class TestScenarios:
    def test_catalog_names_are_unique(self):
        names = [s.name for s in standard_catalog()]
        assert len(names) == len(set(names)) == 7

    def test_every_scenario_builds_against_the_default_topology(self):
        topo = CampaignConfig().topology()
        for scenario in standard_catalog():
            schedule = scenario.injections(topo)
            assert schedule, scenario.name
            assert all(i.time_s >= scenario.fault_at_s for i in schedule)

    def test_retry_storm_ships_impatient_clients(self):
        storm = scenario_by_name("retry_storm")
        assert storm.client is not None
        assert storm.client.max_retries is None

    def test_unknown_scenario_is_an_error(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario_by_name("solar_flare")


class TestCampaign:
    def test_headline_pair_on_the_smoke_fleet(self):
        config = smoke_config()
        storm = scenario_by_name("retry_storm")
        off = run_scenario(storm, config, defended=False)
        on = run_scenario(storm, config, defended=True)
        # The metastable signature: the fault clears, goodput does not.
        assert not off.recovered
        assert off.post_clear_goodput_ratio < 0.5
        assert on.recovered
        assert on.post_clear_goodput_ratio >= config.recovery_threshold
        # Conservation holds under the storm, defended or not.
        for outcome in (off, on):
            report = outcome.report
            assert (report.served + report.shed + report.timed_out
                    == report.offered)
        assert math.isinf(off.time_to_recovery_s)
        assert off.scalars()[
            "retry_storm.undefended.time_to_recovery_s"] == -1.0

    def test_scenario_runs_are_deterministic(self):
        config = smoke_config()
        scenario = scenario_by_name("single_host")
        first = run_scenario(scenario, config, defended=True)
        second = run_scenario(scenario, config, defended=True)
        assert first.report == second.report
        assert first.scalars() == second.scalars()

    def test_campaign_config_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(utilization=1.5)
        with pytest.raises(ValueError):
            CampaignConfig(recovery_threshold=0.0)


class TestByteIdentityContract:
    """Inert chaos hooks must not perturb the cluster simulator."""

    def _requests(self):
        rng = np.random.default_rng(3)
        clock, requests = 0.0, []
        for i in range(300):
            clock += float(rng.exponential(0.01))
            requests.append(Request(arrival_s=clock, samples=8, request_id=i))
        return requests

    def test_inert_hooks_leave_the_run_untouched(self):
        config = ClusterConfig(replicas=4, num_hosts=2, seed=11,
                               fault_rate_per_replica_hour=150.0)
        service = ServiceModel(mean_service_s=0.02, jitter_sigma=0.4)
        requests = self._requests()
        bare = run_cluster(config, service, requests)
        hooked = run_cluster(
            config, service, requests,
            defense=DefenseRuntime(DefenseConfig()),  # inert
            injections=(), brownout=None, client=None,
        )
        assert bare == hooked

    def test_priorities_default_to_zero_and_replace_cleanly(self):
        requests = self._requests()
        assert all(r.priority == 0 for r in requests)
        weighted = with_priorities(requests, (0.5, 0.3, 0.2), seed=0)
        assert len(weighted) == len(requests)
        assert {r.priority for r in weighted} <= {0, 1, 2}
        assert [r.arrival_s for r in weighted] == [
            r.arrival_s for r in requests
        ]
        again = with_priorities(requests, (0.5, 0.3, 0.2), seed=0)
        assert [r.priority for r in again] == [r.priority for r in weighted]


def test_campaign_scalars_cover_both_arms():
    config = dataclasses.replace(smoke_config(), duration_s=12.0)
    storm = scenario_by_name("single_host")
    off = run_scenario(storm, config, defended=False)
    on = run_scenario(storm, config, defended=True)
    assert set(off.scalars()) == {
        "single_host.undefended.post_clear_goodput",
        "single_host.undefended.time_to_recovery_s",
        "single_host.undefended.slo_breach_s",
        "single_host.undefended.unavailability",
    }
    assert all(key.startswith("single_host.defended.") for key in on.scalars())
