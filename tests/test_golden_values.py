"""Golden-value regression tests for the reproduction's headline claims.

Each test pins a seeded measurement with an explicit tolerance so a
refactor cannot silently move a number the paper comparison rests on.
The same claims are pinned on the benchmark side by
:data:`repro.obs.golden.GOLDEN_SCALARS`; these run in tier-1 so drift is
caught before the benchmarks ever run.

Tolerances: count-derived ratios under a fixed seed are exact, so they
get equality or a tight relative band; simulator latencies get a couple
of percent for cross-platform float slack.
"""

import pytest

import repro.codesign.objectives as objectives
import repro.codesign.search as search
from repro.chaos import (
    CampaignConfig as ChaosCampaignConfig,
    run_scenario,
    scenario_by_name,
)
from repro.chaos.campaign import RECOVERY_THRESHOLD
from repro.codesign import (
    CodesignObjective,
    SearchConfig,
    result_scalars,
    run_codesign_search,
    smoke_space,
)
from repro.models import figure6_models
from repro.obs.bench import golden_violations
from repro.sdc import CampaignConfig, run_campaign
from repro.serving import (
    CoalescingConfig,
    ModelJobProfile,
    max_throughput_under_slo,
)
from repro.serving.faults import (
    PoolState,
    headroom_for_fault_tolerance,
    inject_device_faults,
)


class TestSdcGoldens:
    """Section 5: the protection ladder's headline numbers (seed 0)."""

    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(CampaignConfig(trials=400, requests=8000, seed=0))

    def test_undetected_reduction_is_57x(self, result):
        # The flagship claim: ECC+ABFT leaves 57x fewer undetected
        # NE-impacting corruptions than running unprotected.
        assert result.undetected_impacting_ratio() == pytest.approx(
            57.0, rel=1e-9
        )

    def test_clean_ne_pinned(self, result):
        assert result.clean_ne == pytest.approx(0.6373322319208822, rel=1e-6)

    def test_full_profile_leaves_no_silent_impact(self, result):
        full = result.summary_for("full")
        assert full.coverage == 1.0
        assert full.undetected_ne_impacting == 0

    def test_coverage_ladder_counts_pinned(self, result):
        # (coverage, undetected, undetected-NE-impacting) per profile.
        ladder = {
            s.profile.name: (s.coverage, s.undetected, s.undetected_ne_impacting)
            for s in result.profiles
        }
        assert ladder["none"] == (0.0, 400, 57)
        assert ladder["ecc"] == (pytest.approx(0.6125), 155, 44)
        assert ladder["ecc+abft"] == (pytest.approx(0.94), 24, 1)
        assert ladder["full"] == (1.0, 0, 0)


class TestChaosGoldens:
    """Section 5.5: the retry-storm headline (seed 0).

    The same pair the ``sec5_chaos`` benchmark goldens pin: undefended
    the storm is metastable, defended the tier recovers immediately.
    """

    @pytest.fixture(scope="class")
    def storm_pair(self):
        config = ChaosCampaignConfig()
        storm = scenario_by_name("retry_storm")
        return (
            config,
            run_scenario(storm, config, defended=False),
            run_scenario(storm, config, defended=True),
        )

    def test_undefended_storm_is_metastable(self, storm_pair):
        _, off, _ = storm_pair
        assert not off.recovered
        assert off.post_clear_goodput_ratio == pytest.approx(
            0.0009628610729023383, rel=1.0
        )
        assert off.unavailability == pytest.approx(
            0.7263043113571548, rel=0.05
        )

    def test_defended_storm_recovers_immediately(self, storm_pair):
        config, _, on = storm_pair
        assert on.recovered
        assert on.time_to_recovery_s == 0.0
        assert on.post_clear_goodput_ratio == pytest.approx(
            0.9973865199449794, rel=0.01
        )
        assert on.post_clear_goodput_ratio >= RECOVERY_THRESHOLD


class TestFleetGoldens:
    """The global region-outage capacity study verdict (seed 0).

    The same claims the ``sec5_fleet`` benchmark goldens pin, via the
    smoke sweep (which keeps both verdict sizes, so the numbers are
    identical to the full study's).
    """

    @pytest.fixture(scope="class")
    def study(self):
        from repro.fleet_global.capacity import smoke_study

        return smoke_study()

    def test_quiet_day_minimum_pinned(self, study):
        assert study.baseline_replicas == 4

    def test_outage_survival_costs_25_percent_overprovision(self, study):
        assert study.defended_replicas == 5
        assert study.overprovision_fraction == pytest.approx(0.25, rel=1e-9)

    def test_no_size_survives_undefended(self, study):
        assert study.undefended_replicas is None

    def test_verdict_point_fractions_pinned(self, study):
        point = study.point(5)
        assert point.undefended.loss_fraction == pytest.approx(
            0.19355545813239808, rel=0.05
        )
        assert point.defended.loss_fraction == pytest.approx(
            0.018851380973257344, rel=0.10
        )
        assert point.defended.p99_latency_s == pytest.approx(
            0.09661823659750723, rel=0.05
        )
        assert point.defended.regions[0].detection_lag_s == pytest.approx(
            0.8, rel=1e-6
        )


class TestHeadroomGoldens:
    """Section 5.4/5.5: closed-form headroom equals exhaustive search."""

    def _exhaustive(self, pool, fault_rate, max_delay_factor=1.5):
        target_utilization = 1.0 - 1.0 / max_delay_factor
        total = pool.devices
        while True:
            impact = inject_device_faults(
                PoolState(total, pool.device_throughput, pool.offered_load),
                fault_rate,
            )
            if (not impact.after.overloaded
                    and impact.after.utilization <= target_utilization):
                return total - pool.devices
            total += 1

    def test_closed_form_matches_exhaustive_search(self):
        for devices in (10, 37, 128, 300):
            for fault_rate in (0.0, 0.001, 0.01, 0.05, 0.2):
                for utilization in (0.5, 0.75, 0.9):
                    pool = PoolState(
                        devices=devices,
                        device_throughput=1000.0,
                        offered_load=devices * 1000.0 * utilization,
                    )
                    assert headroom_for_fault_tolerance(
                        pool, fault_rate
                    ) == self._exhaustive(pool, fault_rate), (
                        devices, fault_rate, utilization,
                    )

    def test_reference_pool_headroom_pinned(self):
        # The section 5.5 incident shape: 300 devices at 85% utilization
        # facing a 0.1% wedge incidence needs 466 extra devices to keep
        # queueing delay under 1.5x (the 1.5x budget caps utilization at
        # 1/3, so the pool must more than double).
        pool = PoolState(
            devices=300, device_throughput=1000.0, offered_load=255_000.0
        )
        assert headroom_for_fault_tolerance(pool, 0.001) == 466


class TestCoalescingGoldens:
    """Section 4.1: tuned coalescing reaches near-full batches.

    The paper's claim label is '>95% requests per batch'; our simulator's
    tuned configuration measures ~92% mean fill (see EXPERIMENTS.md for
    the paper-vs-measured discussion), and that measured value is what
    gets pinned.
    """

    def test_tuned_fill_fraction_pinned(self):
        outcome = max_throughput_under_slo(
            ModelJobProfile(
                remote_time_s=0.002,
                merge_time_s=0.004,
                remote_jobs_per_batch=2,
                dispatch_overhead_s=0.0005,
            ),
            CoalescingConfig(
                window_s=0.030, max_parallel_windows=4, max_batch_samples=1024
            ),
            duration_s=10.0,
            iterations=5,
        )
        assert outcome.meets_slo
        assert outcome.mean_fill_fraction == pytest.approx(
            0.9230967930385044, rel=0.02
        )
        assert outcome.mean_fill_fraction > 0.6



class _UncachedObjective(CodesignObjective):
    """The objective before its exact-result cache: only the base chip's
    per-sample latency was kept, per model, and every device and serving
    evaluation re-ran ``tune_placement`` and ``required_shards``.  The
    methods are the retired ones verbatim, except that they reach both
    functions through the objectives module, so one patch counts the
    placement runs of either objective."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._reference_latency = {}

    def reference_sample_latency(self, model):
        if model.name not in self._reference_latency:
            self._reference_latency[model.name] = self._device_latency(
                self.base_chip, model
            )[1]
        return self._reference_latency[model.name]

    def _device_latency(self, chip, model):
        decision = objectives.tune_placement(
            self.stable_builder(model), model.batch, chip
        )
        report = decision.report
        batch_latency = report.latency_s + model.host_overhead_s_per_batch
        return (
            batch_latency,
            batch_latency / report.batch,
            report.avg_power_w,
        )

    def _device_shards(self, chip, model):
        return objectives.required_shards(
            self.stable_builder(model)(model.batch), chip
        )


def _sec6_search(objective_cls):
    """The pinned ``sec6_codesign`` search scored by ``objective_cls``,
    plus every ``tune_placement`` call as (chip repr, model name)."""
    tune_placement = objectives.tune_placement
    calls = []

    def counted(build_graph, batch, chip):
        decision = tune_placement(build_graph, batch, chip)
        calls.append((repr(chip), decision.report.model_name))
        return decision

    models = [m for m in figure6_models() if m.name in ("LC1", "LC3", "HC1")]
    config = SearchConfig(
        seed=0, iterations=40, device_rung_keep=10, serving_rung_keep=5,
        train_chips=10,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(objectives, "tune_placement", counted)
        patch.setattr(search, "CodesignObjective", objective_cls)
        result = run_codesign_search(smoke_space(), models, config, duration_s=4.0)
    return result, calls


class TestCodesignGoldens:
    """Section 6: the co-design search (the ``sec6_codesign`` scenario).

    The search pays each exact (chip, model) result once: the cached
    objective gives the same result, bit for bit, as the uncached one it
    replaced, with fewer placement runs.
    """

    @pytest.fixture(scope="class")
    def cached(self):
        return _sec6_search(CodesignObjective)

    @pytest.fixture(scope="class")
    def uncached(self):
        return _sec6_search(_UncachedObjective)

    def test_scalars_match_pinned_goldens(self, cached):
        result, _ = cached
        results = {"benchmarks": {"sec6_codesign": {"scalars": result_scalars(result)}}}
        assert golden_violations(results) == []

    def test_identical_to_uncached_objective(self, cached, uncached):
        assert cached[0] == uncached[0]
        assert result_scalars(cached[0]) == result_scalars(uncached[0])

    def test_one_placement_run_per_chip_model_pair(self, cached, uncached):
        calls, uncached_calls = cached[1], uncached[1]
        assert len(calls) == len(set(calls))
        assert set(calls) == set(uncached_calls)
        # The device-rung finalists re-scored at the serving rung and the
        # MTIA 2i anchor (the base chip) no longer re-run placement.
        assert (len(calls), len(uncached_calls)) == (36, 54)
