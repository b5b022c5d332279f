"""Tests for repro.power: activity, thermal, DVFS, capping, provisioning,
and the cluster coupling."""

import dataclasses

import numpy as np
import pytest

from repro.arch.mtia import mtia2i_spec
from repro.cluster.service import default_service_model
from repro.cluster.simulator import ClusterConfig, run_cluster
from repro.models.zoo import hc1
from repro.obs import MetricsRegistry
from repro.perf.executor import Executor
from repro.power import (
    DEFAULT_LADDER_HZ,
    THROTTLE_LIMIT_C,
    DvfsConfig,
    DvfsGovernor,
    RcStage,
    ThermalNetwork,
    ThrottleSchedule,
    ThroughputCurve,
    activity_trace,
    calibrate_throughput,
    capping_study,
    chip_power_w,
    dynamic_power_w,
    mtia2i_thermal,
    overclock_with_thermal_feedback,
    power_limited_capacity_sweep,
    service_model_at_budget,
    time_domain_provisioning,
    utilization_profile,
    water_fill,
)
from repro.power.capping import PerChipCapController, ServerCapController, run_capping
from repro.reliability.overclock import DESIGN_FREQUENCY_HZ
from repro.serving.workload import poisson_stream
from repro.units import GHZ


def _linear_curve(slope: float = 0.85) -> ThroughputCurve:
    freqs = tuple(sorted(set(DEFAULT_LADDER_HZ) | {DESIGN_FREQUENCY_HZ}))
    return ThroughputCurve(
        freqs,
        tuple(slope * (f / DESIGN_FREQUENCY_HZ) + (1 - slope) for f in freqs),
    )


class TestActivity:
    def test_trace_integral_matches_executor_energy(self):
        chip = mtia2i_spec()
        model = hc1()
        report = Executor(chip).run(model.graph(), model.batch, warmup_runs=1)
        trace = activity_trace(report, chip)
        assert trace.energy_j == pytest.approx(report.energy_j, rel=1e-9)
        assert trace.avg_power_w == pytest.approx(report.avg_power_w, rel=1e-9)

    def test_trace_components_are_nonnegative_and_sum(self):
        chip = mtia2i_spec()
        model = hc1()
        report = Executor(chip).run(model.graph(), model.batch, warmup_runs=1)
        trace = activity_trace(report, chip)
        for segment in trace.segments:
            assert segment.compute_w >= 0
            assert segment.sram_w >= 0
            assert segment.lpddr_w >= 0
            assert segment.leakage_w > 0
        components = trace.component_energy_j()
        assert sum(components.values()) == pytest.approx(trace.energy_j)

    def test_hot_trace_draws_more(self):
        chip = mtia2i_spec()
        model = hc1()
        report = Executor(chip).run(model.graph(), model.batch, warmup_runs=1)
        cold = activity_trace(report, chip, temperature_c=60.0)
        hot = activity_trace(report, chip, temperature_c=100.0)
        assert hot.energy_j > cold.energy_j

    def test_resample_preserves_energy(self):
        chip = mtia2i_spec()
        model = hc1()
        report = Executor(chip).run(model.graph(), model.batch, warmup_runs=1)
        trace = activity_trace(report, chip)
        _, powers = trace.resample(trace.duration_s / 50)
        resampled_energy = float(np.sum(powers) * trace.duration_s / 50)
        assert resampled_energy == pytest.approx(trace.energy_j, rel=0.03)

    def test_dynamic_power_scales_superlinearly_with_frequency(self):
        chip = mtia2i_spec()
        low = dynamic_power_w(chip, 1.0 * GHZ, 1.0)
        high = dynamic_power_w(chip, 1.35 * GHZ, 1.0)
        assert high / low > 1.35 / 1.0  # f * V(f)^2, not just f

    def test_utilization_profile_bounds_and_determinism(self):
        a = utilization_profile(100, 1.0, seed=5)
        b = utilization_profile(100, 1.0, seed=5)
        assert np.array_equal(a, b)
        assert np.all(a >= 0.02) and np.all(a <= 1.0)


class TestThermal:
    def test_steady_state_closed_form(self):
        net = mtia2i_thermal()
        power = 60.0
        expected = net.ambient_c + power * net.total_resistance_c_per_w
        assert net.steady_junction_c(power) == pytest.approx(expected)

    def test_stepping_converges_to_steady_state(self):
        net = mtia2i_thermal()
        temps, _ = net.settle(65.0, tolerance_c=0.01)
        target = net.steady_state(65.0)
        assert np.max(np.abs(temps - target)) <= 0.02

    def test_large_dt_is_substepped_stably(self):
        net = mtia2i_thermal()
        temps = net.initial_state()
        for _ in range(20):
            temps = net.step(temps, 80.0, 120.0)  # dt >> stability limit
        assert np.all(np.isfinite(temps))
        assert float(temps[0]) <= net.steady_junction_c(80.0) + 0.5

    def test_zero_power_stays_at_ambient(self):
        net = mtia2i_thermal()
        temps = net.step(net.initial_state(), 0.0, 100.0)
        assert np.allclose(temps, net.ambient_c)

    def test_invalid_networks_rejected(self):
        with pytest.raises(ValueError):
            ThermalNetwork(stages=())
        with pytest.raises(ValueError):
            RcStage("bad", heat_capacity_j_per_c=0.0, resistance_c_per_w=1.0)
        with pytest.raises(ValueError):
            RcStage("bad", heat_capacity_j_per_c=1.0, resistance_c_per_w=-1.0)


class TestLeakage:
    def test_reference_temperature_matches_legacy_idle_power(self):
        chip = mtia2i_spec()
        legacy = chip.typical_watts * chip.idle_power_fraction
        assert chip.leakage_power_w(None) == pytest.approx(legacy)
        assert chip.leakage_power_w(chip.leakage_ref_temp_c) == pytest.approx(legacy)

    def test_leakage_grows_with_temperature(self):
        chip = mtia2i_spec()
        assert chip.leakage_power_w(100.0) > chip.leakage_power_w(60.0)

    def test_executor_energy_unchanged_without_temperature(self):
        chip = mtia2i_spec()
        model = hc1()
        graph = model.graph()  # one graph: executions are then identical
        baseline = Executor(chip).run(graph, model.batch, warmup_runs=1)
        explicit = Executor(chip, temperature_c=chip.leakage_ref_temp_c).run(
            graph, model.batch, warmup_runs=1
        )
        assert explicit.energy_j == pytest.approx(baseline.energy_j, rel=1e-9)

    def test_hot_executor_burns_more_energy(self):
        chip = mtia2i_spec()
        model = hc1()
        graph = model.graph()
        cold = Executor(chip, temperature_c=60.0).run(
            graph, model.batch, warmup_runs=1
        )
        hot = Executor(chip, temperature_c=105.0).run(
            graph, model.batch, warmup_runs=1
        )
        assert hot.energy_j > cold.energy_j
        assert hot.latency_s == cold.latency_s  # leakage, not slowdown


class TestDvfs:
    def test_curve_interpolation_and_clamping(self):
        curve = _linear_curve()
        assert curve.relative(DESIGN_FREQUENCY_HZ) == pytest.approx(1.0)
        assert curve.relative(0.1 * GHZ) == curve.relative_throughput[0]
        assert curve.relative(9.9 * GHZ) == curve.relative_throughput[-1]
        mid = curve.relative(1.15 * GHZ)
        assert curve.relative(1.1 * GHZ) < mid < curve.relative(1.2 * GHZ)

    def test_calibrated_curve_is_monotone_and_normalized(self):
        curve = calibrate_throughput(hc1())
        assert curve.relative(DESIGN_FREQUENCY_HZ) == pytest.approx(1.0)
        values = curve.relative_throughput
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        # End-to-end speedup is sub-linear in frequency: memory stays put.
        top = curve.frequencies_hz[-1]
        assert curve.relative(top) <= top / DESIGN_FREQUENCY_HZ + 1e-9

    def test_governor_throttles_over_limit(self):
        chip = mtia2i_spec()
        config = DvfsConfig()
        governor = DvfsGovernor(chip, config, fmax_hz=1.6 * GHZ)
        start = governor.index
        governor.step(THROTTLE_LIMIT_C + 5.0, 0.8)
        assert governor.index == start - 1
        assert governor.thermal_throttles == 1

    def test_governor_ramps_up_when_cool(self):
        chip = mtia2i_spec()
        governor = DvfsGovernor(chip, DvfsConfig(), fmax_hz=1.6 * GHZ)
        for _ in range(len(DEFAULT_LADDER_HZ)):
            governor.step(60.0, 0.5)
        assert governor.frequency_hz == DEFAULT_LADDER_HZ[-1]

    def test_weak_chip_is_capped_by_its_margin(self):
        chip = mtia2i_spec()
        # fmax 1.30 GHz with 1.05 qualification only clears 1.2 GHz.
        governor = DvfsGovernor(chip, DvfsConfig(), fmax_hz=1.30 * GHZ)
        for _ in range(len(DEFAULT_LADDER_HZ)):
            governor.step(60.0, 0.5)
        assert governor.frequency_hz == pytest.approx(1.2 * GHZ)

    def test_power_cap_blocks_ramp(self):
        chip = mtia2i_spec()
        config = DvfsConfig(power_cap_w=40.0)
        governor = DvfsGovernor(chip, config, fmax_hz=1.6 * GHZ)
        for _ in range(len(DEFAULT_LADDER_HZ)):
            governor.step(60.0, 1.0)
        assert chip_power_w(chip, governor.frequency_hz, 1.0, 60.0) <= 40.0

    def test_governed_gain_lands_in_paper_band(self):
        result = overclock_with_thermal_feedback(
            _linear_curve(), num_chips=12, duration_s=300.0, seed=0
        )
        assert 0.05 <= result.mean_gain <= 0.20
        assert result.thermal_throttles > 0
        assert result.peak_junction_c > 95.0

    def test_governed_study_is_deterministic(self):
        a = overclock_with_thermal_feedback(
            _linear_curve(), num_chips=6, duration_s=120.0, seed=9
        )
        b = overclock_with_thermal_feedback(
            _linear_curve(), num_chips=6, duration_s=120.0, seed=9
        )
        assert a.chip_gains == b.chip_gains
        assert a.example_run == b.example_run


class TestCapping:
    def test_water_fill_conserves_budget(self):
        demands = np.array([10.0, 50.0, 5.0, 80.0])
        alloc = water_fill(demands, 100.0)
        assert float(alloc.sum()) == pytest.approx(100.0)
        assert np.all(alloc <= demands + 1e-9)

    def test_water_fill_satisfies_everyone_under_loose_budget(self):
        demands = np.array([10.0, 20.0, 30.0])
        alloc = water_fill(demands, 100.0)
        assert np.allclose(alloc, demands)

    def test_per_chip_beats_server_level_on_p99(self):
        comparison = capping_study(duration_s=200.0, seed=0)
        assert comparison.per_chip.p99_deficit < comparison.server_level.p99_deficit

    def test_per_chip_never_violates_cap(self):
        comparison = capping_study(duration_s=200.0, seed=1)
        assert comparison.per_chip.cap_violation_fraction == 0.0
        # The lagged server-level loop does overshoot sometimes.
        assert comparison.server_level.cap_violation_fraction >= 0.0

    def test_controllers_respect_tape_shape(self):
        chip = mtia2i_spec()
        tape = np.full((4, 30), 0.5)
        budget = 4 * chip_power_w(chip, DEFAULT_LADDER_HZ[-1], 0.5)
        for controller in (
            PerChipCapController(chip, 4, budget),
            ServerCapController(chip, 4, budget),
        ):
            outcome = run_capping(controller, tape)
            assert len(outcome.deficits) == 30
            assert outcome.delivered_fraction <= 1.0 + 1e-9


class TestProvisioning:
    def test_reduction_lands_near_paper(self):
        outcome = time_domain_provisioning(num_servers=20, duration_s=300.0, seed=0)
        assert 0.30 <= outcome.reduction_fraction <= 0.50
        assert outcome.matches_paper

    def test_revised_budget_is_max_of_prongs(self):
        outcome = time_domain_provisioning(num_servers=10, duration_s=200.0, seed=2)
        assert outcome.revised_budget_w == pytest.approx(
            max(outcome.experiment_budget_w, outcome.fleet_budget_w)
        )

    def test_revised_budget_covers_observed_mean(self):
        outcome = time_domain_provisioning(num_servers=10, duration_s=200.0, seed=3)
        assert outcome.revised_budget_w > outcome.mean_server_power_w


class TestClusterCoupling:
    def test_no_throttle_is_byte_identical_to_unit_schedule(self):
        service = default_service_model()
        config = ClusterConfig(replicas=6, seed=4)
        requests = poisson_stream(200.0, 5.0, seed=4)
        plain = run_cluster(config, service, requests)
        unit = run_cluster(
            config, service, requests, throttle=ThrottleSchedule.constant(1.0)
        )
        assert plain.event_log == unit.event_log
        assert plain.latencies_s == unit.latencies_s

    def test_throttling_raises_latency(self):
        service = default_service_model()
        config = ClusterConfig(replicas=6, seed=4)
        requests = poisson_stream(200.0, 5.0, seed=4)
        plain = run_cluster(config, service, requests)
        slowed = run_cluster(
            config, service, requests, throttle=ThrottleSchedule.constant(1.5)
        )
        assert slowed.p99_latency_s > plain.p99_latency_s

    def test_schedule_lookup_is_piecewise_constant(self):
        schedule = ThrottleSchedule(times_s=(0.0, 10.0), multipliers=(1.0, 2.0))
        assert schedule.multiplier(-5.0) == 1.0
        assert schedule.multiplier(9.99) == 1.0
        assert schedule.multiplier(10.0) == 2.0
        assert schedule.multiplier(1e9) == 2.0

    def test_schedule_from_frequency_trace(self):
        schedule = ThrottleSchedule.from_frequency_trace(
            times_s=(0.0, 1.0), frequencies_hz=(1.35 * GHZ, 0.9 * GHZ),
            nominal_hz=1.35 * GHZ,
        )
        assert schedule.multiplier(0.5) == pytest.approx(1.0)
        assert schedule.multiplier(1.5) == pytest.approx(1.5)

    def test_service_model_at_budget_scales_mean(self):
        service = default_service_model()
        chip = mtia2i_spec()
        starved, freq = service_model_at_budget(service, 30.0, chip=chip)
        assert freq < chip.frequency_hz
        assert starved.mean_service_s > service.mean_service_s
        rich, freq_rich = service_model_at_budget(service, 500.0, chip=chip)
        assert freq_rich == DEFAULT_LADDER_HZ[-1]
        assert rich.mean_service_s == pytest.approx(service.mean_service_s)

    def test_power_limited_sweep_is_monotone_with_knee(self):
        service = default_service_model()
        budgets = (1200.0, 2000.0, 2600.0)
        sweep = power_limited_capacity_sweep(
            service, budgets, replicas=8, duration_s=6.0, seed=0
        )
        qps = [p.max_qps for p in sweep.points]
        assert all(a <= b + 1e-9 for a, b in zip(qps, qps[1:]))
        assert sweep.knee_budget_w in budgets
        frequencies = [p.frequency_hz for p in sweep.points]
        assert all(a <= b for a, b in zip(frequencies, frequencies[1:]))


class TestObservability:
    def test_registry_does_not_change_outcomes(self):
        registry = MetricsRegistry(enabled=True)
        observed = overclock_with_thermal_feedback(
            _linear_curve(), num_chips=4, duration_s=60.0, seed=3,
            registry=registry,
        )
        silent = overclock_with_thermal_feedback(
            _linear_curve(), num_chips=4, duration_s=60.0, seed=3
        )
        assert observed.chip_gains == silent.chip_gains
        assert registry.gauge("power.dvfs.mean_gain").value == pytest.approx(
            observed.mean_gain
        )

    def test_capping_and_provisioning_emit_metrics(self):
        registry = MetricsRegistry(enabled=True)
        capping_study(duration_s=30.0, seed=0, registry=registry)
        time_domain_provisioning(
            num_servers=2, duration_s=30.0, seed=0, registry=registry
        )
        snapshot = registry.snapshot()
        assert "power.cap.per_chip.p99_deficit" in snapshot["gauges"]
        assert "power.provisioning.reduction_fraction" in snapshot["gauges"]
        assert snapshot["series"]["power.provisioning.server_w"]

    def test_disabled_registry_emits_nothing(self):
        registry = MetricsRegistry(enabled=False)
        capping_study(duration_s=30.0, seed=0, registry=registry)
        snapshot = registry.snapshot()
        assert not snapshot["gauges"] and not snapshot["series"]


class TestThrottleScheduleValidation:
    def test_rejects_bad_schedules(self):
        with pytest.raises(ValueError):
            ThrottleSchedule(times_s=(), multipliers=())
        with pytest.raises(ValueError):
            ThrottleSchedule(times_s=(1.0, 0.0), multipliers=(1.0, 1.0))
        with pytest.raises(ValueError):
            ThrottleSchedule(times_s=(0.0,), multipliers=(0.0,))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DvfsConfig(ladder_hz=(2.0 * GHZ, 1.0 * GHZ))
        with pytest.raises(ValueError):
            DvfsConfig(thermal_limit_c=90.0, thermal_target_c=95.0)
        with pytest.raises(ValueError):
            dataclasses.replace(DvfsConfig(), qualification_margin=0.5)


def test_power_no_longer_reexports_the_capacity_scan():
    """``max_qps_at_slo`` lives in ``repro.cluster.capacity`` only."""
    import repro.power
    import repro.power.cluster_link

    assert not hasattr(repro.power, "max_qps_at_slo")
    assert "max_qps_at_slo" not in repro.power.__all__
    assert "max_qps_at_slo" not in repro.power.cluster_link.__all__
