"""Smaller-than-before checks for the settable values of ``src/repro``.

A settable value is a defaulted function parameter (``__init__``
included) or a defaulted dataclass field that ``__init__`` accepts.
Each one that no caller set became a module constant or an inlined
literal; these checks pin the smaller total and keep the retired knobs
gone.  The setter fence keeps it that way: every settable value has a
setter on some program path, or a stated reason in ``KEPT``.
"""

import ast
import collections
import dataclasses
import importlib
import inspect
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"


def _decorator_names(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        yield getattr(target, "id", getattr(target, "attr", None))


def _defaulted_fields(node):
    """Names of the class body's defaulted fields that ``__init__`` takes."""
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign) and stmt.value is not None):
            continue
        if "ClassVar" in ast.unparse(stmt.annotation):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and getattr(
            value.func, "id", getattr(value.func, "attr", None)
        ) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            if "default" not in keywords and "default_factory" not in keywords:
                continue
        yield stmt.target.id


def settable_values():
    """``(file, owner, name)`` for every settable value in ``src/repro``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        rel = str(path.relative_to(SRC))
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                is_record = "dataclass" in set(_decorator_names(node)) or any(
                    getattr(base, "id", getattr(base, "attr", None)) == "NamedTuple"
                    for base in node.bases
                )
                if is_record:
                    found.extend((rel, node.name, name) for name in _defaulted_fields(node))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                found.extend(
                    (rel, node.name, arg.arg)
                    for arg in positional[len(positional) - len(args.defaults):]
                )
                found.extend(
                    (rel, node.name, arg.arg)
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                )
    return found


def test_settable_value_count_stays_down():
    # 1,008 before the values that no caller set became constants; 712
    # before the surrogate-guided capacity and power searches went; 697
    # before the process pool and the models only tests reached went; 684
    # before the GEMM kernel surrogate and the kernel-latency memo went;
    # 667 before the census left only program-read members and the
    # explicit-``rng`` knobs went; 641 before the hooks and mode switches
    # only tests turned on went; 621 before the recovery settings that
    # run at one value became constants; 578 before the model parameters
    # that run at one value (DVFS, margin, screening, fleet, autoscaler,
    # resilience, TCO, executor, brownout) became constants.
    assert len(settable_values()) <= 492


# Owners deleted whole: a deleted owner takes no knob.
DELETED_OWNERS = {
    ("repro.fastsim.memo", "KernelLatencyMemo"),
    ("repro.surrogate.dataset", "train_gemm_surrogate"),
    ("repro.power.thermal", "gpu_thermal"),
    ("repro.fleet_global.drills", "global_firmware_rollout"),
    ("repro.power.thermal", "ThermalNetwork.settle"),
    ("repro.resilience.policies", "Backoff"),
    ("repro.resilience.policies", "RetryPolicy"),
    ("repro.resilience.policies", "ClientRetryConfig"),
    ("repro.resilience.policies", "HedgePolicy"),
    ("repro.resilience.policies", "DrainPolicy"),
    ("repro.resilience.policies", "LoadShedPolicy"),
    ("repro.resilience.policies", "AdmissionConfig"),
    ("repro.resilience.policies", "RolloutPolicy"),
    ("repro.resilience.policies", "ResiliencePolicies"),
    ("repro.resilience.policies", "BreakerConfig"),
    ("repro.resilience.policies", "DefenseConfig"),
    ("repro.fleet_global.failover", "FailoverConfig"),
    ("repro.power.dvfs", "DvfsConfig"),
    ("repro.reliability.overclock", "MarginModel"),
    ("repro.sdc.screening", "FleetScreeningModel"),
}


@pytest.mark.parametrize("module, owner, name", [
    ("repro.chaos.campaign", "CampaignConfig", "window_s"),
    ("repro.chaos.campaign", "CampaignConfig", "defense"),
    ("repro.chaos.campaign", "CampaignConfig", "priority_weights"),
    ("repro.sdc.campaign", "CampaignConfig", "screening"),
    ("repro.sdc.campaign", "CampaignConfig", "ne_threshold"),
    ("repro.sdc.campaign", "run_campaign", "profiles"),
    ("repro.sdc.campaign", "run_campaign", "pipeline"),
    ("repro.cluster.capacity", "autoscaled_day", "burst_factor"),
    ("repro.cluster.capacity", "autoscaled_day", "predictive"),
    ("repro.cluster.capacity", "locality_comparison", "num_shards"),
    ("repro.cluster.capacity", "max_qps_at_slo", "qps_step_fraction"),
    ("repro.cluster.capacity", "replicas_needed", "admission"),
    ("repro.cluster.capacity", "policy_comparison", "admission"),
    ("repro.power.dvfs", "overclock_with_thermal_feedback", "ambient_spread_c"),
    ("repro.power.capping", "capping_study", "budget_fraction"),
    ("repro.power.provisioning", "time_domain_provisioning", "optimized_power_factor"),
    ("repro.power.cluster_link", "power_limited_capacity_sweep", "platform_power_w"),
    ("repro.power.thermal", "mtia2i_thermal", "ambient_c"),
    ("repro.power.thermal", "gpu_thermal", "ambient_c"),
    ("repro.power.thermal", "ThermalNetwork.settle", "max_time_s"),
    ("repro.surrogate.dataset", "train_gemm_surrogate", "n_rounds"),
    ("repro.surrogate.model", "SurrogateModel", "learning_rate"),
    ("repro.fleet_global.regions", "RegionSpec", "platform_power_w"),
    ("repro.fleet_global.regions", "FleetConfig", "p99_slo_s"),
    ("repro.fleet_global.drills", "global_firmware_rollout", "plan"),
    ("repro.resilience.scenario", "run_section_55_drill", "job_profile"),
    ("repro.resilience.policies", "RolloutPolicy", "plan"),
    ("repro.codesign.search", "SearchConfig", "chain_weights"),
    ("repro.codesign.search", "run_codesign_search", "base_chip"),
    ("repro.reliability.errors", "NumericDlrm", "hidden"),
    ("repro.tco.model", "CostInputs", "electricity_usd_per_kwh"),
    ("repro.serving.workload", "DiurnalTrafficModel", "floor_fraction"),
    ("repro.core.codesign", "Mtia2iSystem", "chip"),
    ("repro.cluster.capacity", "replicas_needed", "surrogate"),
    ("repro.cluster.capacity", "replicas_needed", "registry"),
    ("repro.cluster.capacity", "capacity_sweep", "surrogate"),
    ("repro.power.cluster_link", "power_limited_capacity_sweep", "surrogate"),
    ("repro.autotune.tuner", "autotune_model", "surrogate"),
    ("repro.codesign.objectives", "CodesignObjective", "surrogate"),
    ("repro.surrogate.model", "SurrogateModel", "log_targets"),
    ("repro.cluster.capacity", "capacity_sweep", "processes"),
    ("repro.fleet_global.capacity", "run_capacity_study", "processes"),
    ("repro.fastsim.memo", "KernelLatencyMemo", "recorder"),
    ("repro.autotune.kernel_tuner", "measure_variant", "memo"),
    ("repro.autotune.kernel_tuner", "exhaustive_tune", "memo"),
    ("repro.autotune.kernel_tuner", "ann_tune", "memo"),
    # One way to seed: ``seed`` alone, no explicit generator that wins
    # over it.
    ("repro.reliability.overclock", "run_overclocking_study", "rng"),
    ("repro.fleet.server_sim", "production_utilization", "rng"),
    ("repro.fleet.abtest", "run_ab_test", "rng"),
    ("repro.fleet.abtest", "SyntheticCtrModel.sample", "rng"),
    ("repro.fleet_global.simulator", "run_fleet", "extra_injections"),
    # Hooks and mode switches only tests turned on.
    ("repro.cluster.simulator", "ClusterSimulator", "throttle"),
    ("repro.cluster.simulator", "run_cluster", "throttle"),
    ("repro.fleet_global.simulator", "_plain_region_run", "throttle"),
    ("repro.fleet_global.regions", "RegionSpec", "power_budget_w_per_server"),
    ("repro.resilience.policies", "AdmissionConfig", "max_total_outstanding"),
    ("repro.resilience.policies", "ClientRetryConfig", "max_retries"),
    ("repro.resilience.policies", "ResiliencePolicies", "drain"),
    ("repro.resilience.policies", "DrainPolicy", "health_check_interval_s"),
    ("repro.resilience.policies", "DrainPolicy", "failures_to_drain"),
    ("repro.resilience.policies", "DrainPolicy", "drain_grace_s"),
    ("repro.resilience.device", "Device", "consecutive_health_failures"),
    ("repro.resilience.simulator", "ResilienceSimulator._on_reboot_done", "patch"),
    ("repro.fleet_global.drills", "RegionEvent", "magnitude"),
    ("repro.power.dvfs", "DvfsConfig", "power_cap_w"),
    ("repro.power.dvfs", "DvfsGovernor.step", "utilization"),
    ("repro.power.dvfs", "ThermalFeedbackResult", "cap_throttles"),
    ("repro.codesign.space", "derive_chip", "sram_bandwidth_bytes_per_s"),
    ("repro.codesign.objectives", "CodesignObjective", "base_chip"),
    # Recovery settings that run at one value, now module constants.
    ("repro.resilience.policies", "Backoff", "base_s"),
    ("repro.resilience.policies", "Backoff", "jitter"),
    ("repro.resilience.policies", "RetryPolicy", "timeout_s"),
    ("repro.resilience.policies", "RetryPolicy", "max_attempts"),
    ("repro.resilience.policies", "ClientRetryConfig", "timeout_s"),
    ("repro.resilience.policies", "HedgePolicy", "hedge_after_s"),
    ("repro.resilience.policies", "DrainPolicy", "reboot_mttr_s"),
    ("repro.resilience.policies", "LoadShedPolicy", "max_utilization"),
    ("repro.resilience.policies", "AdmissionConfig",
     "max_outstanding_per_replica"),
    ("repro.resilience.policies", "RolloutPolicy", "detection_delay_s"),
    ("repro.resilience.policies", "ResiliencePolicies", "retry"),
    ("repro.resilience.policies", "BreakerConfig", "failure_threshold"),
    ("repro.resilience.policies", "BreakerConfig", "cooldown_s"),
    ("repro.resilience.policies", "DefenseConfig", "deadline_s"),
    ("repro.resilience.policies", "DefenseConfig", "retry_tokens_per_s"),
    ("repro.resilience.policies", "DefenseRuntime", "config"),
    ("repro.resilience.policies", "CircuitBreaker", "config"),
    ("repro.cluster.simulator", "ClusterConfig", "admission"),
    ("repro.resilience.metrics", "evaluate_interval", "policies"),
    ("repro.resilience.simulator", "run_resilience", "policies"),
    ("repro.fleet_global.failover", "FailoverConfig", "probe_interval_s"),
    ("repro.fleet_global.failover", "FailoverConfig", "max_spill_load"),
    ("repro.fleet_global.failover", "HealthMonitor", "config"),
    ("repro.fleet_global.failover", "SpillRouter", "config"),
    ("repro.fleet_global.failover", "SpillRouter", "spill_monitors"),
    ("repro.fleet_global.simulator", "run_fleet", "failover"),
    ("repro.fleet_global.drills", "RegionEvent", "kind"),
    ("repro.perf.executor", "Executor", "temperature_c"),
    ("repro.power.activity", "activity_trace", "temperature_c"),
    # Model parameters that run at one value, now module constants.
    ("repro.power.dvfs", "DvfsConfig", "qualification_margin"),
    ("repro.power.dvfs", "DvfsGovernor", "config"),
    ("repro.reliability.overclock", "MarginModel", "mean_fmax_hz"),
    ("repro.reliability.overclock", "run_overclocking_study", "margin"),
    ("repro.sdc.screening", "FleetScreeningModel", "interval_s"),
    ("repro.fleet_global.regions", "FleetConfig", "peak_to_mean"),
    ("repro.fleet_global.regions", "FleetConfig", "policy"),
    ("repro.fleet_global.regions", "FleetConfig", "samples_per_request"),
    ("repro.fleet_global.regions", "FleetConfig", "priority_weights"),
    ("repro.fleet_global.regions", "RegionSpec", "traffic_share"),
    ("repro.fleet_global.regions", "rate_for_users", "peak_to_mean"),
    ("repro.cluster.autoscaler", "AutoscalerConfig", "target_utilization"),
    ("repro.cluster.autoscaler", "AutoscalerConfig", "scale_up_utilization"),
    ("repro.cluster.autoscaler", "AutoscalerConfig", "scale_down_utilization"),
    ("repro.cluster.autoscaler", "AutoscalerConfig", "predictive"),
    ("repro.codesign.search", "SearchConfig", "t_initial"),
    ("repro.codesign.search", "SearchConfig", "t_final"),
    ("repro.cluster.simulator", "ClusterConfig", "accelerators_per_replica"),
    ("repro.cluster.simulator", "ClusterConfig", "retry_deadline_slos"),
    ("repro.resilience.simulator", "ResilienceConfig", "device_throughput"),
    ("repro.resilience.simulator", "ResilienceConfig", "metrics_interval_s"),
    ("repro.resilience.simulator", "ResilienceConfig", "degraded_scale"),
    ("repro.resilience.simulator", "ResilienceConfig", "base_p50_s"),
    ("repro.resilience.simulator", "ResilienceConfig", "base_p99_s"),
    ("repro.resilience.device", "Device", "degraded_scale"),
    ("repro.resilience.faults", "FaultRates", "throttle_duration_s"),
    ("repro.resilience.faults", "FaultRates", "ecc_degrade_duration_s"),
    ("repro.resilience.faults", "fault_rates_from_reliability",
     "deadlock_fraction_per_day"),
    ("repro.resilience.faults", "fault_rates_from_reliability",
     "operating_frequency_hz"),
    ("repro.resilience.faults", "fault_rates_from_reliability", "mitigated"),
    ("repro.tco.model", "CostInputs", "pue"),
    ("repro.tco.model", "CostInputs", "depreciation_years"),
    ("repro.perf.executor", "Executor", "host_input_fraction"),
    ("repro.perf.executor", "Executor", "zipf_exponent"),
    ("repro.chaos.campaign", "CampaignConfig", "recovery_threshold"),
    ("repro.chaos.brownout", "BrownoutConfig", "enter_at"),
    ("repro.chaos.brownout", "BrownoutConfig", "exit_at"),
    ("repro.chaos.brownout", "BrownoutConfig", "step"),
    ("repro.power.capping", "capping_study", "mean_utilization"),
    ("repro.sdc.resilience_link", "expected_blast_window_s",
     "undetected_window_s"),
    ("repro.sdc.resilience_link", "sdc_fault_rates", "base"),
    ("repro.sdc.campaign", "CampaignConfig", "site_weights"),
    ("repro.sdc.sites", "plan_injections", "site_weights"),
    ("repro.serving.workload", "diurnal_poisson_stream", "samples_per_request"),
    ("repro.cluster.capacity", "replicas_needed", "max_replicas"),
    ("repro.cluster.capacity", "replicas_needed", "locality"),
    ("repro.cluster.capacity", "capacity_sweep", "locality"),
    ("repro.codesign.objectives", "CodesignObjective", "p99_slo_s"),
    ("repro.codesign.objectives", "CodesignObjective", "max_cell_replicas"),
    ("repro.models.dhen", "DhenConfig", "mha_seq_len"),
    ("repro.models.dhen", "DhenConfig", "dtype"),
    ("repro.models.hstu", "HstuConfig", "dtype"),
    ("repro.autotune.kernel_tuner", "measure_variant", "dtype"),
    ("repro.memory.hierarchy", "MemoryHierarchy.read", "num_bytes"),
    ("repro.memory.hierarchy", "MemoryHierarchy.write", "num_bytes"),
    # Metrics hooks no call turned on.
    ("repro.serving.simulator", "simulate_serving", "registry"),
    ("repro.autotune.coalescing", "tune_coalescing", "registry"),
    ("repro.autotune.tuner", "autotune_model", "registry"),
    ("repro.chaos.campaign", "run_campaign", "registry"),
    ("repro.chaos.campaign", "run_scenario", "registry"),
    ("repro.sdc.campaign", "run_campaign", "registry"),
    ("repro.power.cluster_link", "power_limited_capacity_sweep", "registry"),
    ("repro.fleet_global.capacity", "smoke_study", "registry"),
    # Run state starts at one value; the constructor does not take it.
    ("repro.memory.cache", "CacheStats", "hits"),
    ("repro.sdc.pipeline", "PipelineState", "table_dirty"),
    ("repro.serving.scheduler", "_Job", "start_s"),
    ("repro.resilience.device", "Device", "state"),
    ("repro.resilience.device", "Device", "patched"),
])
def test_retired_knob_stays_gone(module, owner, name):
    if (module, owner) in DELETED_OWNERS:
        with pytest.raises((ModuleNotFoundError, AttributeError)):
            target = importlib.import_module(module)
            for part in owner.split("."):
                target = getattr(target, part)
        return
    target = importlib.import_module(module)
    for part in owner.split("."):
        target = getattr(target, part)
    if dataclasses.is_dataclass(target):
        names = {field.name for field in dataclasses.fields(target) if field.init}
    else:
        names = set(inspect.signature(target).parameters)
    assert name not in names, f"{module}.{owner} takes {name} again"


@pytest.mark.parametrize("owner", ["ResilienceSimulator", "run_resilience"])
def test_resilience_run_inputs_have_no_default(owner):
    """A resilience run takes its config, fault rates and arm (mitigated
    or not) from the caller; no default stands in for the drill's."""
    target = getattr(importlib.import_module("repro.resilience.simulator"), owner)
    parameters = inspect.signature(target).parameters
    for name in ("config", "rates", "mitigated"):
        assert parameters[name].default is inspect.Parameter.empty, name


def test_fault_retries_always_have_a_deadline():
    """The fault-retry deadline is a finite, positive number of SLOs;
    no config switches the cutoff off."""
    simulator = importlib.import_module("repro.cluster.simulator")
    assert 0 < simulator.RETRY_DEADLINE_SLOS < float("inf")


def test_retired_helpers_stay_deleted():
    """``calibrate_base_latency`` served only the retired ``job_profile``
    branch of the drill, and the screening model reuses the one margin
    shortfall formula."""
    assert not hasattr(importlib.import_module("repro.resilience.simulator"),
                       "calibrate_base_latency")
    screening = importlib.import_module("repro.sdc.screening")
    faults = importlib.import_module("repro.resilience.faults")
    assert screening.margin_shortfall_fraction is faults.margin_shortfall_fraction


@pytest.mark.parametrize("name", [
    "train_capacity_surrogate",
    "train_power_surrogate",
    "verified_min_feasible",
    "verified_max_feasible",
])
def test_guided_capacity_and_power_helpers_stay_deleted(name):
    """Capacity and power questions have one exact scan each; the
    surrogate package keeps no helper that only a guided scan used."""
    assert not hasattr(importlib.import_module("repro.surrogate"), name)


# ---------------------------------------------------------------------------
# The setter fence
# ---------------------------------------------------------------------------

# The program paths: the package itself, the benchmarks, the examples
# and the perf harness.  ``tests/`` is not one of them.
PROGRAM = (SRC, ROOT / "benchmarks", ROOT / "examples", ROOT / "perfbench")

# Settable values no program path sets, each kept for the test named
# with it.  Keys are ``file:Owner.name``; a method's owner is
# ``Class.method``, a constructor's or a dataclass field's the class.
KEPT = {
    # Instrument hooks that tests turn on.
    "cluster/simulator.py:run_cluster.pool":
        "tests/test_cluster.py::TestClusterSimulator::test_pool_exhaustion_caps_scale_up",
    "fleet_global/capacity.py:run_capacity_study.registry":
        "tests/test_fleet_region_memo.py::test_observed_study_simulates_every_run",
    "power/capping.py:capping_study.registry":
        "tests/test_power.py::TestObservability::test_capping_and_provisioning_emit_metrics",
    "power/dvfs.py:overclock_with_thermal_feedback.registry":
        "tests/test_power.py::TestObservability::test_registry_does_not_change_outcomes",
    "power/provisioning.py:time_domain_provisioning.registry":
        "tests/test_power.py::TestObservability::test_capping_and_provisioning_emit_metrics",
    "resilience/simulator.py:run_resilience.registry":
        "tests/test_obs.py::TestTraceByteCompatibility::test_registry_never_steers_the_simulation",
    "serving/batcher.py:coalesce.registry":
        "tests/test_serving_properties.py::test_attached_registry_never_changes_batching",
    "serving/scheduler.py:schedule_batches.registry":
        "tests/test_fastsim_equivalence.py::TestServingScheduler::test_fast_matches_reference",
    "obs/tracing.py:TraceWriter.pid":
        "tests/test_obs.py::TestTraceWriter::test_metadata_precedes_data_events",
    # Seams a differential oracle needs to reach a case the program's
    # value cannot show.
    "cluster/service.py:ServiceModel.jitter_sigma":
        "tests/test_cluster_plain_equivalence.py::test_hooked_run_matches_reference "
        "(zero jitter gives exact-tie grids)",
    "memory/scratch.py:plan_allocation.alignment":
        "tests/test_scratch_equivalence.py::test_sweep_places_every_buffer_like_the_pairwise_packer",
    "memory/cache.py:SetAssociativeCache.access.write":
        "tests/test_cache_equivalence.py::test_access_matches_per_block_model",
    "memory/cache.py:SetAssociativeCache.access.size_bytes":
        "tests/test_cache_equivalence.py::test_access_matches_per_block_model",
    "memory/hierarchy.py:Traffic.local_memory_bytes":
        "tests/test_executor_trace_equivalence.py::test_memoized_runs_match_retired_executor "
        "(its oracle's _scale_traffic builds Traffic positionally)",
    "memory/hierarchy.py:Traffic.host_bytes":
        "tests/test_memory.py::TestHierarchy::test_traffic_addition",
    "graph/ops.py:Op.uid":
        "tests/test_executor_trace_equivalence.py::test_memoized_runs_match_retired_executor "
        "(auto-assigned identity; stable_uid_scope rebuilds pin it)",
    "tensors/tensor.py:TensorSpec.uid":
        "tests/test_executor_trace_equivalence.py::test_memoized_runs_match_retired_executor "
        "(auto-assigned identity; stable_uid_scope rebuilds pin it)",
    "cli.py:main.argv":
        "tests/test_bench_harness.py::TestBenchCli::test_default_out_leaves_the_baseline_untouched",
    # Model inputs outside this census's tiers, each set by its test.
    "arch/nextgen.py:mtia_nextgen_spec.compute_scale":
        "tests/test_nextgen.py::TestNextGenSpec::test_compute_scales",
    "arch/specs.py:ChipSpec.gemm_to_simd_ratio.gemm_dtype":
        "tests/test_arch.py::TestTable2Values::test_gemm_to_simd_ratio_32_to_1",
    "autotune/batch.py:tune_batch_size.latency_slo_s":
        "tests/test_autotune.py::TestBatchTuner::test_picks_slo_respecting_batch",
    "autotune/coalescing.py:tune_coalescing.duration_s":
        "tests/test_misc_coverage.py::TestCoalescingTunerFast::test_tiny_sweep_returns_best",
    "autotune/kernel_tuner.py:PerformanceDatabase.cell_size":
        "tests/test_autotune.py::TestKernelTuner::test_cell_size_validation",
    "autotune/sharding.py:plan_sharding.num_shards":
        "tests/test_autotune.py::TestSharding::test_forced_undersharding_rejected",
    "cluster/routing.py:make_policy.spill_outstanding":
        "tests/test_cluster.py::TestRoutingPolicies::test_locality_spills_under_pressure",
    "cluster/service.py:ServiceModel.cross_host_penalty":
        "tests/test_cluster.py::TestServiceModel::test_cross_host_penalty_applied",
    "fleet/abtest.py:run_ab_test.treatment_fraction":
        "tests/test_fleet.py::TestAbTest::test_traffic_split_fraction",
    "fleet/colocation.py:ColocationRequest.accelerators_per_instance":
        "tests/test_colocation.py::TestColocation::test_placements_cover_all_instances",
    "fleet/server_sim.py:host_dram_contention.amplification":
        "tests/test_fleet.py::TestHostContention::test_copy_elimination_helps",
    "fleet/server_sim.py:production_utilization.peak_to_mean":
        "tests/test_fleet.py::TestProductionUtilization::test_devices_cover_peak",
    "fleet_global/capacity.py:run_capacity_study.duration_s":
        "tests/test_fleet_global.py::TestCapacityStudy::test_study_verdict_and_table",
    "fleet_global/capacity.py:run_capacity_study.max_loss_fraction":
        "tests/test_fleet_global.py::TestCapacityStudy::test_study_verdict_and_table",
    "fleet_global/drills.py:region_outage_drill.region":
        "tests/test_fleet_global.py::TestDrills::test_outage_takes_every_replica_and_marks_unreachable",
    "fleet_global/drills.py:region_outage_drill.at_s":
        "tests/test_fleet_global.py::TestDrills::test_outage_takes_every_replica_and_marks_unreachable",
    "fleet_global/drills.py:region_outage_drill.duration_s":
        "tests/test_fleet_global.py::TestDrills::test_outage_takes_every_replica_and_marks_unreachable",
    "graph/graph.py:OpGraph.ops":
        "tests/test_graph.py::TestGraph::test_double_production_rejected",
    "graph/ops.py:tbe.weighted":
        "tests/test_graph.py::TestOps::test_tbe_weighted_doubles_flops",
    "memory/che.py:zipf_block_popularities.max_blocks":
        "tests/test_che.py::TestBlockPopularities::test_tail_folding_for_huge_tables",
    "obs/bench.py:runtime_comparison.ratio":
        "tests/test_bench_harness.py::TestRuntimeGuard::test_ratio_at_most_one_rejected",
    "obs/bench.py:golden_violations.goldens":
        "tests/test_bench_harness.py::TestGoldenViolations::test_outside_band_violates",
    "perf/freshness.py:weight_update_latency.compression_saved_fraction":
        "tests/test_freshness_and_examples.py::TestFreshness::test_compression_speeds_updates",
    "perf/llm.py:decode_report.context_tokens":
        "tests/test_perf.py::TestLlm::test_decode_kv_traffic_grows_with_context",
    "perf/trace.py:summarize_trace.top":
        "tests/test_cli_and_trace.py::TestTrace::test_summary_mentions_top_op",
    "quant/analysis.py:plan_model_quantization.quality_sensitive":
        "tests/test_quant.py::TestQuantAnalysis::test_quality_sensitive_layers_excluded",
    "reliability/firmware.py:deadlock_incidence.mitigated":
        "tests/test_reliability.py::TestFirmware::test_incidence_small_and_mitigated_to_zero",
    "reliability/firmware.py:staged_detection.detection_threshold_servers":
        "tests/test_reliability.py::TestFirmware::test_below_threshold_incidence_escapes_early_rings",
    "reliability/fleet.py:sample_fleet_errors.servers":
        "tests/test_determinism.py::TestReliabilityStudies::test_sample_fleet_errors",
    "reliability/fleet.py:sample_fleet_errors.card_error_probability":
        "tests/test_reliability.py::TestFleetErrors::test_zero_probability",
    "serving/faults.py:headroom_for_fault_tolerance.max_delay_factor":
        "tests/test_serving.py::TestFaultInjection::test_headroom_matches_exhaustive_search",
    "serving/workload.py:poisson_stream.samples_jitter":
        "tests/test_serving.py::TestCoalescing::test_high_fill_achievable",
    "serving/workload.py:diurnal_load_curve.noise":
        "tests/test_serving.py::TestWorkload::test_diurnal_curve_peak_to_mean",
    "tco/model.py:server_tco.report":
        "tests/test_tco.py::TestMeasuredPower::test_report_lowers_energy_term_for_memory_bound_model",
    "tco/model.py:perf_per_watt.server":
        "tests/test_tco.py::TestMeasuredPower::test_measured_perf_per_watt_beats_nameplate",
    "tco/model.py:perf_per_watt.report":
        "tests/test_tco.py::TestMeasuredPower::test_measured_perf_per_watt_beats_nameplate",
}


def _bare(node):
    return getattr(node, "id", getattr(node, "attr", None))


def settable_sites():
    """``(key, callee, name, index)`` for every settable value: the
    ``KEPT``-style key, the bare name a call uses to reach it, and its
    positional index at that call (``None`` for keyword-only values).
    A method's index skips ``self``; a dataclass field's counts the
    ``__init__`` fields before it."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()

        def visit(node, cls):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    is_record = "dataclass" in set(_decorator_names(child)) or any(
                        _bare(base) == "NamedTuple" for base in child.bases
                    )
                    if is_record:
                        index = 0
                        defaulted = set(_defaulted_fields(child))
                        for stmt in child.body:
                            if not isinstance(stmt, ast.AnnAssign):
                                continue
                            if "ClassVar" in ast.unparse(stmt.annotation):
                                continue
                            value = stmt.value
                            if isinstance(value, ast.Call) and _bare(value.func) == "field":
                                init = {k.arg: k.value for k in value.keywords}.get("init")
                                if isinstance(init, ast.Constant) and init.value is False:
                                    continue
                            name = stmt.target.id
                            if name in defaulted:
                                sites.append(
                                    (f"{rel}:{child.name}.{name}", child.name, name, index)
                                )
                            index += 1
                    visit(child, child)
                elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = child.args
                    positional = args.posonlyargs + args.args
                    bound = cls is not None and "staticmethod" not in set(
                        _decorator_names(child)
                    )
                    if cls is None:
                        owner = callee = child.name
                    elif child.name == "__init__":
                        owner = callee = cls.name
                    else:
                        owner, callee = f"{cls.name}.{child.name}", child.name
                    first = len(positional) - len(args.defaults)
                    for index, arg in enumerate(positional):
                        if index >= first:
                            sites.append((
                                f"{rel}:{owner}.{arg.arg}", callee, arg.arg,
                                index - bound,
                            ))
                    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                        if default is not None:
                            sites.append(
                                (f"{rel}:{owner}.{arg.arg}", callee, arg.arg, None)
                            )
                    visit(child, None)
                else:
                    visit(child, cls)

        visit(ast.parse(path.read_text()), None)
    return sites


def unset_values():
    """Keys of the settable values no program call sets.

    A call sets a value when it passes it by keyword, at its positional
    index, or (for a dataclass field) as a ``dataclasses.replace``
    keyword.  Like the member fence in ``test_package_surface.py``,
    calls match owners by bare name, so a value whose callee shares its
    name with another's counts as set by that other's calls too.
    """
    keywords = collections.defaultdict(set)
    widest = collections.defaultdict(int)
    replaced = set()
    for base in PROGRAM:
        for path in sorted(base.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                callee = _bare(node.func)
                if callee is None:
                    continue
                named = {k.arg for k in node.keywords if k.arg}
                keywords[callee] |= named
                if callee == "replace":
                    replaced |= named
                widest[callee] = max(widest[callee], sum(
                    not isinstance(arg, ast.Starred) for arg in node.args
                ))
    return {
        key
        for key, callee, name, index in settable_sites()
        if name not in keywords[callee]
        and not (index is not None and widest[callee] > index)
        and not (callee == key.rpartition(".")[0].partition(":")[2]
                 and name in replaced)
    }


def test_setter_census_counts_every_settable_value():
    assert len(settable_sites()) == len(settable_values())


def test_every_settable_value_has_a_program_setter():
    """A value that only tests set, or that no call sets, becomes a
    module constant or an inlined literal, or ``KEPT`` names the test
    that needs it."""
    unlisted = sorted(unset_values() - set(KEPT))
    assert not unlisted, f"settable values no program path sets: {unlisted}"


def test_kept_values_still_lack_a_program_setter():
    """A kept value that gains a program setter leaves ``KEPT``."""
    assert set(KEPT) <= unset_values()


def test_every_kept_value_names_an_existing_test():
    """Each ``KEPT`` reason starts with a ``file::[Class::]test`` id that
    is defined in that file."""
    for key, reason in KEPT.items():
        file, *names = reason.split(" ")[0].split("::")
        tree = ast.parse((ROOT / file).read_text())
        scope = tree.body
        for name in names:
            found = [
                node for node in scope
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                and node.name == name
            ]
            assert found, f"{key}: {reason} names no test"
            scope = found[0].body
