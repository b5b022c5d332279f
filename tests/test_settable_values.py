"""Smaller-than-before checks for the settable values of ``src/repro``.

A settable value is a defaulted function parameter (``__init__``
included) or a defaulted dataclass field that ``__init__`` accepts.
Each one that no caller set became a module constant or an inlined
literal; these checks pin the smaller total and keep the retired knobs
gone.
"""

import ast
import dataclasses
import importlib
import inspect
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


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
    # run at one value became constants.
    assert len(settable_values()) <= 578


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
        names = {field.name for field in dataclasses.fields(target)}
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
    """``retry_deadline_slos`` is a finite number; ``None`` no longer
    switches the cutoff off."""
    simulator = importlib.import_module("repro.cluster.simulator")
    with pytest.raises(TypeError):
        simulator.ClusterConfig(retry_deadline_slos=None)


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
