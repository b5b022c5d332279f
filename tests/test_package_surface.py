"""Tests for the package import surface.

Each name has one import path.  A subpackage's ``__init__`` re-exports
only names that some caller imports through the package, its
``__all__`` lists exactly what it imports from its own modules, and the
top-level ``repro`` package names only the quick-start entry points.
The "smaller than before" checks pin the retired surface: the re-export
count, the top-level names, the deleted members, modules and names, and
the ``use_surrogate`` flag stay gone.  The census fence keeps it that
way: every function, class and method in ``src/repro`` has a reader on
some program path, or a stated reason in ``KEPT``.
"""

import ast
import collections
import functools
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SUBPACKAGES = sorted(
    ".".join(init.parent.relative_to(SRC).parts)
    for init in (SRC / "repro").rglob("__init__.py")
    if init.parent != SRC / "repro"
)


def _init_path(package):
    return SRC.joinpath(*package.split("."), "__init__.py")


def _own_imports(package):
    """Names the package ``__init__`` binds from its own modules."""
    names = []
    for node in ast.parse(_init_path(package).read_text()).body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(
            package + "."
        ):
            names.extend(alias.asname or alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("package", SUBPACKAGES)
def test_all_lists_exactly_the_own_imports(package):
    module = importlib.import_module(package)
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"{package}.__all__ has duplicates"
    assert set(exported) == set(_own_imports(package))
    for name in exported:
        assert hasattr(module, name), f"{package}.{name}"


# ---------------------------------------------------------------------------
# Smaller than before
# ---------------------------------------------------------------------------


def test_subpackage_re_exports_stay_pruned():
    # 647 before the names with no caller through the package path left;
    # 443 before the guided capacity/power helpers and the unread
    # reduction-network model went; 436 before the NoC package and the
    # other models that only their own tests reached went; 416 before the
    # GEMM kernel surrogate, the kernel-latency memo and five test-only
    # names went; 406 before the census left only program-read members.
    assert sum(
        len(importlib.import_module(package).__all__) for package in SUBPACKAGES
    ) <= 378


def test_top_level_names_only_the_quick_start():
    import repro

    assert repro.__all__ == ["Mtia2iSystem", "__version__", "small_dlrm"]


# Modules deleted whole; a name pinned below in one of them is gone with it.
DELETED_MODULES = (
    "repro.noc", "repro.pe.fi", "repro.fastsim.trials",
    "repro.surrogate.verify", "repro.fastsim.memo",
    "repro.core.publish", "repro.perf.roofline",
)


@pytest.mark.parametrize("module, owner, member", [
    ("repro.surrogate.model", "GemmSurrogate", "predict_energy_grid"),
    ("repro.chaos.domains", "FaultDomainTopology", "hosts_in_power_domain"),
    ("repro.memory.cache", "CacheStats", "byte_hit_rate"),
    ("repro.serving.batcher", "Batch", "oldest_arrival_s"),
    ("repro.serving.scheduler", "BatchCompletion", "merge_latency_s"),
    ("repro.resilience.scenario", "DrillResult", "baseline_slo_trip_s"),
    ("repro.tensors.tensor", "GemmShape", "as_tuple"),
    ("repro.sdc.campaign", "ProfileSummary", "undetected_ne_impacting_fraction"),
    ("repro.power.capping", "CapOutcome", "mean_power_w"),
    # The census: members that only tests read.
    ("repro.arch.server", "ServerSpec", "host_cores_per_accelerator"),
    ("repro.arch.server", "ServerSpec", "host_dram_per_accelerator_bytes"),
    ("repro.arch.server", "ServerSpec", "host_dram_bandwidth_per_accelerator"),
    ("repro.arch.server", "ServerSpec", "nic_bandwidth_per_accelerator"),
    ("repro.arch.specs", "ChipSpec", "overclock_ratio"),
    ("repro.arch.specs", "ChipSpec", "at_frequency"),
    ("repro.autotune.placement", "PlacementDecision", "throughput"),
    ("repro.autotune.sharding", "ShardPlan", "balance"),
    ("repro.autotune.tuner", "AutotuneResult", "variant_for"),
    ("repro.chaos.campaign", "CampaignResult", "scalars"),
    ("repro.chaos.domains", "FaultDomainTopology", "tor_of"),
    ("repro.cluster.locality", "ShardLocalityMap", "from_model"),
    ("repro.cluster.provisioning", "HostPool", "hosts_in_use"),
    ("repro.cluster.service", "ServiceModel", "sample"),
    ("repro.codesign.space", "DesignSpace", "indices_of"),
    ("repro.core.codesign", "CodesignResult", "throughput"),
    ("repro.fleet.allocator", "NumaAllocator", "fragmentation_stats"),
    ("repro.fleet.colocation", "ColocationResult", "total_effective_throughput"),
    ("repro.fleet_global.capacity", "CapacityPoint", "meets"),
    ("repro.fleet_global.drills", "DrillSchedule", "first_fault_s"),
    ("repro.fleet_global.drills", "DrillSchedule", "all_clear_s"),
    ("repro.fleet_global.simulator", "FleetReport", "answered"),
    ("repro.graph.graph", "OpGraph", "graph_inputs"),
    ("repro.graph.graph", "OpGraph", "summary"),
    ("repro.graph.ops", "Op", "weight_inputs"),
    ("repro.graph.ops", "Op", "activation_inputs"),
    ("repro.kernels.gemm", "GemmVariant", "key"),
    ("repro.memory.cache", "SetAssociativeCache", "contains"),
    ("repro.memory.cache", "SetAssociativeCache", "invalidate"),
    ("repro.memory.cache", "SetAssociativeCache", "flush"),
    ("repro.memory.cache", "SetAssociativeCache", "resident_blocks"),
    ("repro.memory.cache", "SetAssociativeCache", "resident_bytes"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "release_lls"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "hint_no_reuse"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "lls_free_bytes"),
    ("repro.memory.hierarchy", "MemoryHierarchy", "writeback_traffic"),
    ("repro.memory.scratch", "BufferRequest", "overlaps"),
    ("repro.memory.scratch", "AllocationPlan", "total_requested_bytes"),
    ("repro.memory.scratch", "AllocationPlan", "reuse_factor"),
    ("repro.memory.scratch", "AllocationPlan", "offset_of"),
    ("repro.memory.scratch", "AllocationPlan", "validate"),
    ("repro.models.dhen", "DhenConfig", "embedding_bytes"),
    ("repro.models.dlrm", "DlrmConfig", "embedding_bytes"),
    ("repro.models.hstu", "HstuConfig", "embedding_bytes"),
    ("repro.models.zoo", "ZooModel", "graph_at"),
    ("repro.obs.metrics", "Gauge", "updates"),
    ("repro.obs.tracing", "TraceWriter", "begin"),
    ("repro.obs.tracing", "TraceWriter", "end"),
    ("repro.obs.tracing", "TraceWriter", "open_span_count"),
    ("repro.power.activity", "PowerTrace", "component_energy_j"),
    ("repro.power.activity", "PowerTrace", "resample"),
    ("repro.power.capping", "CapOutcome", "scalars"),
    ("repro.power.capping", "CappingComparison", "scalars"),
    ("repro.power.cluster_link", "ThrottleSchedule", "from_frequency_trace"),
    ("repro.power.cluster_link", "PowerLimitedSweep", "scalars"),
    ("repro.power.dvfs", "ThermalFeedbackResult", "scalars"),
    ("repro.power.provisioning", "TimeDomainProvisioning", "matches_paper"),
    ("repro.power.provisioning", "TimeDomainProvisioning", "scalars"),
    ("repro.power.thermal", "RcStage", "time_constant_s"),
    ("repro.power.thermal", "ThermalNetwork", "initial_state"),
    ("repro.power.thermal", "ThermalNetwork", "settle"),
    ("repro.resilience.device", "Device", "in_rotation"),
    ("repro.resilience.events", "EventLog", "for_device"),
    ("repro.resilience.metrics", "IntervalMetrics", "in_rotation"),
    ("repro.resilience.policies", "DrainPolicy", "detection_latency_s"),
    ("repro.sdc.detectors", "ProtectionProfile", "enabled"),
    ("repro.sdc.pipeline", "CtrServingPipeline", "ab_model"),
    ("repro.sdc.pipeline", "CtrServingPipeline", "backend"),
    ("repro.serving.workload", "DiurnalTrafficModel", "shifted"),
    ("repro.surrogate.model", "TrainReport", "scalars"),
    ("repro.tensors.dtypes", "DType", "is_float"),
    ("repro.tensors.dtypes", "DType", "is_int"),
    ("repro.tensors.dtypes", "DType", "to_numpy"),
    ("repro.tensors.jagged", "JaggedTensor", "total_length"),
    ("repro.tensors.jagged", "JaggedTensor", "from_dense"),
    ("repro.tensors.jagged", "JaggedTensor", "to_dense"),
    ("repro.tensors.jagged", "JaggedTensor", "map_values"),
    ("repro.tensors.jagged", "JaggedTensor", "rows"),
    ("repro.tensors.tensor", "GemmShape", "arithmetic_intensity"),
])
def test_dead_members_stay_deleted(module, owner, member):
    """A member stays deleted; so does its owner, once the owner is
    pinned as deleted too."""
    target = importlib.import_module(module)
    if (module, owner) in RETIRED_NAMES:
        assert not hasattr(target, owner)
    else:
        assert not hasattr(getattr(target, owner), member)


@pytest.mark.parametrize("module", DELETED_MODULES)
def test_unreached_modules_stay_deleted(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


RETIRED_NAMES = (
    ("repro.pe.command", "CircularBuffer"),
    ("repro.pe.command", "CircularBufferError"),
    ("repro.pe.dpe", "dpe_compute_time"),
    ("repro.pe.dpe", "weight_cache_passes"),
    ("repro.pe.riscv", "vector_kernel_issue"),
    ("repro.pe.mlu", "fused_transpose_savings"),
    ("repro.memory.scratch", "ScratchAllocator"),
    ("repro.surrogate.dataset", "DatasetRecorder"),
    ("repro.surrogate.dataset", "collect_executor_dataset"),
    ("repro.surrogate.verify", "argmin_match"),
    ("repro.fastsim", "trial_map"),
    ("repro.sdc.detectors", "DETECTOR_ORDER"),
    ("repro.compression.ans", "MASK_32"),
    ("repro.units", "KHZ"),
    ("repro.units", "KB"),
    ("repro.units", "MB"),
    ("repro.units", "GFLOPS"),
    ("repro.units", "MFLOPS"),
    ("repro.sdc.screening", "HOURS"),
    ("repro.perf.roofline", "ridge_point"),
    ("repro.perf.roofline", "sram_cliff"),
    ("repro.power.thermal", "gpu_thermal"),
    ("repro.sdc.detectors", "abft_row_check"),
    ("repro.serving.workload", "replay_stream"),
    # The GEMM kernel surrogate and the kernel-latency memo: the exact
    # exhaustive tuner prices a shape's whole catalog for less than
    # training the surrogate costs, and the memo skipped 5 of the
    # §4.1 comparison's 47,237 kernel evaluations.
    ("repro.surrogate.model", "GemmSurrogate"),
    ("repro.surrogate.features", "GemmFeatureSpace"),
    ("repro.surrogate.dataset", "collect_gemm_dataset"),
    ("repro.surrogate.dataset", "train_gemm_surrogate"),
    ("repro.surrogate", "verified_argmin"),
    ("repro.autotune.kernel_tuner", "surrogate_tune"),
    ("repro.fastsim", "KernelLatencyMemo"),
    # The census: names only tests read.  §5.3's static-draw twin goes
    # too; ``repro.power.provisioning`` is the one rack-budget model.
    ("repro.reliability.power", "provisioning_study"),
    ("repro.reliability.power", "sample_production_power"),
    ("repro.reliability.power", "PowerSample"),
    ("repro.reliability.power", "p90_experiment_budget"),
    ("repro.reliability.power", "p90_fleet_budget"),
    ("repro.reliability.power", "ProvisioningOutcome"),
    ("repro.reliability", "provisioning_study"),
    ("repro.codesign.proposal", "dominated_anchors"),
    ("repro.compression.ans", "compression_ratio"),
    ("repro.core", "publish_model"),
    ("repro.core.publish", "PublishedModel"),
    ("repro.fleet_global", "global_firmware_rollout"),
    ("repro.graph.ops", "quantize"),
    ("repro.graph.ops", "dequantize"),
    ("repro.graph.ops", "reshape"),
    ("repro.graph.ops", "softmax"),
    ("repro.graph.passes", "broadcast_savings"),
    ("repro.graph.passes", "fuse_horizontal_fc"),
    ("repro.graph.passes", "count_kernel_launches"),
    ("repro.graph.passes", "schedule_quality"),
    ("repro.kernels.tbe", "EmbeddingAccessPattern"),
    ("repro.kernels.tbe", "simulate_tbe_hit_rate"),
    ("repro.memory", "tensor_blocks"),
    ("repro.models.hstu", "hstu_flops_per_request"),
    ("repro.pe", "simulate_pipeline"),
    ("repro.perf", "freshness_quality_gain"),
    ("repro.perf.metrics", "ModelEfficiency"),
    ("repro.perf", "efficiency_from_report"),
    ("repro.perf", "dual_roofline"),
    ("repro.perf.roofline", "sweep"),
    ("repro.power.activity", "trace_scalars"),
    ("repro.tensors", "parse_dtype"),
    ("repro.tensors", "quantize_to_bf16"),
    ("repro.tensors", "jagged_dense_elementwise_add"),
    ("repro.tensors", "jagged_hadamard"),
    ("repro.tensors", "jagged_linear"),
    ("repro.tensors", "jagged_mean_pool"),
)


@pytest.mark.parametrize("module, name", RETIRED_NAMES)
def test_unreached_names_stay_deleted(module, name):
    """Each of these had no reader but its own tests, or lived in a
    module that is deleted whole."""
    if module in DELETED_MODULES:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
    else:
        assert not hasattr(importlib.import_module(module), name)


def test_surrogate_is_the_only_switch():
    """A surrogate is passed as a value; no boolean flag selects it."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                assert "use_surrogate" not in names, (
                    f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
                )


# ---------------------------------------------------------------------------
# The census fence
# ---------------------------------------------------------------------------

PACKAGE = SRC / "repro"
# The program paths: the package itself, the benchmarks, the examples
# and the perf harness.  ``tests/`` is not one of them.
READERS = (PACKAGE, ROOT / "benchmarks", ROOT / "examples", ROOT / "perfbench")

# Members no program path reads, each kept because a golden pins it or
# a test observes a program object through it.
KEPT = {
    "perf/executor.py:MemoryTraceCache.cache_info":
        "tests count the executor's memory-trace memo hits and misses with it",
    "perf/executor.py:MemoryTraceCache.cache_clear":
        "tests start each memo check from the executor's empty memory-trace memo",
    "resilience/events.py:EventLog.to_jsonable":
        "the pinned drill digests in tests/test_resilience.py hash the event log through it",
    "serving/faults.py:headroom_for_fault_tolerance":
        "pinned by a golden (466 spares) in tests/test_golden_values.py",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*\Z")


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _members(tree):
    """``(qualified name, node)`` for each top-level function and class
    and each non-dunder method."""
    for node in tree.body:
        if isinstance(node, _DEFS) and not _is_dunder(node.name):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, _DEFS[:2]) and not _is_dunder(sub.name):
                        yield f"{node.name}.{sub.name}", sub


def _reads(tree, member_ids, is_init):
    """``(name, ids of the members around it)`` for each name the tree
    reads: a ``Name``, an ``Attribute``, an import, or an identifier
    string (dotted ones count part by part).  ``__all__`` entries and an
    ``__init__``'s re-exports are not reads."""
    stack = [(tree, ())]
    while stack:
        node, around = stack.pop()
        if id(node) in member_ids:
            around += (id(node),)
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            continue
        if is_init and isinstance(node, ast.ImportFrom):
            continue
        if isinstance(node, ast.Name):
            yield node.id, around
        elif isinstance(node, ast.Attribute):
            yield node.attr, around
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], around
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _IDENTIFIER.match(node.value):
                for part in node.value.split("."):
                    yield part, around
        stack.extend((child, around) for child in ast.iter_child_nodes(node))


@functools.lru_cache(maxsize=None)
def unreached_members():
    """``"file:Member"`` for each member no program path reads.

    Names match bare, so a member sharing its name with a read member
    counts as read.  Iterated to a fixpoint: a read inside an unreached
    member, or inside the member itself, does not count.
    """
    trees = {
        path: ast.parse(path.read_text())
        for base in READERS
        for path in sorted(base.rglob("*.py"))
    }
    members = [
        (f"{path.relative_to(PACKAGE).as_posix()}:{qual}", node)
        for path, tree in trees.items()
        if PACKAGE in path.parents
        for qual, node in _members(tree)
    ]
    member_ids = {id(node) for _, node in members}
    reads = collections.defaultdict(list)
    for path, tree in trees.items():
        for name, around in _reads(tree, member_ids, path.name == "__init__.py"):
            reads[name].append(around)
    unreached = set()
    while True:
        newly = {
            id(node)
            for key, node in members
            if id(node) not in unreached
            and not any(
                id(node) not in around and unreached.isdisjoint(around)
                for around in reads[key.partition(":")[2].rpartition(".")[2]]
            )
        }
        if not newly:
            break
        unreached |= newly
    return frozenset(key for key, node in members if id(node) in unreached)


def test_every_member_has_a_program_reader():
    """A function, class or method that only tests reach is deleted
    with its tests, moved into ``tests/`` as an oracle, or listed in
    ``KEPT`` with its reason."""
    unlisted = sorted(unreached_members() - set(KEPT))
    assert not unlisted, f"members no program path reads: {unlisted}"


def test_kept_members_are_still_unreached():
    """A kept member that gains a program reader leaves ``KEPT``."""
    assert set(KEPT) <= unreached_members()
