"""Tests for the package import surface.

Each name has one import path.  A subpackage's ``__init__`` re-exports
only names that some caller imports through the package, its
``__all__`` lists exactly what it imports from its own modules, and the
top-level ``repro`` package names only the quick-start entry points.
The "smaller than before" checks pin the retired surface: the re-export
count, the top-level names, the deleted members, modules and names, and
the ``use_surrogate`` flag stay gone.
"""

import ast
import importlib
import pathlib

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
    # names went.
    assert sum(
        len(importlib.import_module(package).__all__) for package in SUBPACKAGES
    ) <= 406


def test_top_level_names_only_the_quick_start():
    import repro

    assert repro.__all__ == ["Mtia2iSystem", "__version__", "small_dlrm"]


# Modules deleted whole; a name pinned below in one of them is gone with it.
DELETED_MODULES = (
    "repro.noc", "repro.pe.fi", "repro.fastsim.trials",
    "repro.surrogate.verify", "repro.fastsim.memo",
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
