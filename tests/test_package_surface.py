"""Tests for the package import surface.

Each name has one import path.  A subpackage's ``__init__`` re-exports
only names that some caller imports through the package, its
``__all__`` lists exactly what it imports from its own modules, and the
top-level ``repro`` package names only the quick-start entry points.
The "smaller than before" checks pin the retired surface: the re-export
count, the top-level names, the deleted members and the ``use_surrogate``
flag stay gone.
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
    # 647 before the names with no caller through the package path left.
    assert sum(
        len(importlib.import_module(package).__all__) for package in SUBPACKAGES
    ) <= 445


def test_top_level_names_only_the_quick_start():
    import repro

    assert repro.__all__ == ["Mtia2iSystem", "__version__", "small_dlrm"]


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
    assert not hasattr(getattr(importlib.import_module(module), owner), member)


def test_surrogate_is_the_only_switch():
    """``surrogate=None`` is the exact path; no flag duplicates it."""
    for path in sorted((SRC / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                assert "use_surrogate" not in names, (
                    f"{path.relative_to(ROOT)}:{node.lineno} {node.name}"
                )
