"""Tests for the recovery vocabulary (repro.resilience.policies).

One module states the cluster tier's admission cap, client timeout,
reboot draw, backoff and overload defenses, each at the one value the
program runs.  These tests pin the one backoff formula, the absence of
config classes, and the import surface: the modules the vocabulary
replaced stay gone, and nothing imports a name from a path that no
longer has it.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.chaos.scenarios import ChaosScenario
from repro.cluster import ClusterSimulator
from repro.resilience import policies
from repro.resilience.policies import backoff_s

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


# ---------------------------------------------------------------------------
# The one backoff formula
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("base, factor, cap, jitter, nominal", [
    (0.1, 2.0, 0.5, 0.0, [0.1, 0.2, 0.4, 0.5, 0.5, 0.5]),
    (policies.BACKOFF_BASE_S, policies.BACKOFF_FACTOR, policies.BACKOFF_CAP_S,
     policies.BACKOFF_JITTER, [0.05, 0.1, 0.2, 0.4, 0.8, 1.0, 1.0]),
    (0.05, 3.0, 0.05, 0.25, [0.05] * 6),
], ids=["capped", "jittered", "capped_at_base"])
def test_backoff_delay(monkeypatch, base, factor, cap, jitter, nominal):
    """Retry 0 waits ``base``; each later retry ``factor`` times longer
    up to the cap; the generator jitters each delay by one symmetric
    draw.  ``jittered`` is the program's own setting; the other two move
    the constants to pin the cap and a zero jitter."""
    monkeypatch.setattr(policies, "BACKOFF_BASE_S", base)
    monkeypatch.setattr(policies, "BACKOFF_FACTOR", factor)
    monkeypatch.setattr(policies, "BACKOFF_CAP_S", cap)
    monkeypatch.setattr(policies, "BACKOFF_JITTER", jitter)
    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    jittered = [backoff_s(r, rng) for r in range(len(nominal))]
    draws = [float(twin.uniform(-1.0, 1.0)) for _ in nominal]
    assert jittered == pytest.approx(
        [d * (1.0 + jitter * u) for d, u in zip(nominal, draws)], rel=1e-12
    )
    # One draw per delay.
    assert rng.bit_generator.state == twin.bit_generator.state
    assert all((1 - jitter) * d <= x <= (1 + jitter) * d
               for d, x in zip(nominal, jittered))
    # Seeded: the same generator state gives the same delays.
    again = np.random.default_rng(7)
    assert [backoff_s(r, again) for r in range(len(nominal))] == jittered


# ---------------------------------------------------------------------------
# Smaller than before: one vocabulary, one backoff, one "off"
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("module", [
    "repro.chaos.defense", "repro.cluster.admission", "repro.cluster.checks",
])
def test_replaced_modules_are_gone(module):
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module)


def test_one_backoff_and_one_way_to_say_off():
    """Each mechanism runs at one setting, so the vocabulary holds
    values and state machines, no config class; what a run can switch is
    on or off: a defense runtime or ``None``, retrying clients or not."""
    assert not [
        name for name, value in vars(policies).items()
        if inspect.isclass(value) and dataclasses.is_dataclass(value)
    ]
    assert [
        name for name, value in vars(policies).items()
        if callable(value) and "backoff" in name.lower()
    ] == ["backoff_s"]
    assert not inspect.signature(policies.DefenseRuntime).parameters
    assert not inspect.signature(policies.CircuitBreaker).parameters
    parameters = inspect.signature(ClusterSimulator).parameters
    assert parameters["defense"].default is None
    assert parameters["client"].default is False
    assert {f.name: f.default for f in dataclasses.fields(ChaosScenario)
            }["client"] is False


def test_no_second_backoff_spelling_in_src():
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        for name in ("backoff_multiplier", "backoff_factor", "jitter_fraction"):
            assert name not in text, f"{path.relative_to(ROOT)} mentions {name}"


@pytest.mark.parametrize("package", ["repro.chaos", "repro.cluster", "repro.resilience"])
def test_packages_do_not_re_export_the_vocabulary(package):
    public = {name for name in vars(policies)
              if not name.startswith("_")
              and getattr(getattr(policies, name), "__module__", None) == policies.__name__}
    assert public
    assert not public & set(importlib.import_module(package).__all__)


# ---------------------------------------------------------------------------
# Import surface
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("module", [
    "repro.resilience.policies", "repro.cluster", "repro.chaos", "repro.fleet_global",
])
def test_imports_first_in_a_fresh_interpreter(module):
    """Each package imports first, with no import cycle."""
    subprocess.run(
        [sys.executable, "-B", "-c", f"import {module}"], check=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def test_vocabulary_import_leaves_the_cluster_tier_unloaded():
    """The package exports its top-level names lazily, so importing the
    vocabulary loads neither the cluster tier nor the rest of the stack."""
    probe = (
        "import sys, repro.resilience.policies\n"
        "print(int('repro.cluster' in sys.modules), int('repro.core' in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-B", "-c", probe], check=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True,
    )
    assert result.stdout.split() == ["0", "0"]


def test_package_exports_resolve_on_first_use():
    probe = (
        "import repro\n"
        "from repro import Mtia2iSystem\n"
        "assert Mtia2iSystem.__module__.startswith('repro.core')\n"
        "assert all(hasattr(repro, name) for name in repro.__all__)\n"
        "assert set(repro.__all__) <= set(dir(repro))\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('missing name resolved')\n"
    )
    subprocess.run(
        [sys.executable, "-B", "-c", probe], check=True, cwd=ROOT,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )


def test_vocabulary_imports_neither_cluster_nor_chaos():
    """Both tiers build on the vocabulary, so it must not import them."""
    path = SRC / "repro" / "resilience" / "policies.py"
    modules = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
        elif isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
    assert not {m for m in modules if m.startswith(("repro.cluster", "repro.chaos"))}


def _repro_imports(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro"):
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("path", sorted((ROOT / "examples").glob("*.py")),
                         ids=lambda p: p.name)
def test_example_imports_resolve(path):
    for module, name in _repro_imports(path):
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
