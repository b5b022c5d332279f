"""Tests for the recovery vocabulary (repro.resilience.policies).

One module defines retry, backoff, drain, shed, admission caps and the
overload defenses for every tier.  These tests pin the one backoff
formula, the construction-time checks of every field, the "off is
``None``" spelling, and the import surface: the modules the vocabulary
replaced stay gone, and nothing imports a name from a path that no
longer has it.
"""

import ast
import dataclasses
import importlib
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.resilience.policies import (
    AdmissionConfig,
    Backoff,
    BreakerConfig,
    ClientRetryConfig,
    DefenseConfig,
    DrainPolicy,
    HedgePolicy,
    LoadShedPolicy,
    RetryPolicy,
    RolloutPolicy,
)

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


# ---------------------------------------------------------------------------
# The one backoff formula
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backoff, nominal", [
    (Backoff(base_s=0.1, factor=2.0, cap_s=0.5, jitter=0.0),
     [0.1, 0.2, 0.4, 0.5, 0.5, 0.5]),
    (Backoff(base_s=0.1, factor=2.0, cap_s=1.0, jitter=0.5),
     [0.1, 0.2, 0.4, 0.8, 1.0, 1.0]),
    (Backoff(base_s=0.05, factor=3.0, cap_s=0.05, jitter=0.25),
     [0.05] * 6),
], ids=["capped", "jittered", "capped_at_base"])
def test_backoff_delay(backoff, nominal):
    """Retry 0 waits ``base``; each later retry ``factor`` times longer
    up to the cap; a generator jitters each delay by one symmetric draw."""
    assert [backoff.delay_s(r) for r in range(6)] == pytest.approx(nominal, rel=1e-12)

    rng, twin = np.random.default_rng(7), np.random.default_rng(7)
    jittered = [backoff.delay_s(r, rng) for r in range(6)]
    draws = [float(twin.uniform(-1.0, 1.0)) if backoff.jitter > 0 else 0.0
             for _ in nominal]
    assert jittered == pytest.approx(
        [d * (1.0 + backoff.jitter * u) for d, u in zip(nominal, draws)], rel=1e-12
    )
    # One draw per jittered delay, none without jitter.
    assert rng.bit_generator.state == twin.bit_generator.state
    assert all(d * (1 - backoff.jitter) <= x <= d * (1 + backoff.jitter)
               for d, x in zip(nominal, jittered))
    # Seeded: the same generator state gives the same delays.
    again = np.random.default_rng(7)
    assert [backoff.delay_s(r, again) for r in range(6)] == jittered


def test_fluid_model_waits_one_base_backoff():
    """The fluid model's one retry adds the first retry's unjittered
    delay to P99 (``min(0.05, 1.0)`` at the defaults)."""
    assert RetryPolicy().backoff.delay_s(0) == 0.05


# ---------------------------------------------------------------------------
# Every field is checked once, at construction
# ---------------------------------------------------------------------------

_FLOATS = {
    Backoff: ("base_s", "factor", "cap_s", "jitter"),
    RetryPolicy: ("timeout_s",),
    ClientRetryConfig: ("timeout_s",),
    HedgePolicy: ("hedge_after_s", "false_hedge_fraction"),
    DrainPolicy: ("health_check_interval_s", "drain_grace_s",
                  "reboot_mttr_s", "reboot_sigma"),
    LoadShedPolicy: ("max_utilization",),
    RolloutPolicy: ("detection_delay_s",),
    BreakerConfig: ("cooldown_s",),
    DefenseConfig: ("deadline_s", "retry_tokens_per_s", "retry_token_burst"),
}
_COUNTS = {
    RetryPolicy: ("max_attempts",),
    ClientRetryConfig: ("max_retries",),
    DrainPolicy: ("failures_to_drain",),
    AdmissionConfig: ("max_outstanding_per_replica", "max_total_outstanding"),
    BreakerConfig: ("failure_threshold", "probe_quota", "close_after_successes"),
}
_BAD = [
    (cls, field, value)
    for table, values in ((_FLOATS, (math.nan, math.inf, -1.0, True)),
                          (_COUNTS, (-1, True, 3.0)))
    for cls, fields in table.items()
    for field in fields
    for value in values
]


@pytest.mark.parametrize(
    "cls, field, value", _BAD,
    ids=[f"{cls.__name__}.{field}={value!r}" for cls, field, value in _BAD],
)
def test_bad_field_rejected_at_construction(cls, field, value):
    with pytest.raises(ValueError):
        cls(**{field: value})


def test_every_vocabulary_field_is_covered():
    """A new numeric field must join the table above."""
    for cls in {*_FLOATS, *_COUNTS, AdmissionConfig}:
        covered = set(_FLOATS.get(cls, ())) | set(_COUNTS.get(cls, ()))
        numeric = {f.name for f in dataclasses.fields(cls)
                   if f.type in ("float", "int", "Optional[float]", "Optional[int]")}
        assert numeric == covered, cls.__name__


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
    assert isinstance(RetryPolicy().backoff, Backoff)
    assert isinstance(DefenseConfig.full().backoff, Backoff)
    assert DefenseConfig().backoff is None
    for cls in (HedgePolicy, LoadShedPolicy, RolloutPolicy):
        assert "enabled" not in {f.name for f in dataclasses.fields(cls)}
    assert {f.name for f in dataclasses.fields(ClientRetryConfig)} == {
        "timeout_s", "max_retries",
    }
    assert not hasattr(DefenseConfig, "inert")
    assert not hasattr(AdmissionConfig, "priority_admissible")
    assert not hasattr(RetryPolicy, "worst_case_added_latency_s")
    assert not hasattr(RetryPolicy, "backoff_s")
    # Four backoff fields each became one ``backoff``.
    assert len(dataclasses.fields(RetryPolicy)) < 6
    assert len(dataclasses.fields(DefenseConfig)) < 9


def test_no_second_backoff_spelling_in_src():
    for path in SRC.rglob("*.py"):
        text = path.read_text()
        for name in ("backoff_multiplier", "backoff_factor", "jitter_fraction"):
            assert name not in text, f"{path.relative_to(ROOT)} mentions {name}"


@pytest.mark.parametrize("package", ["repro.chaos", "repro.cluster", "repro.resilience"])
def test_packages_do_not_re_export_the_vocabulary(package):
    policies = importlib.import_module("repro.resilience.policies")
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
    assert "repro.reliability.firmware" in modules
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
