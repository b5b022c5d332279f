"""Span stack, self time, identity rebinding and the Chrome export."""

import json
import sys
import types

import pytest

from perfbench.trace import (
    BOUNDARIES,
    Boundary,
    Tracer,
    layer_metrics,
)
from perfbench.runner import load_spec


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def toy_modules():
    """A function imported by name into a second module, and a class."""
    lib = types.ModuleType("perfbench_toy_lib")
    user = types.ModuleType("perfbench_toy_user")
    clock = FakeClock()

    def inner(x):
        clock.advance(2.0)
        return [x] * x

    def outer(x):
        clock.advance(1.0)
        result = lib.inner(x)
        clock.advance(3.0)
        return result

    def explode():
        raise RuntimeError("boom")

    class Engine:
        def run(self, n):
            clock.advance(0.5)
            return user.inner(n)

    lib.inner, lib.outer, lib.explode, lib.Engine = inner, outer, explode, Engine
    user.inner = inner  # ``from perfbench_toy_lib import inner``
    user.also_inner = inner  # a second alias
    sys.modules[lib.__name__] = lib
    sys.modules[user.__name__] = user
    yield lib, user, clock
    del sys.modules[lib.__name__]
    del sys.modules[user.__name__]


def _tracer(clock):
    return Tracer(
        boundaries=(
            Boundary("outer", "perfbench_toy_lib", "outer"),
            Boundary("inner", "perfbench_toy_lib", "inner",
                     counts=lambda a, k, r, s: {"items": len(r)}),
            Boundary("engine", "perfbench_toy_lib", "Engine.run"),
            Boundary("explode", "perfbench_toy_lib", "explode"),
        ),
        clock=clock,
    )


def test_self_time_is_span_minus_children(toy_modules):
    lib, user, clock = toy_modules
    tracer = _tracer(clock)
    with tracer.installed():
        with tracer.span():
            clock.advance(0.25)
            lib.outer(3)
            lib.Engine().run(2)
    stats = tracer.stats
    assert stats["outer"].span_s == 6.0
    assert stats["outer"].self_s == 4.0
    assert stats["inner"].calls == 2
    assert stats["inner"].self_s == 4.0
    assert stats["inner"].counts == {"items": 5}
    assert stats["engine"].self_s == 0.5
    assert stats["answer"].span_s == 8.75
    assert stats["answer"].self_s == 0.25
    total_self = sum(s.self_s for s in stats.values())
    assert total_self == stats["answer"].span_s
    # Nested counts: each inner call ran under one coarse ancestor.
    assert stats["inner"].nested == {"answer": 2, "outer": 1, "engine": 1}


def test_rebinding_patches_every_binding_and_restores(toy_modules):
    lib, user, clock = toy_modules
    originals = (lib.inner, lib.outer, lib.Engine.__dict__["run"])
    tracer = _tracer(clock)
    with tracer.installed():
        assert lib.inner is not originals[0]
        assert user.inner is lib.inner and user.also_inner is lib.inner
        assert lib.inner.__wrapped__ is originals[0]
        user.also_inner(1)
        # A module imported while the patch is live copies the wrapper.
        late = types.ModuleType("perfbench_toy_late")
        late.inner = lib.inner
        sys.modules[late.__name__] = late
    try:
        assert tracer.stats["inner"].calls == 1
        assert (lib.inner, lib.outer, lib.Engine.__dict__["run"]) == originals
        assert user.inner is originals[0]
        assert user.also_inner is originals[0]
        assert late.inner is originals[0]
    finally:
        del sys.modules["perfbench_toy_late"]


def test_restores_after_an_exception(toy_modules):
    lib, user, clock = toy_modules
    originals = (lib.inner, lib.explode, lib.Engine.__dict__["run"])
    tracer = _tracer(clock)
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed():
            with tracer.span():
                lib.explode()
    assert (lib.inner, lib.explode, lib.Engine.__dict__["run"]) == originals
    assert user.inner is originals[0]
    # The failed call still closed its span and the stack is empty.
    assert tracer.stats["explode"].calls == 1
    assert tracer._stack == []


def test_chrome_export_folds_fine_calls_into_parent(toy_modules, tmp_path):
    lib, user, clock = toy_modules
    tracer = Tracer(
        boundaries=(
            Boundary("outer", "perfbench_toy_lib", "outer"),
            Boundary("inner", "perfbench_toy_lib", "inner", fine=True),
        ),
        clock=clock,
    )
    with tracer.installed():
        with tracer.span():
            lib.outer(2)
            lib.outer(1)
    path = tmp_path / "self.trace.json"
    tracer.write_chrome(str(path), process_name="toy")
    events = [e for e in json.loads(path.read_text())["traceEvents"]
              if e["ph"] == "X"]
    assert [e["name"] for e in events] == ["answer", "outer", "outer"]
    root, first, second = events
    assert first["args"]["parent"] == root["args"]["id"] == 0
    assert first["args"]["inner.calls"] == 1
    assert first["args"]["inner.self_us"] == 2e6
    assert first["args"]["self_us"] == 4e6
    assert second["ts"] == first["ts"] + first["dur"]


def test_ledger_names_match_the_declaration():
    declared = [m["name"] for m in load_spec()["per_layer"]]
    produced = list(layer_metrics({})) + ["trace.overhead"]
    assert sorted(produced) == sorted(declared)
    assert len(declared) == len(set(declared))


def test_every_boundary_resolves():
    tracer = Tracer()
    with tracer.installed():
        pass
    keys = {b.key for b in BOUNDARIES}
    assert {"executor", "memory.read", "kernels", "cluster"} <= keys
