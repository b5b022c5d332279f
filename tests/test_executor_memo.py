"""The executor's memory-trace memo: what hits, what misses, what it
keeps alive, and the seed it now honours."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.arch import mtia2i_spec
from repro.codesign.space import derive_chip
from repro.graph import layernorm
from repro.memory.hierarchy import MemoryHierarchy
from repro.models.zoo import figure6_models
from repro.perf import executor as executor_module
from repro.perf.executor import Executor, MemoryTraceCache, memory_trace
from repro.tensors.tensor import stable_uid_scope
from repro.units import MiB

MODELS = {model.name: model for model in figure6_models()}


def _scoped(name):
    model = MODELS[name]
    with stable_uid_scope():
        return model.build_at(model.batch)


@pytest.fixture
def cold_memo():
    memory_trace.cache_clear()
    yield memory_trace
    memory_trace.cache_clear()


@pytest.fixture
def read_calls(monkeypatch):
    """Count ``MemoryHierarchy.read`` calls: each one is LLC replay work."""
    calls = []
    original = MemoryHierarchy.read

    def spy(self, tensor, num_bytes=None):
        calls.append(tensor.uid)
        return original(self, tensor, num_bytes)

    monkeypatch.setattr(MemoryHierarchy, "read", spy)
    return calls


def test_chips_in_one_sram_rung_replay_the_hierarchy_once(cold_memo, read_calls):
    base = derive_chip(mtia2i_spec(), sram_capacity_bytes=128 * MiB)
    siblings = [
        base,
        derive_chip(base, num_pes=144),
        derive_chip(base, frequency_hz=1.5e9),
        derive_chip(base, dram_bandwidth_bytes_per_s=307.2e9),
    ]
    graph = _scoped("LC5")
    reports = []
    for index, chip in enumerate(siblings):
        reports.append(Executor(chip).run(graph, MODELS["LC5"].batch))
        if index == 0:
            replayed = len(read_calls)
            assert replayed > 0
    assert len(read_calls) == replayed
    assert cold_memo.cache_info()[:2] == (3, 1)
    assert len({r.dense_hit_rate for r in reports}) == 1
    assert len({r.latency_s for r in reports}) == len(siblings)


def test_scoped_rebuild_hits_but_unscoped_rebuild_and_extension_miss(cold_memo):
    chip = mtia2i_spec()
    model = MODELS["LC1"]
    executor = Executor(chip)
    executor.run(_scoped("LC1"), model.batch)
    executor.run(_scoped("LC1"), model.batch)
    assert cold_memo.cache_info()[:2] == (1, 1)
    # Outside the scope every tensor gets a fresh uid, so blocks land in
    # other LLC sets: a different access stream.
    executor.run(model.build_at(model.batch), model.batch)
    assert cold_memo.cache_info()[:2] == (1, 2)
    extended = _scoped("LC1")
    tail = extended.graph_outputs()[0]
    extended.add(layernorm(tail, name="extra"))
    executor.run(extended, model.batch)
    assert cold_memo.cache_info()[:2] == (1, 3)


def test_warmup_and_seed_are_part_of_the_key(cold_memo):
    chip = mtia2i_spec()
    graph = _scoped("LC2")
    batch = MODELS["LC2"].batch
    for warmup_runs in (0, 1, 2):
        Executor(chip).run(graph, batch, warmup_runs=warmup_runs)
    Executor(chip, seed=7).run(graph, batch, warmup_runs=1)
    assert cold_memo.cache_info()[:2] == (0, 4)


def test_lru_bound_and_cache_info(monkeypatch):
    small = MemoryTraceCache(maxsize=2)
    monkeypatch.setattr(executor_module, "memory_trace", small)
    chip = mtia2i_spec()
    graphs = {name: _scoped(name) for name in ("LC1", "LC2", "LC3")}

    def run(name):
        Executor(chip).run(graphs[name], MODELS[name].batch)

    for name in ("LC1", "LC2", "LC1", "LC3"):
        run(name)
    info = small.cache_info()
    assert (info.hits, info.misses, info.maxsize, info.currsize) == (1, 3, 2, 2)
    run("LC2")  # least recently used, so evicted by LC3
    assert small.cache_info()[:2] == (1, 4)
    run("LC3")
    assert small.cache_info()[:2] == (2, 4)
    small.cache_clear()
    assert small.cache_info() == (0, 0, 2, 0)


def test_memo_pins_no_graph(cold_memo):
    graph = _scoped("HC4")
    Executor(mtia2i_spec()).run(graph, MODELS["HC4"].batch)
    assert cold_memo.cache_info().currsize == 1
    ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert ref() is None


def test_seed_reaches_the_llc_victim_sequence(cold_memo):
    """On a chip whose working set overflows the LLC, random victims
    decide hits, so the seed must change the answer — and reproduce it."""
    chip = derive_chip(mtia2i_spec(), sram_capacity_bytes=128 * MiB)
    batch = MODELS["LC5"].batch
    seed0 = Executor(chip).run(_scoped("LC5"), batch)
    seed3 = Executor(chip, seed=3).run(_scoped("LC5"), batch)
    assert seed3.dense_hit_rate != seed0.dense_hit_rate
    assert seed3.latency_s != seed0.latency_s
    cold_memo.cache_clear()
    again = Executor(chip, seed=3).run(_scoped("LC5"), batch)
    assert again == seed3
