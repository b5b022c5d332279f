"""Differential test: the executor's memoized memory pass.

``Executor.run`` replays the memory hierarchy once per (graph access
stream, SRAM size, SRAM granule, warm-up count, seed), records each
access's raw bytes in a ``MemoryTrace``, and scales the recorded
accesses per chip in the kernel pass.  The oracle is the code this
replaced, kept here verbatim as ``RetiredExecutor``: one ``run`` that
builds a fresh hierarchy and routes every access through
``_op_traffic``.  Its one edit is that the hierarchy takes
``Executor.seed`` (the retired code ignored it), so seeds other than 0
have an oracle too.

Hypothesis draws zoo models, design-space chips (plus the MTIA 1,
MTIA 2i and GPU anchors), a second chip in the same SRAM rung that
differs in PE grid, frequency, LPDDR or NoC, the SRAM granule,
``warmup_runs`` 0-2, the GEMM variant or a per-op selector, the Zipf
exponent (a module constant, patched per run), seeds, rebuilt graphs and
a cold or warm memo, and asserts that every ``ExecutionReport`` equals
the oracle's field by field.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List
from unittest import mock

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import gpu_spec, mtia1_spec, mtia2i_spec
from repro.codesign.space import DesignPoint, default_space, derive_chip
from repro.graph import OpGraph, fc, layernorm, tbe
from repro.graph.ops import OpType
from repro.kernels.gemm import default_variants
from repro.kernels.registry import estimate_op
from repro.memory.hierarchy import MemoryHierarchy, Placement, partition_for_activations
from repro.memory.scratch import plan_allocation
from repro.models.zoo import figure6_models
from repro.perf import executor as executor_module
from repro.perf.executor import (
    TBE_LLC_SHARE,
    ExecutionReport,
    Executor,
    OpProfile,
    memory_trace,
)
from repro.tensors import embedding_table, model_input, weight
from repro.tensors.tensor import TensorKind, stable_uid_scope
from repro.units import MiB


class RetiredExecutor(Executor):
    """The executor before its memory pass was split out and memoized."""

    # -- placement ---------------------------------------------------------

    def _build_hierarchy(self, graph: OpGraph) -> tuple:
        plan = plan_allocation(graph.activation_buffer_requests())
        activation_bytes = plan.peak_bytes
        partition = partition_for_activations(self.chip, activation_bytes)
        activations_in_lls = (
            partition.lls_bytes >= activation_bytes and partition.lls_bytes > 0
        )
        pinned: set = set()
        if activations_in_lls:
            gran = self.chip.sram_partition_bytes
            min_llc = 2 * gran
            dense_weights = [
                t for t in graph.weights() if t.kind == TensorKind.WEIGHT
            ]
            dense_total = sum(t.num_bytes for t in dense_weights)
            default_llc = partition.llc_bytes
            if dense_total > default_llc * 0.8 and default_llc > min_llc:
                budget = self.chip.sram.capacity_bytes - partition.lls_bytes - min_llc
                used = 0
                for tensor in sorted(dense_weights, key=lambda t: t.num_bytes):
                    if used + tensor.num_bytes <= budget:
                        pinned.add(tensor.uid)
                        used += tensor.num_bytes
                if used:
                    from repro.memory.hierarchy import SramPartition

                    new_lls = _round_up_to(partition.lls_bytes + used, gran)
                    new_lls = min(new_lls, self.chip.sram.capacity_bytes - min_llc)
                    partition = SramPartition(
                        lls_bytes=new_lls,
                        llc_bytes=self.chip.sram.capacity_bytes - new_lls,
                        granularity_bytes=gran,
                    )
        # The one edit: the retired code built the hierarchy without the
        # executor's seed, so every LLC ran on seed 0.
        hierarchy = MemoryHierarchy(self.chip, partition, seed=self.seed)
        target = Placement.LLS if activations_in_lls else Placement.LLC
        for op in graph.ops:
            for tensor in op.outputs:
                if tensor.kind == TensorKind.ACTIVATION:
                    hierarchy.place(tensor, target, reserve=False)
            for tensor in op.inputs:
                if tensor.kind == TensorKind.INPUT:
                    hierarchy.place(tensor, Placement.HOST)
                elif tensor.uid in pinned:
                    hierarchy.place(tensor, Placement.LLS, reserve=False)
                elif tensor.kind in (TensorKind.WEIGHT, TensorKind.EMBEDDING):
                    hierarchy.place(tensor, Placement.LLC)
        for tensor in graph.graph_outputs():
            hierarchy.place(tensor, Placement.HOST)
        return hierarchy, activation_bytes, activations_in_lls

    # -- execution -----------------------------------------------------------

    def _estimate(self, op):
        variant = None
        if self.variant_selector is not None and op.op_type is OpType.FC:
            variant = self.variant_selector(op)
        elif self.gemm_variant is not None:
            variant = self.gemm_variant
        return estimate_op(op, self.chip, gemm_variant=variant)

    def run(self, graph: OpGraph, batch: int, warmup_runs: int = 1) -> ExecutionReport:
        if batch <= 0:
            raise ValueError("batch must be positive")
        if warmup_runs < 0:
            raise ValueError("warmup_runs must be non-negative")
        graph.validate_schedule()
        hierarchy, activation_bytes, in_lls = self._build_hierarchy(graph)
        rng = np.random.default_rng(self.seed)
        scheduled = [(op, self._estimate(op)) for op in graph.ops]
        for _ in range(warmup_runs):
            for op, estimate in scheduled:
                self._op_traffic(op, hierarchy, estimate, rng)
        profiles: List[OpProfile] = []
        energy = 0.0
        sparse_hits = sparse_total = 0
        sim_hits = sim_samples = 0
        dense_hits_before = hierarchy.llc.stats.hits if hierarchy.llc else 0
        dense_total_before = hierarchy.llc.stats.accesses if hierarchy.llc else 0
        for op, estimate in scheduled:
            traffic, tbe_stats = self._op_traffic(op, hierarchy, estimate, rng)
            if tbe_stats is not None:
                sparse_hits += tbe_stats["scaled_hits"]
                sparse_total += tbe_stats["total_rows"]
                sim_hits += tbe_stats["sim_hits"]
                sim_samples += tbe_stats["sim_samples"]
            profile = self._profile_op(op, estimate, traffic)
            profiles.append(profile)
            energy += self._op_energy(profile)
        if hierarchy.llc:
            dense_hits = hierarchy.llc.stats.hits - dense_hits_before
            dense_total = hierarchy.llc.stats.accesses - dense_total_before
        else:
            dense_hits = dense_total = 0
        dense_hits -= sim_hits
        dense_total -= sim_samples
        return ExecutionReport(
            chip_name=self.chip.name,
            model_name=graph.name,
            batch=batch,
            op_profiles=profiles,
            dense_hit_rate=dense_hits / dense_total if dense_total > 0 else 1.0,
            sparse_hit_rate=sparse_hits / sparse_total if sparse_total > 0 else 0.0,
            activation_buffer_bytes=activation_bytes,
            lls_bytes=hierarchy.partition.lls_bytes,
            llc_bytes=hierarchy.partition.llc_bytes,
            activations_in_lls=in_lls,
            weight_bytes=graph.weight_bytes(),
            energy_j=energy,
        )

    def _op_traffic(self, op, hierarchy, estimate, rng):
        from repro.memory.hierarchy import Traffic

        traffic = Traffic()
        tbe_stats = None
        writebacks_before = (
            hierarchy.llc.stats.bytes_written_back if hierarchy.llc else 0
        )
        grid_side = max(1, int(round(math.sqrt(self.chip.num_pes))))
        if op.op_type is OpType.TBE:
            tables = [t for t in op.inputs if t.kind == TensorKind.EMBEDDING]
            if tables:
                gathered, tbe_stats = self._tbe_gather_traffic(op, tables, hierarchy, rng)
                traffic += gathered
        seen = set()
        for tensor in op.inputs:
            if tensor.uid in seen:
                continue
            seen.add(tensor.uid)
            if op.op_type is OpType.TBE and tensor.kind == TensorKind.EMBEDDING:
                continue  # handled above
            is_weight = tensor.kind in (TensorKind.WEIGHT, TensorKind.EMBEDDING)
            factor = (
                estimate.weight_read_factor if is_weight else estimate.activation_read_factor
            )
            moved = hierarchy.read(tensor)
            replication = 1.0
            if is_weight and not estimate.broadcast_weights:
                replication = float(grid_side)
            scaled = _scale_traffic(moved, factor, noc_scale=factor * replication)
            scaled.host_bytes = moved.host_bytes
            traffic += scaled
        for tensor in op.outputs:
            moved = hierarchy.write(tensor)
            traffic += _scale_traffic(moved, 1.0)
        if hierarchy.llc:
            traffic.dram_bytes += (
                hierarchy.llc.stats.bytes_written_back - writebacks_before
            )
        return traffic, tbe_stats

    def _tbe_gather_traffic(self, op, tables, hierarchy, rng):
        from repro.memory.che import tbe_llc_hit_rate
        from repro.memory.hierarchy import Traffic

        total_rows = max(1, op.attrs["total_rows"])
        num_tables = max(1, op.attrs["num_tables"])
        row_bytes = max(1, tables[0].shape[1] * tables[0].dtype.bytes)
        if hierarchy.llc is not None:
            hit_rate = tbe_llc_hit_rate(
                num_rows_per_table=tables[0].shape[0],
                num_tables=num_tables,
                row_bytes=row_bytes,
                llc_bytes_for_tbe=int(hierarchy.partition.llc_bytes * TBE_LLC_SHARE),
                block_bytes=hierarchy.block_bytes,
                zipf_exponent=executor_module.ZIPF_EXPONENT,
            )
        else:
            hit_rate = 0.0
        total_bytes = float(total_rows * row_bytes)
        traffic = Traffic(
            sram_bytes=total_bytes,
            dram_bytes=total_bytes * (1.0 - hit_rate),
            noc_bytes=total_bytes,
        )
        stats = {
            "scaled_hits": int(round(hit_rate * total_rows)),
            "total_rows": total_rows,
            "sim_hits": 0,
            "sim_samples": 0,
        }
        return traffic, stats


def _round_up_to(value: int, granule: int) -> int:
    return (value + granule - 1) // granule * granule


def _scale_traffic(traffic, factor, noc_scale=None):
    from repro.memory.hierarchy import Traffic

    return Traffic(
        local_memory_bytes=traffic.local_memory_bytes * factor,
        sram_bytes=traffic.sram_bytes * factor,
        dram_bytes=traffic.dram_bytes * factor,
        host_bytes=traffic.host_bytes * factor,
        noc_bytes=traffic.noc_bytes * (noc_scale if noc_scale is not None else factor),
    )


# -- helpers -----------------------------------------------------------------

MODELS = {model.name: model for model in figure6_models()}
SPACE = default_space()
VARIANTS = default_variants()


def _build(name: str, scoped: bool = True) -> OpGraph:
    model = MODELS[name]
    if not scoped:
        return model.build_at(model.batch)
    with stable_uid_scope():
        return model.build_at(model.batch)


def _pick_variant(op):
    return VARIANTS[len(op.name) % len(VARIANTS)]


def assert_reports_equal(new: ExecutionReport, old: ExecutionReport) -> None:
    for field in dataclasses.fields(ExecutionReport):
        if field.name == "op_profiles":
            continue
        assert getattr(new, field.name) == getattr(old, field.name), field.name
    assert len(new.op_profiles) == len(old.op_profiles)
    for mine, theirs in zip(new.op_profiles, old.op_profiles):
        assert dataclasses.asdict(mine) == dataclasses.asdict(theirs), mine.op_name


def _check(chip, graph, batch, warmup_runs, zipf_exponent=None,
           **options) -> ExecutionReport:
    """Both executors on one input; ``zipf_exponent`` patches the
    executor's module constant for the run."""
    with mock.patch.object(
        executor_module, "ZIPF_EXPONENT",
        executor_module.ZIPF_EXPONENT if zipf_exponent is None else zipf_exponent,
    ):
        new = Executor(chip, **options).run(graph, batch, warmup_runs=warmup_runs)
        old = RetiredExecutor(chip, **options).run(
            graph, batch, warmup_runs=warmup_runs
        )
    assert_reports_equal(new, old)
    return new


@st.composite
def chips(draw):
    """A design-space chip or an anchor, sometimes with another SRAM
    partition granule."""
    if draw(st.booleans()):
        chip = draw(st.sampled_from((mtia1_spec(), mtia2i_spec(), gpu_spec())))
    else:
        point = DesignPoint(**{
            axis: draw(st.sampled_from(ladder)) for axis, ladder in SPACE.axes().items()
        })
        chip = SPACE.to_chip(point)
    if chip.sram.capacity_bytes % (64 * MiB) == 0 and draw(st.booleans()):
        granule = draw(st.sampled_from((16 * MiB, 64 * MiB)))
        chip = dataclasses.replace(chip, sram_partition_bytes=granule)
    return chip


def _sibling(draw, chip):
    """A chip in ``chip``'s SRAM rung (same size and granule) that
    differs in PE grid, frequency, LPDDR bandwidth or NoC."""
    axis = draw(st.sampled_from(("num_pes", "frequency_hz", "dram", "noc")))
    if axis == "num_pes":
        options = [n for n in SPACE.num_pes if n != chip.num_pes]
        return derive_chip(chip, num_pes=draw(st.sampled_from(options)))
    if axis == "frequency_hz":
        options = [f for f in SPACE.frequency_hz if f != chip.frequency_hz]
        return derive_chip(chip, frequency_hz=draw(st.sampled_from(options)))
    if axis == "dram":
        options = [
            b for b in SPACE.dram_bandwidth_bytes_per_s
            if b != chip.dram.bandwidth_bytes_per_s
        ]
        return derive_chip(chip, dram_bandwidth_bytes_per_s=draw(st.sampled_from(options)))
    scale = draw(st.sampled_from((0.5, 2.0)))
    return derive_chip(chip, noc_bandwidth_bytes_per_s=chip.noc_bandwidth_bytes_per_s * scale)


@st.composite
def executor_options(draw):
    """Everything an ``Executor`` takes besides the chip, plus a Zipf
    exponent to patch in."""
    options = {
        "seed": draw(st.sampled_from((0, 0, 1, 3))),
        "zipf_exponent": draw(st.sampled_from((1.05, 0.0, 0.8, 1.3))),
    }
    kernels = draw(st.sampled_from(("default", "variant", "selector")))
    if kernels == "variant":
        options["gemm_variant"] = draw(st.sampled_from(VARIANTS))
    elif kernels == "selector":
        options["variant_selector"] = _pick_variant
    return options


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_memoized_runs_match_retired_executor(data):
    if data.draw(st.booleans(), label="cold memo"):
        memory_trace.cache_clear()
    name = data.draw(st.sampled_from(sorted(MODELS)), label="model")
    batch = MODELS[name].batch
    chip = data.draw(chips(), label="chip")
    sibling = _sibling(data.draw, chip)
    graph = _build(name, scoped=data.draw(st.booleans(), label="scoped"))
    warmup_runs = data.draw(st.integers(0, 2), label="warmup_runs")
    options = data.draw(executor_options(), label="options")
    _check(chip, graph, batch, warmup_runs, **options)
    # The sibling shares the SRAM rung, the warm-up count and the seed:
    # its memory pass is the same trace, reached through this graph or
    # a scoped rebuild of it.
    if data.draw(st.booleans(), label="rebuild for sibling"):
        graph = _build(name)
    _check(sibling, graph, batch, warmup_runs, **options)
    _check(chip, graph, batch, data.draw(st.integers(0, 2)), **data.draw(executor_options()))


# -- fixed cases ---------------------------------------------------------------


def _weight_heavy_graph(num_layers=8, hidden=4096, batch=256):
    """Dense weights that overflow the default LLC, so pinning kicks in."""
    x = model_input(batch, hidden, name="x")
    graph = OpGraph(name="weight_heavy")
    current = graph.add(layernorm(x, name="stage")).output
    for i in range(num_layers):
        current = graph.add(
            fc(current, weight(hidden, hidden, name=f"w{i}"), name=f"fc{i}")
        ).output
    return graph


def _spilling_graph():
    """Activations too big for the LLS: dirty LLC evictions write back."""
    x = model_input(8192, 24576, name="x")
    graph = OpGraph(name="spiller")
    staged = graph.add(layernorm(x, name="ln0"))
    graph.add(layernorm(staged.output, name="ln1"))
    return graph


def test_every_warmup_count_matches_on_one_warm_memo():
    memory_trace.cache_clear()
    chip = derive_chip(mtia2i_spec(), sram_capacity_bytes=128 * MiB)
    graph = _build("LC5")
    reports = [_check(chip, graph, MODELS["LC5"].batch, w) for w in (0, 1, 2, 1, 0)]
    assert reports[0].dense_hit_rate != reports[1].dense_hit_rate


def test_every_granule_matches_on_one_warm_memo():
    memory_trace.cache_clear()
    graph = _build("HC2")
    batch = MODELS["HC2"].batch
    base = mtia2i_spec()
    partitions = set()
    for granule in (32 * MiB, 16 * MiB, 64 * MiB, 32 * MiB):
        chip = dataclasses.replace(base, sram_partition_bytes=granule)
        partitions.add(_check(chip, graph, batch, 1).lls_bytes)
    assert len(partitions) > 1


def test_pinned_weights_and_writebacks_match():
    memory_trace.cache_clear()
    chip = mtia2i_spec()
    pinned = _check(chip, _weight_heavy_graph(), 256, 1)
    assert pinned.lls_bytes > 64 * MiB
    spilled = _check(chip, _spilling_graph(), 8192, 0)
    assert not spilled.activations_in_lls
    _check(derive_chip(chip, num_pes=144), _spilling_graph(), 8192, 0)


def test_gpu_without_llc_matches():
    memory_trace.cache_clear()
    for name in ("LC1", "HC1"):
        _check(gpu_spec(), _build(name), MODELS[name].batch, 1)


def test_graphs_differing_only_in_a_kind_or_op_type_do_not_share_a_trace():
    """Same uids, sizes and op order: a tensor's kind decides its
    placement, and a TBE gathers its tables instead of streaming them."""
    memory_trace.cache_clear()
    chip = mtia2i_spec()
    x = model_input(256, 1024, name="x")
    w = weight(1024, 1024, name="w")
    dense = OpGraph(name="dense")
    layer = dense.add(fc(x, w, name="fc"))
    hosted = OpGraph(name="hosted")
    hosted.add(dataclasses.replace(
        layer, inputs=[x, dataclasses.replace(w, kind=TensorKind.INPUT)]
    ))
    tables = [embedding_table(200_000, 64, name=f"t{i}") for i in range(4)]
    gathered = OpGraph(name="gathered")
    lookup = gathered.add(tbe(tables, batch=256, avg_indices_per_lookup=8))
    streamed = OpGraph(name="streamed")
    streamed.add(dataclasses.replace(lookup, op_type=OpType.ELEMENTWISE))
    for graph in (dense, hosted, gathered, streamed):
        _check(chip, graph, 256, 1)
    assert memory_trace.cache_info()[:2] == (0, 4)
