"""Differential test: the executor's per-run kernel-estimate memo.

``Executor.run`` estimates each distinct (``_kernel_key(op)``, GEMM
variant) once per run and hands the same ``KernelEstimate`` to every op
that shares it.  The oracle, ``PerOpExecutor``, is the kernel pass as it
stood before the memo: one ``estimate_op`` call per op, with the variant
chosen per op.  Every report must equal the oracle's field by field:
after the fusion pass (FUSED ops keyed by their sub-ops), under a
selector that gives same-shaped FC ops different variants, on ops that
differ only in an attribute or a dtype, and for every Figure 6 model on
MTIA 1, MTIA 2i and the GPU.  A spy checks that a run calls
``estimate_op`` once per distinct key, and the selector once per FC op.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List

import pytest

from repro.arch import gpu_spec, mtia1_spec, mtia2i_spec
from repro.graph import OpGraph, elementwise, fc, fused, hstu_attention, layernorm
from repro.graph.ops import OpType
from repro.graph.passes import fuse_vertical
from repro.kernels.gemm import GemmVariant, default_variants
from repro.kernels.registry import estimate_op
from repro.models.zoo import figure6_models
from repro.perf import executor as executor_module
from repro.perf.executor import ExecutionReport, Executor, OpProfile, memory_trace
from repro.tensors import activation, model_input, weight
from repro.tensors.dtypes import DType
from repro.tensors.tensor import stable_uid_scope

MODELS = {model.name: model for model in figure6_models()}
CHIPS = (mtia1_spec(), mtia2i_spec(), gpu_spec())
VARIANTS = default_variants()


class PerOpExecutor(Executor):
    """The kernel pass before the memo: one estimate per op."""

    def run(self, graph: OpGraph, batch: int, warmup_runs: int = 1) -> ExecutionReport:
        graph.validate_schedule()
        trace = memory_trace(graph, self.chip, warmup_runs, self.seed)
        grid_side = max(1, int(round(math.sqrt(self.chip.num_pes))))
        profiles: List[OpProfile] = []
        energy = 0.0
        sparse_hits = sparse_total = 0
        at = 0
        for index, op in enumerate(graph.ops):
            variant = None
            if self.variant_selector is not None and op.op_type is OpType.FC:
                variant = self.variant_selector(op)
            elif self.gemm_variant is not None:
                variant = self.gemm_variant
            estimate = estimate_op(op, self.chip, gemm_variant=variant)
            traffic, at, tbe_rows = self._scaled_traffic(
                op, estimate, trace, at, grid_side
            )
            traffic.dram_bytes += trace.writebacks[index]
            if self.host_input_fraction != 1.0:
                traffic.host_bytes *= self.host_input_fraction
            if tbe_rows is not None:
                sparse_hits += tbe_rows[0]
                sparse_total += tbe_rows[1]
            profile = self._profile_op(op, estimate, traffic)
            profiles.append(profile)
            energy += self._op_energy(profile)
        dense_hits, dense_total = trace.dense_hits, trace.dense_accesses
        return ExecutionReport(
            chip_name=self.chip.name,
            model_name=graph.name,
            batch=batch,
            op_profiles=profiles,
            dense_hit_rate=dense_hits / dense_total if dense_total > 0 else 1.0,
            sparse_hit_rate=sparse_hits / sparse_total if sparse_total > 0 else 0.0,
            activation_buffer_bytes=trace.activation_bytes,
            lls_bytes=trace.partition.lls_bytes,
            llc_bytes=trace.partition.llc_bytes,
            activations_in_lls=trace.activations_in_lls,
            weight_bytes=graph.weight_bytes(),
            energy_j=energy,
        )


def _build(name: str, fused: bool = False) -> OpGraph:
    model = MODELS[name]
    with stable_uid_scope():
        graph = model.build_at(model.batch)
    return fuse_vertical(graph) if fused else graph


def _check(chip, graph, batch, **options) -> ExecutionReport:
    new = Executor(chip, **options).run(graph, batch)
    old = PerOpExecutor(chip, **options).run(graph, batch)
    assert dataclasses.asdict(new) == dataclasses.asdict(old)
    return new


def _by_name(op):
    """Same-shaped FC ops get different variants: the pick follows the
    op's name, not its shape."""
    return VARIANTS[sum(map(ord, op.name)) % len(VARIANTS)]


@pytest.fixture
def estimate_calls(monkeypatch):
    """Record the ops the executor hands to ``estimate_op`` (the
    registry's own calls for a FUSED op's sub-ops are not counted)."""
    calls = []

    def spy(op, chip, gemm_variant=None):
        calls.append((op, gemm_variant))
        return estimate_op(op, chip, gemm_variant=gemm_variant)

    monkeypatch.setattr(executor_module, "estimate_op", spy)
    return calls


def _distinct_keys(graph, variant_of) -> int:
    return len({(executor_module._kernel_key(op), variant_of(op)) for op in graph.ops})


@pytest.mark.parametrize("chip", CHIPS, ids=lambda chip: chip.name)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_figure6_model_matches_per_op_estimates(name, chip):
    _check(chip, _build(name), MODELS[name].batch)


@pytest.mark.parametrize("name", ("LC5", "HC1"))
def test_fused_graphs_match_per_op_estimates(name):
    graph = _build(name, fused=True)
    assert any(op.op_type is OpType.FUSED for op in graph.ops)
    for chip in CHIPS:
        _check(chip, graph, MODELS[name].batch)
        _check(chip, graph, MODELS[name].batch, gemm_variant=VARIANTS[7])
        _check(chip, graph, MODELS[name].batch, variant_selector=_by_name)


def _twin_graph():
    """Pairs of ops with the same shapes that differ in one thing the
    kernel model reads.  Against ``fc_a`` (op 1): the selector's variant
    (``fc_b``), ``sparse`` (op 3) and the dtype (op 4); against op 5:
    ``ops_per_element`` (op 6) and the dtype (op 7); the ragged
    ``seq_lengths`` of ops 8 and 9, which have equal totals and the same
    first length; the input dtype of FC ops 10 and 11, whose outputs
    match; and one sub-op's ``ops_per_element`` inside FUSED ops
    12 and 13, whose external operands match."""
    graph = OpGraph(name="twins")
    x = graph.add(layernorm(model_input(256, 1024, name="x"), name="ln")).output
    a = graph.add(fc(x, weight(1024, 1024, name="wa"), name="fc_a")).output
    b = graph.add(fc(a, weight(1024, 1024, name="wb"), name="fc_b")).output
    c = graph.add(fc(b, weight(1024, 1024, name="wc"), name="fc_a", sparse=True)).output
    q = model_input(256, 1024, dtype=DType.INT8, name="q")
    d = graph.add(fc(q, weight(1024, 1024, dtype=DType.INT8, name="wd"), name="fc_a")).output
    e = graph.add(elementwise([c], ops_per_element=1.0, name="relu")).output
    graph.add(elementwise([e], ops_per_element=4.0, name="relu"))
    graph.add(elementwise([d], ops_per_element=1.0, name="relu"))
    h = model_input(6, 256, name="h")
    graph.add(hstu_attention(h, seq_lengths=[2, 2, 2], heads=4, head_dim=64, name="attn"))
    graph.add(hstu_attention(h, seq_lengths=[2, 1, 3], heads=4, head_dim=64, name="attn"))
    graph.add(fc(x, weight(1024, 1024, name="w16"), name="mixed"))
    q8 = model_input(256, 1024, dtype=DType.INT8, name="q8")
    int8 = fc(q8, weight(1024, 1024, dtype=DType.INT8, name="w8"), name="mixed")
    graph.add(dataclasses.replace(int8, outputs=[activation(256, 1024, name="mixed_out")]))
    for scale in (1.0, 4.0):
        inner = fc(x, weight(1024, 1024, name=f"wf{scale}"), name="fc_f")
        graph.add(fused([inner, elementwise([inner.output], ops_per_element=scale)]))
    return graph


TWINS = ((1, 2), (1, 3), (1, 4), (5, 6), (5, 7), (8, 9), (10, 11), (12, 13))


def test_ops_differing_in_one_read_field_do_not_share_an_estimate(estimate_calls):
    graph = _twin_graph()
    ops = graph.ops
    # On MTIA 2i every twin's kernel differs (MTIA 1 has no sparse path),
    # so sharing an estimate between twins would change the report.
    for i, j in TWINS:
        assert estimate_op(ops[i], mtia2i_spec(), _by_name(ops[i])) != estimate_op(
            ops[j], mtia2i_spec(), _by_name(ops[j]))
    for chip in CHIPS:
        estimate_calls.clear()
        _check(chip, graph, 256, variant_selector=_by_name)
        assert len(estimate_calls) == len(ops)
        # Without the selector fc_a, fc_b and the FP16 "mixed" FC are
        # one kernel.
        estimate_calls.clear()
        _check(chip, graph, 256)
        assert len(estimate_calls) == len(ops) - 2


@pytest.mark.parametrize("fused", (False, True))
def test_a_run_estimates_each_distinct_key_once(estimate_calls, fused):
    graph = _build("HC1", fused=fused)
    chip = mtia2i_spec()
    selected = []

    def selector(op):
        selected.append(op)
        return _by_name(op)

    cases = (
        ({}, lambda op: None),
        ({"gemm_variant": VARIANTS[3]}, lambda op: VARIANTS[3]),
        ({"variant_selector": selector},
         lambda op: _by_name(op) if op.op_type is OpType.FC else None),
    )
    for options, variant_of in cases:
        estimate_calls.clear()
        selected.clear()
        Executor(chip, **options).run(graph, MODELS["HC1"].batch)
        keys = _distinct_keys(graph, variant_of)
        assert len(estimate_calls) == keys < len(graph.ops)
        seen = {(executor_module._kernel_key(op), variant) for op, variant in estimate_calls}
        assert len(seen) == keys
    fc_ops = [op for op in graph.ops if op.op_type is OpType.FC]
    assert selected == fc_ops


def test_same_shape_fc_ops_under_two_variants_are_estimated_twice(estimate_calls):
    graph = OpGraph(name="pair")
    x = model_input(512, 2048, name="x")
    y = graph.add(fc(x, weight(2048, 2048, name="w0"), name="left")).output
    graph.add(fc(y, weight(2048, 2048, name="w1"), name="right"))
    picks = {"left": GemmVariant(broadcast_weights=False), "right": GemmVariant()}
    _check(mtia2i_spec(), graph, 512, variant_selector=lambda op: picks[op.name])
    assert len(estimate_calls) == 2
    left, right = (estimate_op(op, mtia2i_spec(), picks[op.name]) for op in graph.ops)
    assert left != right
    estimate_calls.clear()
    Executor(mtia2i_spec(), gemm_variant=picks["left"]).run(graph, 512)
    assert len(estimate_calls) == 1
