"""Fusion passes (paper sections 4.2 and 6).

Fusions move a sub-graph's working set out of the shared SRAM into the
PEs' distributed Local Memory by combining operators that would otherwise
load and store intermediates through LLS/LLC:

* **vertical fusion** — an FC followed by its single-consumer elementwise
  / activation chain becomes one kernel;
* **sibling transpose-FC fusion** — a transposed output used as input to
  multiple FC layers is fused with them, shrinking the activation size
  and improving cache hit rate (up to 15% on some models);
* **horizontal FC fusion** — parallel FCs reading the same input run as
  one kernel;
* **LayerNorm batching** — hundreds of small LayerNorms are batched
  horizontally to amortize kernel-launch overhead (section 6).
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.graph.graph import OpGraph
from repro.graph.ops import Op, OpType, fused

# Elementwise-ish ops eligible for vertical fusion into a producer FC.
_VERTICAL_FUSABLE = (OpType.ELEMENTWISE, OpType.LAYERNORM, OpType.CAST)


def _rebuild(graph: OpGraph, new_ops: List[Op]) -> OpGraph:
    result = OpGraph(name=graph.name)
    for op in new_ops:
        result.add(op)
    result.validate_schedule()
    return result


def _consumer_counts(graph: OpGraph) -> Dict[int, int]:
    counts: Dict[int, int] = {}
    for op in graph.ops:
        for t in op.inputs:
            counts[t.uid] = counts.get(t.uid, 0) + 1
    return counts


def fuse_vertical(graph: OpGraph) -> OpGraph:
    """Fuse each FC with its downstream single-consumer elementwise chain."""
    counts = _consumer_counts(graph)
    consumed: Set[int] = set()
    new_ops: List[Op] = []
    position = {id(op): i for i, op in enumerate(graph.ops)}
    for op in graph.ops:
        if id(op) in consumed:
            continue
        if op.op_type is not OpType.FC:
            new_ops.append(op)
            continue
        chain = [op]
        current = op
        while True:
            out = current.outputs[0]
            if counts.get(out.uid, 0) != 1:
                break
            consumers = graph.consumers_of(out)
            if len(consumers) != 1:
                break
            nxt = consumers[0]
            if nxt.op_type not in _VERTICAL_FUSABLE:
                break
            # Only fuse ops adjacent in dataflow with no other inputs
            # produced later than the FC (keeps the schedule valid).
            if any(
                graph.producer_of(t) is not None
                and position[id(graph.producer_of(t))] > position[id(op)]
                and graph.producer_of(t) not in chain
                for t in nxt.inputs
            ):
                break
            chain.append(nxt)
            current = nxt
        if len(chain) == 1:
            new_ops.append(op)
            continue
        for link in chain[1:]:
            consumed.add(id(link))
        new_ops.append(fused(chain, name=f"{op.name}_fused"))
    return _rebuild(graph, new_ops)


def fuse_sibling_transpose_fc(graph: OpGraph) -> OpGraph:
    """Fuse a transpose with all the sibling FCs (two or more) consuming
    its output.

    This is the paper's example fusion: "a transposed output is used as
    input for multiple FC layers; fusing these improved cache locality".
    """
    new_ops: List[Op] = []
    consumed: Set[int] = set()
    for op in graph.ops:
        if id(op) in consumed:
            continue
        if op.op_type is not OpType.TRANSPOSE:
            new_ops.append(op)
            continue
        siblings = [
            c for c in graph.consumers_of(op.outputs[0]) if c.op_type is OpType.FC
        ]
        all_consumers = graph.consumers_of(op.outputs[0])
        if len(siblings) < 2 or len(siblings) != len(all_consumers):
            new_ops.append(op)
            continue
        for sibling in siblings:
            consumed.add(id(sibling))
        new_ops.append(fused([op] + siblings, name=f"{op.name}_sibling_fc_fused"))
    return _rebuild(graph, new_ops)


def fuse_horizontal_fc(graph: OpGraph) -> OpGraph:
    """Fuse parallel FCs (two or more) that read the same input tensor into
    one kernel."""
    groups: Dict[int, List[Op]] = {}
    for op in graph.ops:
        if op.op_type is OpType.FC:
            groups.setdefault(op.inputs[0].uid, []).append(op)
    fuse_sets = {
        id(member): members
        for members in groups.values()
        if len(members) >= 2
        for member in members
    }
    new_ops: List[Op] = []
    emitted: Set[int] = set()
    for op in graph.ops:
        members = fuse_sets.get(id(op))
        if members is None:
            new_ops.append(op)
            continue
        group_key = id(members[0])
        if group_key in emitted:
            continue
        emitted.add(group_key)
        new_ops.append(fused(members, name=f"{members[0].name}_horizontal_fused"))
    graph_out = _rebuild_tolerant(graph, new_ops)
    return graph_out


def _rebuild_tolerant(graph: OpGraph, new_ops: List[Op]) -> OpGraph:
    """Rebuild, hoisting fused ops later if their inputs are not ready yet.

    Horizontal fusion can group an op with a later sibling whose other
    inputs appear in between; emit ops in an order that respects
    producers.
    """
    result = OpGraph(name=graph.name)
    pending = list(new_ops)
    produced: Set[int] = set()
    for op in graph.ops:
        for t in op.inputs:
            if graph.producer_of(t) is None:
                produced.add(t.uid)
    progress = True
    while pending and progress:
        progress = False
        remaining: List[Op] = []
        for op in pending:
            ready = all(
                t.uid in produced or graph.producer_of(t) is None for t in op.inputs
            )
            if ready:
                result.add(op)
                for t in op.outputs:
                    produced.add(t.uid)
                progress = True
            else:
                remaining.append(op)
        pending = remaining
    if pending:
        names = [op.name for op in pending]
        raise ValueError(f"fusion produced an unschedulable graph; stuck ops: {names}")
    result.validate_schedule()
    return result


def batch_layernorms(graph: OpGraph) -> OpGraph:
    """Batch independent LayerNorms (two or more) into one
    horizontally-fused kernel.

    Section 6: "hundreds of LayerNorm layers ... batched together
    horizontally to amortize the kernel launch overhead."  Only
    LayerNorms with no dataflow path between them are grouped.
    """
    layernorms = [op for op in graph.ops if op.op_type is OpType.LAYERNORM]
    if len(layernorms) < 2:
        return graph
    # Group LayerNorms whose inputs are all produced strictly before the
    # *first* member of the group.  This guarantees independence (no
    # member can transitively depend on another through an intermediate
    # op), so the batched kernel can run at the first member's position.
    position = {id(op): i for i, op in enumerate(graph.ops)}
    groups: List[List[Op]] = []
    current: List[Op] = []
    group_start = -1
    for ln in sorted(layernorms, key=lambda o: position[id(o)]):
        producer_positions = [
            position[id(graph.producer_of(t))]
            for t in ln.inputs
            if graph.producer_of(t) is not None
        ]
        needed = max(producer_positions) if producer_positions else -1
        if not current:
            current = [ln]
            group_start = position[id(ln)]
        elif needed < group_start:
            current.append(ln)
        else:
            groups.append(current)
            current = [ln]
            group_start = position[id(ln)]
    if current:
        groups.append(current)
    to_fuse = {id(op): group for group in groups if len(group) >= 2 for op in group}
    if not to_fuse:
        return graph
    new_ops: List[Op] = []
    emitted: Set[int] = set()
    for op in graph.ops:
        group = to_fuse.get(id(op))
        if group is None:
            new_ops.append(op)
            continue
        key = id(group[0])
        if key in emitted:
            continue
        emitted.add(key)
        new_ops.append(fused(group, name=f"layernorm_batch_{len(group)}"))
    return _rebuild_tolerant(graph, new_ops)


def count_kernel_launches(graph: OpGraph) -> int:
    """Number of kernel launches the schedule needs (fused ops launch once)."""
    return len(graph.ops)
