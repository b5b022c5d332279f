"""Liveness-minimizing operator scheduling (paper section 4.2).

"We maximize data reuse by selecting the best operator scheduling
algorithm for a model to minimize the liveness range required for
activations."  Given a graph, these passes produce a dependency-valid
schedule with a smaller peak activation footprint, which lets the
autotuner fit the activation buffer into LLS at a larger batch size.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.graph.graph import OpGraph
from repro.graph.ops import Op
from repro.tensors.tensor import TensorKind


def _ready_ops(graph: OpGraph, scheduled: Set[int]) -> List[Op]:
    ready = []
    for op in graph.ops:
        if id(op) in scheduled:
            continue
        if all(id(dep) in scheduled for dep in graph.dependencies(op)):
            ready.append(op)
    return ready


def _memory_delta(graph: OpGraph, op: Op, remaining_uses: Dict[int, int]) -> int:
    """Net change in live activation bytes if ``op`` runs next.

    Running an op allocates its activation outputs and frees every input
    whose last remaining use this is.
    """
    allocated = sum(
        t.num_bytes for t in op.outputs if t.kind == TensorKind.ACTIVATION
    )
    freed = 0
    counted: Set[int] = set()
    for t in op.inputs:
        if t.kind not in (TensorKind.ACTIVATION, TensorKind.INPUT):
            continue
        if t.uid in counted:
            continue
        counted.add(t.uid)
        if remaining_uses.get(t.uid, 0) == 1:
            freed += t.num_bytes
    return allocated - freed


def minimize_liveness(graph: OpGraph) -> OpGraph:
    """Memory-aware scheduling: the best of the original order and a
    greedy rescheduling.

    The greedy pass runs the ready op with the smallest net memory growth
    (ties broken by original order) — the classic heuristic production ML
    compilers use (optimal scheduling is NP-hard).  Because greedy can
    backfire on adversarial DAGs, the pass keeps whichever schedule has
    the lower peak, mirroring the paper's 'selecting the best operator
    scheduling algorithm for a model' (section 4.2).
    """
    remaining_uses: Dict[int, int] = {}
    for op in graph.ops:
        seen: Set[int] = set()
        for t in op.inputs:
            if t.uid in seen:
                continue
            seen.add(t.uid)
            remaining_uses[t.uid] = remaining_uses.get(t.uid, 0) + 1
    original_position = {id(op): i for i, op in enumerate(graph.ops)}
    scheduled: Set[int] = set()
    order: List[Op] = []
    while len(order) < len(graph.ops):
        ready = _ready_ops(graph, scheduled)
        if not ready:
            raise ValueError("graph has a dependency cycle")
        best = min(
            ready,
            key=lambda op: (
                _memory_delta(graph, op, remaining_uses),
                original_position[id(op)],
            ),
        )
        order.append(best)
        scheduled.add(id(best))
        seen = set()
        for t in best.inputs:
            if t.uid in seen:
                continue
            seen.add(t.uid)
            if t.uid in remaining_uses:
                remaining_uses[t.uid] -= 1
    rescheduled = graph.reordered(order)
    if rescheduled.peak_activation_bytes() <= graph.peak_activation_bytes():
        return rescheduled
    return graph
