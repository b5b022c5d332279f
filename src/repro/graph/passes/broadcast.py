"""Delayed In-Batch Broadcast (paper sections 4.2 and 6).

In-Batch Broadcast (IBB) expands user-side inputs to the model batch size
so user-ad pairs align for the interaction layers.  When the early merge
network only needs *user-side* inputs, broadcasting eagerly duplicates
activation data and wastes compute; deferring the broadcast past the
user-side-only ops reduced some models' memory footprint by up to 2x and
increased throughput by 17% in the section 6 case study.

An op participates in deferral when it carries the attribute
``user_side=True``, meaning its math is independent per user row.
"""

from __future__ import annotations

from typing import Dict, List, Set

from repro.graph.graph import OpGraph
from repro.graph.ops import Op, OpType, broadcast, elementwise, fc, layernorm
from repro.tensors.tensor import TensorSpec

# Op types whose row dimension can be shrunk when run pre-broadcast.
_DEFERRABLE = (OpType.FC, OpType.LAYERNORM, OpType.ELEMENTWISE, OpType.CAST)


def _shrink_op(op: Op, old_input: TensorSpec, new_input: TensorSpec) -> Op:
    """Rebuild a deferrable op on the un-broadcast (smaller) input."""
    if op.op_type is OpType.FC:
        weight_tensor = op.inputs[1]
        return fc(new_input, weight_tensor, name=op.name, sparse=op.attr("sparse", False))
    if op.op_type is OpType.LAYERNORM:
        return layernorm(new_input, name=op.name)
    if op.op_type is OpType.ELEMENTWISE:
        return elementwise(
            [new_input],
            function=op.attr("function", "add"),
            ops_per_element=op.attr("ops_per_element", 1.0),
            name=op.name,
        )
    if op.op_type is OpType.CAST:
        from repro.graph.ops import cast

        return cast(new_input, op.output.dtype, name=op.name)
    raise ValueError(f"cannot defer broadcast past {op.op_type}")


def defer_broadcast(graph: OpGraph) -> OpGraph:
    """Push each broadcast below its chain of user-side-only consumers.

    Pattern: ``broadcast(u) -> op1 -> op2 -> ... -> opK -> rest``, where
    each ``op_i`` has ``user_side=True``, a single consumer, and only the
    chain tensor plus weights as inputs.  The rewrite runs the chain on
    the un-broadcast rows and broadcasts the final output instead.
    """
    new_ops: List[Op] = []
    consumed: Set[int] = set()
    replacement: Dict[int, TensorSpec] = {}

    def resolve(t: TensorSpec) -> TensorSpec:
        return replacement.get(t.uid, t)

    for op in graph.ops:
        if id(op) in consumed:
            continue
        if op.op_type is not OpType.BROADCAST:
            rebuilt = _with_inputs(op, [resolve(t) for t in op.inputs])
            if rebuilt is not op:
                for old_out, new_out in zip(op.outputs, rebuilt.outputs):
                    replacement[old_out.uid] = new_out
            new_ops.append(rebuilt)
            continue
        chain = _user_side_chain(graph, op)
        if not chain:
            rebuilt = _with_inputs(op, [resolve(t) for t in op.inputs])
            new_ops.append(rebuilt)
            continue
        # Rebuild the chain on the pre-broadcast input.
        current = resolve(op.inputs[0])
        factor = op.attr("factor")
        for link in chain:
            consumed.add(id(link))
            shrunk = _shrink_op(link, link.inputs[0], current)
            new_ops.append(shrunk)
            current = shrunk.output
        late_broadcast = broadcast(current, factor, name=f"{op.name}_deferred")
        # Downstream consumers of the original chain tail now read the
        # late broadcast's output.
        replacement[chain[-1].output.uid] = late_broadcast.output
        new_ops.append(late_broadcast)
    result = OpGraph(name=graph.name)
    for op in new_ops:
        result.add(op)
    result.validate_schedule()
    return result


def _with_inputs(op: Op, new_inputs: List[TensorSpec]) -> Op:
    if all(a.uid == b.uid for a, b in zip(op.inputs, new_inputs)):
        return op
    # Shapes may have changed (an upstream deferral shrank a tensor);
    # rebuild shape-sensitive ops, otherwise swap inputs in place.
    if op.op_type in _DEFERRABLE and new_inputs[0].shape != op.inputs[0].shape:
        return _shrink_op(op, op.inputs[0], new_inputs[0])
    return Op(
        op_type=op.op_type,
        name=op.name,
        inputs=new_inputs,
        outputs=op.outputs,
        attrs=op.attrs,
    )


def _user_side_chain(graph: OpGraph, bcast: Op) -> List[Op]:
    """The maximal single-consumer chain of user-side ops after a broadcast."""
    chain: List[Op] = []
    current = bcast.output
    while True:
        consumers = graph.consumers_of(current)
        if len(consumers) != 1:
            break
        nxt = consumers[0]
        if nxt.op_type not in _DEFERRABLE or not nxt.attr("user_side", False):
            break
        if nxt.inputs[0].uid != current.uid:
            break
        chain.append(nxt)
        current = nxt.output
    return chain
