"""The model graph: ops, dependencies, liveness, and footprint queries.

An :class:`OpGraph` is an ordered collection of ops whose edges are
implied by tensor producer/consumer relationships.  The order of ``ops``
is the *execution schedule*; passes that reorder ops (to shrink
activation liveness, section 4.2) produce a new graph with a different
order but identical dependencies.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.ops import Op
from repro.tensors.tensor import TensorKind, TensorSpec


class GraphError(ValueError):
    """Raised for malformed graphs (cycles, missing producers)."""


@dataclasses.dataclass(frozen=True)
class Liveness:
    """A tensor's live range over schedule indices, inclusive."""

    tensor: TensorSpec
    start: int
    end: int

    @property
    def span(self) -> int:
        """Number of schedule steps the tensor is live."""
        return self.end - self.start + 1


class OpGraph:
    """A scheduled operator graph."""

    def __init__(self, ops: Optional[Sequence[Op]] = None, name: str = "model") -> None:
        self.name = name
        self.ops: List[Op] = []
        self._producer: Dict[int, Op] = {}
        for op in ops or []:
            self.add(op)

    def add(self, op: Op) -> Op:
        """Append an op to the schedule; returns it for chaining."""
        for out in op.outputs:
            if out.uid in self._producer:
                raise GraphError(f"tensor {out} produced twice")
        for inp in op.inputs:
            if inp.kind == TensorKind.ACTIVATION and inp.uid not in self._producer:
                raise GraphError(
                    f"op {op.name!r} consumes activation {inp} with no producer; "
                    "add its producer first or mark it as an input"
                )
        self.ops.append(op)
        for out in op.outputs:
            self._producer[out.uid] = op
        return op

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def producer_of(self, tensor: TensorSpec) -> Optional[Op]:
        """The op producing a tensor, or None for graph inputs/weights."""
        return self._producer.get(tensor.uid)

    def consumers_of(self, tensor: TensorSpec) -> List[Op]:
        """Ops consuming a tensor."""
        return [op for op in self.ops if any(t.uid == tensor.uid for t in op.inputs)]

    # -- structure queries --------------------------------------------------

    def graph_outputs(self) -> List[TensorSpec]:
        """Tensors produced but never consumed."""
        consumed = {t.uid for op in self.ops for t in op.inputs}
        return [t for op in self.ops for t in op.outputs if t.uid not in consumed]

    def weights(self) -> List[TensorSpec]:
        """All distinct weight and embedding tensors."""
        seen: Set[int] = set()
        result: List[TensorSpec] = []
        for op in self.ops:
            for t in op.inputs:
                if t.kind in (TensorKind.WEIGHT, TensorKind.EMBEDDING) and t.uid not in seen:
                    seen.add(t.uid)
                    result.append(t)
        return result

    def weight_bytes(self) -> int:
        """Total parameter footprint (the 'model size' of Table 1)."""
        return sum(t.num_bytes for t in self.weights())

    def embedding_bytes(self) -> int:
        """Footprint of embedding tables only (90% of model size per Table 1)."""
        return sum(t.num_bytes for t in self.weights() if t.kind == TensorKind.EMBEDDING)

    def total_flops(self) -> float:
        """FLOPs for one execution of the graph (one batch)."""
        return sum(op.flops() for op in self.ops)

    def flops_per_sample(self, batch: int) -> float:
        """FLOPs per sample given the graph was built at ``batch``."""
        if batch <= 0:
            raise ValueError("batch must be positive")
        return self.total_flops() / batch

    # -- scheduling / dependencies -------------------------------------------

    def dependencies(self, op: Op) -> List[Op]:
        """Producer ops this op depends on."""
        deps = []
        for t in op.inputs:
            producer = self._producer.get(t.uid)
            if producer is not None and producer is not op:
                deps.append(producer)
        return deps

    def validate_schedule(self) -> None:
        """Check the op order respects producer-before-consumer."""
        position = {id(op): i for i, op in enumerate(self.ops)}
        for op in self.ops:
            for dep in self.dependencies(op):
                if position[id(dep)] >= position[id(op)]:
                    raise GraphError(
                        f"schedule violation: {op.name!r} runs before its "
                        f"dependency {dep.name!r}"
                    )

    def reordered(self, new_order: Sequence[Op]) -> "OpGraph":
        """A new graph with the same ops in a different schedule."""
        if len(new_order) != len(self.ops) or set(map(id, new_order)) != set(
            map(id, self.ops)
        ):
            raise GraphError("reorder must be a permutation of the graph's ops")
        graph = OpGraph(name=self.name)
        graph.ops = list(new_order)
        graph._producer = dict(self._producer)
        graph.validate_schedule()
        return graph

    # -- liveness -------------------------------------------------------------

    def liveness(self) -> List[Liveness]:
        """Live ranges of every activation tensor over schedule indices.

        A tensor is live from the step its producer runs (or step 0 for
        graph inputs) until its last consumer runs.
        """
        position = {id(op): i for i, op in enumerate(self.ops)}
        ranges: Dict[int, Tuple[TensorSpec, int, int]] = {}
        for op in self.ops:
            index = position[id(op)]
            for t in op.outputs:
                if t.kind == TensorKind.ACTIVATION:
                    ranges[t.uid] = (t, index, index)
            for t in op.inputs:
                if t.kind in (TensorKind.ACTIVATION, TensorKind.INPUT):
                    if t.uid in ranges:
                        spec, start, _ = ranges[t.uid]
                        ranges[t.uid] = (spec, start, index)
                    else:
                        ranges[t.uid] = (t, 0, index)
        return [Liveness(tensor=t, start=s, end=e) for t, s, e in ranges.values()]

    def peak_activation_bytes(self) -> int:
        """Peak bytes of simultaneously-live activations — the
        'activation buffer' size autotuning fits into the LLS."""
        events: List[Tuple[int, int]] = []  # (step, delta)
        for live in self.liveness():
            events.append((live.start, live.tensor.num_bytes))
            events.append((live.end + 1, -live.tensor.num_bytes))
        events.sort()
        peak = current = 0
        for _, delta in events:
            current += delta
            peak = max(peak, current)
        return peak

    def activation_buffer_requests(self):
        """Scratch-allocator requests for every activation."""
        from repro.memory.scratch import BufferRequest

        return [
            BufferRequest(
                name=f"{live.tensor.name or live.tensor.uid}",
                size_bytes=live.tensor.num_bytes,
                start=live.start,
                end=live.end,
            )
            for live in self.liveness()
            if live.tensor.num_bytes > 0
        ]
