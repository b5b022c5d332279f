"""Symbolic tensor descriptions used by the op graph and cost model.

The performance model never materializes model-sized tensors; it reasons
about their shapes, dtypes, and placement.  ``TensorSpec`` is the symbolic
handle that flows through the graph IR, liveness analysis, and the memory
hierarchy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
from typing import Tuple

from repro.tensors.dtypes import DType

_SPEC_IDS = itertools.count()

# Base for scoped uid allocation — far above anything the global
# counters reach organically, so scoped and unscoped uids never collide.
_STABLE_UID_BASE = 1 << 40


@contextlib.contextmanager
def stable_uid_scope():
    """Allocate tensor *and* op uids from a fixed base inside the scope.

    Tensor/op uids normally come from process-global counters, so a
    graph built twice is not byte-identical: the second build's tensors
    carry different uids, which land cache blocks in different LLC sets
    (``hash((uid, index)) % num_sets``) and perturb simulated hit rates
    at the 4th decimal.  Deterministic pipelines that *rebuild* graphs —
    the codesign search re-evaluates zoo models once per candidate chip
    and must be bit-for-bit reproducible under a fixed seed — wrap each
    build in this scope so every rebuild allocates the same uids.

    Graphs from different scope entries share uid ranges, so never mix
    tensors from two scoped builds in one structure keyed by uid; each
    scoped graph must be consumed in isolation (which is how the
    executor and autotuners use graphs).  The global counters are
    untouched — unscoped callers see no change.
    """
    global _SPEC_IDS
    from repro.graph import ops as _ops

    saved_specs, saved_ops = _SPEC_IDS, _ops._OP_IDS
    _SPEC_IDS = itertools.count(_STABLE_UID_BASE)
    _ops._OP_IDS = itertools.count(_STABLE_UID_BASE)
    try:
        yield
    finally:
        _SPEC_IDS = saved_specs
        _ops._OP_IDS = saved_ops


class TensorKind:
    """Role of a tensor in a model, which drives its placement policy.

    The paper (section 4.1) distinguishes activations (reused buffer,
    pinned in LLS when possible), weights (constant, clean LLC evictions),
    and inputs/outputs (short lifetime, wasteful to pin).
    """

    ACTIVATION = "activation"
    WEIGHT = "weight"
    INPUT = "input"
    OUTPUT = "output"
    EMBEDDING = "embedding"

    ALL = (ACTIVATION, WEIGHT, INPUT, OUTPUT, EMBEDDING)


@dataclasses.dataclass(frozen=True)
class TensorSpec:
    """A symbolic tensor: shape, dtype, and role.

    Instances are identified by ``uid`` so two tensors with the same shape
    remain distinct in liveness analysis and cache simulation.
    """

    shape: Tuple[int, ...]
    dtype: DType = DType.FP16
    kind: str = TensorKind.ACTIVATION
    name: str = ""
    uid: int = dataclasses.field(default_factory=lambda: next(_SPEC_IDS))

    def __post_init__(self) -> None:
        if not self.shape:
            raise ValueError("tensor shape must have at least one dimension")
        if any(d <= 0 for d in self.shape):
            raise ValueError(f"tensor dimensions must be positive, got {self.shape}")
        if self.kind not in TensorKind.ALL:
            raise ValueError(f"unknown tensor kind {self.kind!r}")

    @property
    def num_elements(self) -> int:
        """Total element count."""
        count = 1
        for dim in self.shape:
            count *= dim
        return count

    @functools.cached_property
    def num_bytes(self) -> int:
        """Storage footprint in bytes, computed on first read (the spec
        is frozen, and the memory pass reads it on every access)."""
        return self.num_elements * self.dtype.bytes

    @property
    def rank(self) -> int:
        """Number of dimensions."""
        return len(self.shape)

    def with_shape(self, shape: Tuple[int, ...]) -> "TensorSpec":
        """A new tensor spec (fresh uid) with a different shape."""
        return TensorSpec(shape=shape, dtype=self.dtype, kind=self.kind, name=self.name)

    def with_kind(self, kind: str) -> "TensorSpec":
        """A new tensor spec (fresh uid) with a different role."""
        return TensorSpec(shape=self.shape, dtype=self.dtype, kind=kind, name=self.name)

    def __str__(self) -> str:
        dims = "x".join(str(d) for d in self.shape)
        label = self.name or f"t{self.uid}"
        return f"{label}[{dims}:{self.dtype.value}:{self.kind}]"


def activation(
    *shape: int, dtype: DType = DType.FP16, name: str = ""
) -> TensorSpec:
    """Shorthand for an activation tensor spec."""
    return TensorSpec(shape=tuple(shape), dtype=dtype, kind=TensorKind.ACTIVATION, name=name)


def weight(*shape: int, dtype: DType = DType.FP16, name: str = "") -> TensorSpec:
    """Shorthand for a weight tensor spec."""
    return TensorSpec(shape=tuple(shape), dtype=dtype, kind=TensorKind.WEIGHT, name=name)


def embedding_table(
    rows: int, dim: int, dtype: DType = DType.FP16, name: str = ""
) -> TensorSpec:
    """Shorthand for an embedding-table tensor spec."""
    return TensorSpec(shape=(rows, dim), dtype=dtype, kind=TensorKind.EMBEDDING, name=name)


def model_input(*shape: int, dtype: DType = DType.FP16, name: str = "") -> TensorSpec:
    """Shorthand for a model-input tensor spec."""
    return TensorSpec(shape=tuple(shape), dtype=dtype, kind=TensorKind.INPUT, name=name)


@dataclasses.dataclass(frozen=True)
class GemmShape:
    """An M x K x N matrix multiplication shape.

    ``m`` is the batch-like dimension, ``k`` the reduction dimension, and
    ``n`` the output feature dimension, matching the paper's "M x K x N"
    notation (e.g. the 512 x 26592 x 2048 shape in section 4.2).
    """

    m: int
    k: int
    n: int

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n) <= 0:
            raise ValueError(f"GEMM dims must be positive, got {self}")

    @property
    def flops(self) -> int:
        """Multiply-accumulate FLOPs (2 per MAC)."""
        return 2 * self.m * self.k * self.n

    def weight_bytes(self, dtype: DType) -> int:
        """Bytes in the K x N weight tensor."""
        return self.k * self.n * dtype.bytes

    def activation_bytes(self, dtype: DType) -> int:
        """Bytes in the M x K input activation tensor."""
        return self.m * self.k * dtype.bytes

    def output_bytes(self, dtype: DType) -> int:
        """Bytes in the M x N output tensor."""
        return self.m * self.n * dtype.bytes

    def __str__(self) -> str:
        return f"{self.m}x{self.k}x{self.n}"


def transposed(spec: TensorSpec) -> TensorSpec:
    """Spec of the transpose of a rank-2 tensor."""
    if spec.rank != 2:
        raise ValueError(f"can only transpose rank-2 tensors, got rank {spec.rank}")
    return spec.with_shape((spec.shape[1], spec.shape[0]))


def concat_specs(specs: list, axis: int = 0) -> TensorSpec:
    """Spec of concatenating tensors along ``axis``.

    All non-concat dimensions must agree; dtype and kind are taken from
    the first tensor.
    """
    if not specs:
        raise ValueError("cannot concat zero tensors")
    first = specs[0]
    if any(s.rank != first.rank for s in specs):
        raise ValueError("concat requires tensors of equal rank")
    if not (-first.rank <= axis < first.rank):
        raise ValueError(f"axis {axis} out of range for rank {first.rank}")
    axis = axis % first.rank
    for spec in specs[1:]:
        for dim in range(first.rank):
            if dim != axis and spec.shape[dim] != first.shape[dim]:
                raise ValueError(
                    f"concat shape mismatch on dim {dim}: {spec.shape} vs {first.shape}"
                )
    new_shape = list(first.shape)
    new_shape[axis] = sum(s.shape[axis] for s in specs)
    return first.with_shape(tuple(new_shape))
