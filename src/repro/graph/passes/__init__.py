"""Graph optimization passes (paper sections 4.2 and 6)."""

from repro.graph.passes.broadcast import defer_broadcast
from repro.graph.passes.fusion import (
    batch_layernorms,
    fuse_sibling_transpose_fc,
    fuse_vertical,
)
from repro.graph.passes.scheduling import minimize_liveness

__all__ = [
    "batch_layernorms",
    "defer_broadcast",
    "fuse_sibling_transpose_fc",
    "fuse_vertical",
    "minimize_liveness",
]
