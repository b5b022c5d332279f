"""A working jagged-tensor implementation.

Sequence embeddings and HSTU's ragged attention (paper section 4.3) operate
on *jagged* tensors, where each batch item has a different sequence length.
This module implements the jagged layout used by FBGEMM-style operators:
a flat ``values`` array of shape ``(total_len, dim)`` plus an ``offsets``
array of length ``batch + 1`` delimiting each row's segment.

Unlike most of this library, which is symbolic, these operators compute
real values: the section 4.3 benchmark pools and normalizes sampled
sequences through them.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np


@dataclasses.dataclass
class JaggedTensor:
    """A batch of variable-length rows stored contiguously.

    ``values`` has shape ``(offsets[-1], dim)``; row ``i`` occupies
    ``values[offsets[i]:offsets[i + 1]]``.
    """

    values: np.ndarray
    offsets: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values)
        self.offsets = np.asarray(self.offsets, dtype=np.int64)
        if self.values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {self.values.shape}")
        if self.offsets.ndim != 1 or len(self.offsets) < 1:
            raise ValueError("offsets must be a 1-D array with at least one entry")
        if self.offsets[0] != 0:
            raise ValueError("offsets must start at 0")
        if np.any(np.diff(self.offsets) < 0):
            raise ValueError("offsets must be non-decreasing")
        if self.offsets[-1] != self.values.shape[0]:
            raise ValueError(
                f"offsets[-1]={self.offsets[-1]} must equal number of value rows "
                f"{self.values.shape[0]}"
            )

    @property
    def batch_size(self) -> int:
        """Number of jagged rows."""
        return len(self.offsets) - 1

    @property
    def dim(self) -> int:
        """Embedding dimension of each value row."""
        return self.values.shape[1]

    @property
    def lengths(self) -> np.ndarray:
        """Per-row sequence lengths."""
        return np.diff(self.offsets)

    def row(self, i: int) -> np.ndarray:
        """The ``i``-th variable-length row as a view."""
        return self.values[self.offsets[i] : self.offsets[i + 1]]

    @classmethod
    def from_rows(cls, rows: Sequence[np.ndarray]) -> "JaggedTensor":
        """Build from a list of ``(len_i, dim)`` arrays (``len_i`` may be 0)."""
        rows = [np.atleast_2d(np.asarray(r)) for r in rows]
        dims = {r.shape[1] for r in rows if r.size}
        if len(dims) > 1:
            raise ValueError(f"rows disagree on dim: {sorted(dims)}")
        dim = dims.pop() if dims else 1
        lengths = [r.shape[0] if r.size else 0 for r in rows]
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        if sum(lengths):
            values = np.concatenate([r for r in rows if r.size], axis=0)
        else:
            values = np.zeros((0, dim))
        return cls(values=values, offsets=offsets)


def jagged_softmax(jagged: JaggedTensor) -> JaggedTensor:
    """Row-segment softmax: softmax over each row's sequence, per feature.

    Used by ragged attention where attention scores for each query are
    normalized only over that user's history length.
    """
    out = np.empty_like(jagged.values, dtype=np.float64)
    for i in range(jagged.batch_size):
        start, stop = jagged.offsets[i], jagged.offsets[i + 1]
        if start == stop:
            continue
        seg = jagged.values[start:stop].astype(np.float64)
        seg = seg - seg.max(axis=0, keepdims=True)
        exp = np.exp(seg)
        out[start:stop] = exp / exp.sum(axis=0, keepdims=True)
    return JaggedTensor(values=out.astype(jagged.values.dtype, copy=False), offsets=jagged.offsets.copy())


def jagged_sum_pool(jagged: JaggedTensor) -> np.ndarray:
    """Sum-pool each jagged row to a single vector (TBE-style pooling)."""
    pooled = np.zeros((jagged.batch_size, jagged.dim), dtype=np.float64)
    for i in range(jagged.batch_size):
        pooled[i] = jagged.row(i).sum(axis=0)
    return pooled.astype(jagged.values.dtype, copy=False)
