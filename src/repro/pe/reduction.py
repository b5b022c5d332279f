"""Reduction Engine (RE) model.

The RE accumulates matrix-multiplication partials as they are produced,
forwards results along a dedicated reduction network to the neighbouring
PE, or hands them to the SIMD Engine (paper section 3.2).  It is also the
hardware that makes dynamic INT8 quantization possible: it tracks per-row
min/max during accumulation so scaling factors are available the moment
the GEMM finishes (section 3.3).
"""

from __future__ import annotations

import dataclasses
from typing import Tuple

import numpy as np


@dataclasses.dataclass(frozen=True)
class ReductionConfig:
    """Rates of the reduction network."""

    frequency_hz: float = 1.35e9


# Accumulator elements written per cycle.
ACCUMULATE_LANES = 32
# Bandwidth of the PE-to-PE reduction link, bytes/s.
LINK_BANDWIDTH = 128e9


def accumulate_time(num_elements: int, config: ReductionConfig) -> float:
    """Time to fold ``num_elements`` partials into the accumulator."""
    if num_elements < 0:
        raise ValueError("element count must be non-negative")
    return num_elements / (ACCUMULATE_LANES * config.frequency_hz)


def cross_pe_reduce_time(
    num_elements: int, element_bytes: int, num_pes: int, config: ReductionConfig
) -> float:
    """Time to reduce partials across a column of PEs.

    The dedicated network forms a systolic chain: each hop forwards the
    running sum, so total time is one traversal of the chain plus the
    streaming time of the vector.
    """
    if num_pes <= 0:
        raise ValueError("need at least one PE")
    stream = num_elements * element_bytes / LINK_BANDWIDTH
    hops = max(0, num_pes - 1)
    hop_latency = 4.0 / config.frequency_hz  # a few cycles per hop
    return stream + hops * hop_latency


def rowwise_minmax(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row min and max, as the RE computes during accumulation.

    This is the concrete numeric primitive the dynamic-quantization stack
    builds on: scaling factors derive from these values with no extra pass
    over the data.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
    if matrix.shape[0] == 0:
        return np.zeros(0), np.zeros(0)
    return matrix.min(axis=1), matrix.max(axis=1)
