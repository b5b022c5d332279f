"""Reduction Engine (RE) model.

The RE accumulates matrix-multiplication partials as they are produced,
forwards results along a dedicated reduction network to the neighbouring
PE, or hands them to the SIMD Engine (paper section 3.2).  It is also the
hardware that makes dynamic INT8 quantization possible: it tracks per-row
min/max during accumulation so scaling factors are available the moment
the GEMM finishes (section 3.3).  That min/max is the part of the RE the
stack reads (``quant.int8``); accumulation and reduction-network time are
not modelled.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


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
