"""Memoized kernel-latency tables for the autotune inner loops.

``estimate_gemm`` is a pure function of (shape, chip, dtype, variant) —
the tuner's 'run the kernel and time it' primitive — so repeated
evaluations of the same point inside a tuning sweep are pure waste.  A
:class:`KernelLatencyMemo` caches estimates keyed on
``(op, (m, k, n), dtype, frequency_hz, variant.key())``.

The memo is *bound to one chip instance*: two chips can share a name
and frequency while differing elsewhere (peak-FLOPs tables, DPE
geometry), so caching across chips on those fields alone could return
a wrong-but-plausible latency.  Callers create one memo per tuning run
(``compare_tuners``, ``autotune_model``) and the memo refuses lookups
for any other chip.  Transparency — memoized latency == recomputed
latency, always — is property-tested in
``tests/test_fastsim_properties.py``.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.arch.specs import ChipSpec
from repro.kernels.gemm import GemmVariant, estimate_gemm
from repro.tensors.dtypes import DType
from repro.tensors.tensor import GemmShape


class KernelLatencyMemo:
    """Per-chip cache of kernel cost-model evaluations."""

    __slots__ = ("_chip", "_table", "hits", "misses")

    def __init__(self, chip: ChipSpec) -> None:
        self._chip = chip
        self._table: Dict[Tuple, float] = {}
        self.hits = 0
        self.misses = 0

    @property
    def chip(self) -> ChipSpec:
        return self._chip

    def __len__(self) -> int:
        return len(self._table)

    def measure(
        self, shape: GemmShape, variant: GemmVariant, dtype: DType
    ) -> float:
        """``estimate_gemm(...).engine_time_s``, cached."""
        key = (
            "gemm",
            (shape.m, shape.k, shape.n),
            dtype,
            self._chip.frequency_hz,
            variant.key(),
        )
        cached = self._table.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        time_s = estimate_gemm(shape, self._chip, dtype, variant).engine_time_s
        self._table[key] = time_s
        return time_s
