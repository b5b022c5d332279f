"""The corruptible serving path the SDC campaign injects into.

A quantized replica of the §5.6 A/B harness's serving stack for the
:class:`repro.fleet.abtest.SyntheticCtrModel`: per-request features are
part dense, part gathered from an FP16 embedding table; the logit is
computed with the *actual* INT8 arithmetic of :mod:`repro.quant.int8`
(row-wise dynamic activations, static per-channel weights, explicit
wide accumulation).  Every artifact a corruption can land in exists as
real bytes — the FP16 table, the INT8 weight words, the quantized
activation matrix, the integer accumulator — and every detector runs
its real computation over those bytes.

Ground-truth labels always come from the clean model, so the normalized
entropy of the corrupted path against those labels, minus the NE of the
clean quantized path, isolates exactly the quality damage of the
surviving corruption (the paper's §5.6 metric applied to §5.1's threat).
"""

from __future__ import annotations

import dataclasses
from typing import Optional

import numpy as np

from repro.fleet.abtest import SyntheticCtrModel
from repro.quant.int8 import (
    QuantizedTensor,
    accumulate_int8,
    dequantize_accumulator,
    quantize_rowwise,
    quantize_weights_static,
)
from repro.sdc.detectors import (
    abft_activation_checksum,
    abft_col_check,
    abft_weight_checksum,
    accumulator_bound,
    hash_rows,
    verify_row_hashes,
)
from repro.sdc.sites import (
    CorruptionSite,
    Injection,
    flip_fp16_bit,
    flip_int8_bit,
    read_array_word,
    recurrent_rows,
    write_array_word,
)

# Saturation stand-in for non-finite gathered values: real datapaths
# clamp to the FP16 max rather than propagate IEEE infinities into the
# quantizer.  The pre-saturation values still drive the range guard.
FP16_SATURATE = 65504.0
# Sanity bound on dequantized logits; the clean path stays far inside.
LOGIT_GUARD = 30.0
# Publish-time envelope multiplier for gathered embedding magnitudes.
EMBED_GUARD_MARGIN = 4.0


@dataclasses.dataclass(frozen=True)
class RequestSlice:
    """One traffic slice: dense features, embedding indices, labels."""

    dense: np.ndarray  # (n, F - D) float64
    indices: np.ndarray  # (n,) intp into the embedding table
    labels: np.ndarray  # (n,) float64 in {0, 1}

    @property
    def num_requests(self) -> int:
        return len(self.labels)


@dataclasses.dataclass
class PipelineState:
    """The mutable serving-side artifacts a fault corrupts.

    The dirty flags are a fast *negative* hint: a set flag tells
    :meth:`CtrServingPipeline.serve` the artifact diverged without
    comparing bytes.  Cleanliness itself is always verified by byte
    comparison against the pipeline's published copy (the arrays are a
    few KiB), so hand-mutated states with stale flags still serve
    correctly — the flags only skip the comparison, never the recompute.
    """

    table: np.ndarray  # fp16 (rows, dim)
    weight_values: np.ndarray  # int8 (F, 1)
    activation_fault: Optional[Injection] = dataclasses.field(default=None, init=False)
    accumulator_fault: Optional[Injection] = dataclasses.field(default=None, init=False)
    table_dirty: bool = dataclasses.field(default=False, init=False)
    weights_dirty: bool = dataclasses.field(default=False, init=False)


@dataclasses.dataclass(frozen=True)
class ServeResult:
    """One pass of the (possibly corrupted) pipeline plus every
    detector's raw verdict over the same bytes."""

    predictions: np.ndarray
    embed_guard_ok: bool
    abft_col_ok: bool
    abft_row_ok: bool
    acc_range_ok: bool
    logit_guard_ok: bool
    row_hash_ok: bool
    overflowed: bool

    @property
    def abft_ok(self) -> bool:
        return self.abft_col_ok and self.abft_row_ok

    @property
    def range_guard_ok(self) -> bool:
        return self.embed_guard_ok and self.acc_range_ok and self.logit_guard_ok


# The fp16 embedding slice: 128 rows of 16 (whole 64-bit words), which
# leaves 48 of the model's 64 features dense.
EMBED_ROWS = 128
EMBED_DIM = 16


class CtrServingPipeline:
    """The quantized embedding + FC serving path for a synthetic CTR
    model, with publish-time integrity artifacts (weight checksum, row
    hashes, magnitude envelope)."""

    def __init__(self, seed: int = 0) -> None:
        self.model = SyntheticCtrModel(num_features=64, seed=seed)
        self.embed_rows = EMBED_ROWS
        self.dense_width = self.model.num_features - EMBED_DIM
        rng = np.random.default_rng(seed)
        self.table = rng.normal(0, 1, size=(EMBED_ROWS, EMBED_DIM)).astype(np.float16)
        self.qweights = quantize_weights_static(
            np.asarray(self.model.true_weights, dtype=np.float32)[:, None]
        )
        # Publish-time integrity artifacts.
        self.weight_checksum = abft_weight_checksum(self.qweights.values)
        self.row_hashes = hash_rows(self.table)
        self.embed_guard_limit = float(
            np.abs(self.table.astype(np.float64)).max() * EMBED_GUARD_MARGIN
        )
        self.acc_bound = accumulator_bound(self.model.num_features)
        # Clean-path intermediates for the most recent traffic slice,
        # keyed by slice identity; ``serve`` reuses them whenever the
        # state's dirty flags prove a fault could not have changed them.
        self._clean_cache: Optional[dict] = None

    # -- traffic ----------------------------------------------------------

    def sample(self, num_requests: int, seed: int = 1) -> RequestSlice:
        """Draw a traffic slice; labels come from the clean ground truth
        (dense features plus *clean* embedding contributions)."""
        rng = np.random.default_rng(seed)
        dense = rng.normal(0, 1, size=(num_requests, self.dense_width))
        indices = rng.integers(0, self.embed_rows, size=num_requests)
        features = np.concatenate(
            [dense, self.table.astype(np.float64)[indices]], axis=1
        )
        logits = features @ self.model.true_weights + self.model.bias
        probs = 1.0 / (1.0 + np.exp(-logits))
        labels = (rng.uniform(size=num_requests) < probs).astype(np.float64)
        return RequestSlice(dense=dense, indices=indices, labels=labels)

    # -- state construction ----------------------------------------------

    def clean_state(self) -> PipelineState:
        """A fresh, uncorrupted copy of the serving artifacts."""
        return PipelineState(
            table=self.table.copy(), weight_values=self.qweights.values.copy()
        )

    def corrupted_state(
        self, injection: Injection, landed_word: Optional[int] = None
    ) -> PipelineState:
        """Apply one injection to a fresh state.

        For ``MEMORY_WORD`` faults the caller resolves the memory path
        first (through ECC or not) and passes the word that actually
        landed; ``None`` means the path corrected/discarded it.
        """
        state = self.clean_state()
        site = injection.site
        if site is CorruptionSite.MEMORY_WORD:
            if landed_word is not None:
                if injection.store == "embedding":
                    write_array_word(state.table, injection.word_index, landed_word)
                    state.table_dirty = True
                else:
                    write_array_word(
                        state.weight_values, injection.word_index, landed_word
                    )
                    state.weights_dirty = True
        elif site is CorruptionSite.QUANT_WEIGHT:
            flip_int8_bit(state.weight_values, injection.flat_index, injection.bit)
            state.weights_dirty = True
        elif site is CorruptionSite.EMBEDDING_ROW:
            flip_fp16_bit(state.table, injection.flat_index, injection.bit)
            state.table_dirty = True
        elif site is CorruptionSite.QUANT_ACTIVATION:
            state.activation_fault = injection
        elif site is CorruptionSite.GEMM_ACCUMULATOR:
            state.accumulator_fault = injection
        else:  # pragma: no cover - exhaustive enum
            raise AssertionError(site)
        return state

    def stored_word(self, injection: Injection) -> int:
        """The clean 64-bit backing word a memory fault targets."""
        source = self.table if injection.store == "embedding" else self.qweights.values
        return read_array_word(source, injection.word_index)

    # -- the serving pass -------------------------------------------------

    def _table_clean(self, state: PipelineState) -> bool:
        """Whether the state's table is byte-equal to the published one.

        The bit-pattern view makes the comparison exact even through
        NaN-producing corruptions; the table is 2 KiB, so this costs
        microseconds against the full gather/quantize pass it gates.
        """
        if state.table_dirty:
            return False
        return bool(
            np.array_equal(
                state.table.view(np.uint16), self.table.view(np.uint16)
            )
        )

    def _weights_clean(self, state: PipelineState) -> bool:
        """Whether the state's weight words match the published ones."""
        if state.weights_dirty:
            return False
        return bool(np.array_equal(state.weight_values, self.qweights.values))

    def _row_hash_ok(self, state: PipelineState, table_clean: bool) -> bool:
        """The background scrubber's verdict on the state's table.

        A byte-clean table trivially matches its publish-time hashes;
        only diverged tables pay for the full row rehash.
        """
        if table_clean:
            return True
        return verify_row_hashes(state.table, self.row_hashes) is None

    def serve(self, requests: RequestSlice, state: PipelineState) -> ServeResult:
        """Run the quantized path over a slice and every detector's raw
        check over the same bytes.

        A state whose table is byte-equal to the published copy reuses
        the gather/quantize/checksum intermediates from the last clean
        pass over the *same* slice — the arrays are identical bytes
        either way.  A state whose table diverged takes the incremental
        path: every stage up to the accumulator is row-local in the
        request dimension (per-row quantization, per-row accumulation)
        or an exact integer column sum, so only the requests gathering a
        diverged table row are recomputed and spliced over copies of the
        clean artifacts.  Either way each ServeResult field is the same
        float/bool the monolithic pass produced; only redundant work is
        skipped.  Mutating faults copy before writing, so cached arrays
        stay clean.
        """
        cache = self._clean_cache
        table_clean = self._table_clean(state)
        weights_clean = self._weights_clean(state)
        cache_hit = cache is not None and cache["requests"] is requests
        reuse = table_clean and cache_hit
        changed: Optional[np.ndarray] = None  # incremental request rows
        if reuse:
            embed_ok = cache["embed_ok"]
            qx = cache["qx"]
            x_checksum = cache["x_checksum"]
        elif cache_hit and cache["gathered_finite"]:
            # Incremental path: find the diverged table rows, rebuild
            # only the requests that gather one of them.
            row_changed = (
                state.table.view(np.uint16) != self.table.view(np.uint16)
            ).any(axis=1)
            changed = np.nonzero(row_changed[requests.indices])[0]
            g = state.table.astype(np.float32)[requests.indices[changed]]
            finite_g = np.isfinite(g)
            # The gathered abs-max decomposes over rows: clean per-row
            # maxima for untouched used rows, fresh maxima for diverged
            # ones.  max() is selection, not arithmetic, so the combined
            # value is the exact float the full pass produces.
            m_unchanged = cache["row_absmax"][
                cache["used_mask"] & ~row_changed
            ].max(initial=np.float32(0.0))
            m_changed = np.abs(g[finite_g]).max(initial=np.float32(0.0))
            embed_ok = bool(
                cache["dense_finite"] and bool(finite_g.all())
            ) and float(np.maximum(m_unchanged, m_changed)) <= self.embed_guard_limit
            if changed.size:
                x_rows = np.nan_to_num(
                    np.concatenate(
                        [requests.dense[changed].astype(np.float32), g], axis=1
                    ),
                    nan=FP16_SATURATE, posinf=FP16_SATURATE,
                    neginf=-FP16_SATURATE,
                )
                q_rows = quantize_rowwise(x_rows)
                values_inc = cache["qx"].values.copy()
                values_inc[changed] = q_rows.values
                scales_inc = cache["qx"].scales.copy()
                scales_inc[changed] = q_rows.scales
                qx = QuantizedTensor(values=values_inc, scales=scales_inc)
                # Column checksums are exact int64 sums, so swapping the
                # diverged rows' contributions is bit-identical to the
                # full column sum.
                x_checksum = (
                    cache["x_checksum"]
                    - cache["qx"].values[changed].astype(np.int64).sum(axis=0)
                    + q_rows.values.astype(np.int64).sum(axis=0)
                )
            else:
                qx = cache["qx"]
                x_checksum = cache["x_checksum"]
        else:
            gathered = state.table.astype(np.float32)[requests.indices]
            raw = np.concatenate(
                [requests.dense.astype(np.float32), gathered], axis=1
            )
            finite = np.isfinite(raw)
            dense_finite = bool(finite[:, : self.dense_width].all())
            gathered_finite = bool(finite[:, self.dense_width :].all())
            embed_ok = (dense_finite and gathered_finite) and float(
                np.abs(gathered[np.isfinite(gathered)]).max(initial=0.0)
            ) <= self.embed_guard_limit
            x = np.nan_to_num(raw, nan=FP16_SATURATE, posinf=FP16_SATURATE,
                              neginf=-FP16_SATURATE)
            qx = quantize_rowwise(x)
            x_checksum = abft_activation_checksum(qx.values)
            if table_clean:
                used_mask = np.zeros(self.embed_rows, dtype=bool)
                used_mask[requests.indices] = True
                cache = {
                    "requests": requests,
                    "embed_ok": embed_ok,
                    "qx": qx,
                    "x_checksum": x_checksum,
                    "dense_finite": dense_finite,
                    "gathered_finite": gathered_finite,
                    "used_mask": used_mask,
                    "row_absmax": np.abs(
                        self.table.astype(np.float32)
                    ).max(axis=1),
                }
                self._clean_cache = cache
                reuse = True
        values = qx.values
        values_clean = True
        fault = state.activation_fault
        if fault is not None:
            rows = recurrent_rows(
                requests.num_requests, fault.recurrence, fault.fault_rows_seed
            )
            if rows.any():
                values = values.copy()
                values_clean = False
                lane = fault.flat_index % values.shape[1]
                values[rows, lane] = (
                    values[rows, lane].view(np.uint8) ^ np.uint8(1 << fault.bit)
                ).view(np.int8)

        acc_cacheable = reuse and values_clean and weights_clean
        acc_incremental = (
            changed is not None
            and values_clean
            and weights_clean
            and "acc" in cache
        )
        try:
            if acc_cacheable and "acc" in cache:
                acc = cache["acc"]
            elif acc_incremental:
                # Row-local accumulation: untouched rows keep their
                # clean accumulator (already range-checked); diverged
                # rows re-accumulate and re-check.
                if changed.size:
                    acc = cache["acc"].copy()
                    acc[changed] = accumulate_int8(
                        values[changed], state.weight_values
                    )
                else:
                    acc = cache["acc"]
            else:
                acc = accumulate_int8(values, state.weight_values)
                if acc_cacheable:
                    cache["acc"] = acc
            overflowed = False
        except OverflowError:
            # The wide-accumulate assertion fired: loud, not silent.
            return ServeResult(
                predictions=np.full(requests.num_requests, 0.5),
                embed_guard_ok=embed_ok, abft_col_ok=False, abft_row_ok=False,
                acc_range_ok=False, logit_guard_ok=False,
                row_hash_ok=self._row_hash_ok(state, table_clean),
                overflowed=True,
            )

        # The row check folds the accumulator the hardware actually holds,
        # so apply any accumulator fault before either identity is tested.
        if reuse and values_clean and "row_lhs" in cache:
            row_lhs = cache["row_lhs"]
        elif changed is not None and values_clean and "row_lhs" in cache:
            if changed.size:
                row_lhs = cache["row_lhs"].copy()
                row_lhs[changed] = (
                    values[changed].astype(np.int64) @ self.weight_checksum
                )
            else:
                row_lhs = cache["row_lhs"]
        else:
            row_lhs = values.astype(np.int64) @ self.weight_checksum
            if reuse and values_clean:
                cache["row_lhs"] = row_lhs
        fault = state.accumulator_fault
        if fault is not None:
            rows = recurrent_rows(
                requests.num_requests, fault.recurrence, fault.fault_rows_seed
            )
            if rows.any():
                acc = acc.copy()
                acc[rows, 0] = np.bitwise_xor(
                    acc[rows, 0], np.int64(1) << np.int64(fault.bit)
                )

        abft_col_ok = abft_col_check(acc, x_checksum, state.weight_values)
        abft_row_ok = bool(np.array_equal(acc.sum(axis=1), row_lhs))
        acc_range_ok = bool(np.abs(acc).max(initial=0) <= self.acc_bound)

        logits = (
            dequantize_accumulator(acc, qx.scales, self.qweights.scales)[:, 0]
            + self.model.bias
        )
        logit_ok = bool(np.abs(logits).max(initial=0.0) <= LOGIT_GUARD)
        predictions = 1.0 / (1.0 + np.exp(-np.clip(logits, -60.0, 60.0)))
        return ServeResult(
            predictions=predictions,
            embed_guard_ok=embed_ok,
            abft_col_ok=abft_col_ok,
            abft_row_ok=abft_row_ok,
            acc_range_ok=acc_range_ok,
            logit_guard_ok=logit_ok,
            row_hash_ok=self._row_hash_ok(state, table_clean),
            overflowed=overflowed,
        )


__all__ = [
    "CtrServingPipeline",
    "PipelineState",
    "RequestSlice",
    "ServeResult",
    "FP16_SATURATE",
    "LOGIT_GUARD",
    "EMBED_GUARD_MARGIN",
]
