"""Memory-error injection (paper section 5.1).

"We developed a memory error injection tool to identify which parts of a
model (e.g., weights, activations, inputs, or outputs) are most
sensitive to errors and how to mitigate them.  We found that bit flips
in Table Batched Embedding (TBE) indices, TBE table rows, or specific
bits in floating-point representations of dense weights can cause NaNs
or output corruptions, with some failures occurring with high
probability."

This module runs a real (small) numeric DLRM forward pass and flips
actual bits in each storage region, classifying every outcome — so the
sensitivity ranking is measured.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict

import numpy as np


class ErrorRegion(enum.Enum):
    """Where a bit flip lands."""

    TBE_INDICES = "tbe_indices"
    TBE_ROWS = "tbe_rows"
    DENSE_WEIGHTS = "dense_weights"
    ACTIVATIONS = "activations"
    INPUTS = "inputs"


class Outcome(enum.Enum):
    """Classified effect of one injected error."""

    BENIGN = "benign"  # output shift below tolerance
    CORRUPTED = "corrupted"  # silent output corruption above tolerance
    NAN = "nan"  # NaN/Inf in the output
    CRASH = "crash"  # out-of-bounds index (detectable fault)


# Fixed NumericDlrm shape: 8 tables of 4,096 rows of 32, 64 dense
# features into a 128-wide bottom layer, batches of 64 with 8 lookups
# pooled per table.
NUM_TABLES = 8
ROWS_PER_TABLE = 4096
BATCH = 64
EMBED_DIM = 32
DENSE_FEATURES = 64
HIDDEN = 128
POOLING = 8
# |output delta| above this is silent corruption, not a benign shift.
TOLERANCE = 1e-3


class NumericDlrm:
    """A small, real-arithmetic DLRM used as the injection target
    (weights seeded 0)."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.tables = [
            rng.normal(0, 0.1, size=(ROWS_PER_TABLE, EMBED_DIM)).astype(np.float16)
            for _ in range(NUM_TABLES)
        ]
        self.w_bottom = rng.normal(0, 0.1, size=(DENSE_FEATURES, HIDDEN)).astype(
            np.float16
        )
        top_in = HIDDEN + NUM_TABLES * EMBED_DIM
        self.w_top = rng.normal(0, 0.1, size=(top_in, 1)).astype(np.float16)

    def sample_inputs(self):
        """Draw (dense_features, indices) for one batch (seed 1)."""
        rng = np.random.default_rng(1)
        dense = rng.normal(0, 1, size=(BATCH, DENSE_FEATURES)).astype(np.float16)
        indices = rng.integers(
            0, ROWS_PER_TABLE, size=(NUM_TABLES, BATCH, POOLING)
        ).astype(np.int32)
        return dense, indices

    def forward(self, dense: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """The reference forward pass; raises IndexError on bad indices.

        Overflow/invalid warnings are silenced: propagating Inf/NaN from a
        flipped bit is exactly the behaviour under study.
        """
        if np.any(indices < 0) or np.any(indices >= ROWS_PER_TABLE):
            raise IndexError("embedding index out of bounds")
        with np.errstate(over="ignore", invalid="ignore"):
            bottom = np.maximum(dense.astype(np.float32) @ self.w_bottom.astype(np.float32), 0)
            pooled = [
                self.tables[t].astype(np.float32)[indices[t]].sum(axis=1)
                for t in range(NUM_TABLES)
            ]
            combined = np.concatenate([bottom] + pooled, axis=1)
            logits = combined @ self.w_top.astype(np.float32)
            return 1.0 / (1.0 + np.exp(-logits[:, 0]))


def _flip_bit_int32(array: np.ndarray, flat_index: int, bit: int) -> None:
    view = array.reshape(-1).view(np.uint32)
    view[flat_index] ^= np.uint32(1 << bit)


def _flip_bit_fp16(array: np.ndarray, flat_index: int, bit: int) -> None:
    view = array.reshape(-1).view(np.uint16)
    view[flat_index] ^= np.uint16(1 << bit)


def inject_and_classify(
    model: NumericDlrm,
    region: ErrorRegion,
    rng: np.random.Generator,
) -> Outcome:
    """Flip one random bit in the given region and classify the effect."""
    dense, indices = model.sample_inputs()
    reference = model.forward(dense, indices)
    # Work on copies so the model survives for the next injection.
    tables = [t.copy() for t in model.tables]
    w_bottom = model.w_bottom.copy()
    dense = dense.copy()
    indices = indices.copy()
    if region is ErrorRegion.TBE_INDICES:
        _flip_bit_int32(indices, int(rng.integers(indices.size)), int(rng.integers(32)))
    elif region is ErrorRegion.TBE_ROWS:
        table = int(rng.integers(len(tables)))
        _flip_bit_fp16(tables[table], int(rng.integers(tables[table].size)), int(rng.integers(16)))
    elif region is ErrorRegion.DENSE_WEIGHTS:
        _flip_bit_fp16(w_bottom, int(rng.integers(w_bottom.size)), int(rng.integers(16)))
    elif region is ErrorRegion.INPUTS:
        _flip_bit_fp16(dense, int(rng.integers(dense.size)), int(rng.integers(16)))
    elif region is ErrorRegion.ACTIVATIONS:
        # Activations are transient; model as an input-like flip scaled to
        # one batch element mid-network: flip a bottom-weight bit for one
        # forward only (equivalent corruption surface).
        _flip_bit_fp16(w_bottom, int(rng.integers(w_bottom.size)), int(rng.integers(16)))
    else:  # pragma: no cover - exhaustive enum
        raise AssertionError(region)
    corrupted_model = NumericDlrm.__new__(NumericDlrm)
    corrupted_model.__dict__.update(model.__dict__)
    corrupted_model.tables = tables
    corrupted_model.w_bottom = w_bottom
    try:
        output = corrupted_model.forward(dense, indices)
    except IndexError:
        return Outcome.CRASH
    if not np.all(np.isfinite(output)):
        return Outcome.NAN
    delta = np.max(np.abs(output - reference))
    return Outcome.CORRUPTED if delta > TOLERANCE else Outcome.BENIGN


@dataclasses.dataclass(frozen=True)
class SensitivityReport:
    """Outcome distribution per region over many injections."""

    trials_per_region: int
    outcomes: Dict[ErrorRegion, Dict[Outcome, int]]

    def failure_rate(self, region: ErrorRegion) -> float:
        """Fraction of injections with a non-benign outcome."""
        counts = self.outcomes[region]
        bad = sum(v for k, v in counts.items() if k is not Outcome.BENIGN)
        return bad / self.trials_per_region if self.trials_per_region else 0.0

    def most_sensitive(self) -> ErrorRegion:
        """The region with the highest failure rate."""
        return max(self.outcomes, key=self.failure_rate)


def sensitivity_study(
    trials_per_region: int = 200,
    seed: int = 5,
) -> SensitivityReport:
    """Run the injection campaign across every region of the default
    :class:`NumericDlrm`."""
    model = NumericDlrm()
    rng = np.random.default_rng(seed)
    outcomes: Dict[ErrorRegion, Dict[Outcome, int]] = {}
    for region in ErrorRegion:
        counts: Dict[Outcome, int] = {outcome: 0 for outcome in Outcome}
        for _ in range(trials_per_region):
            counts[inject_and_classify(model, region, rng)] += 1
        outcomes[region] = counts
    return SensitivityReport(trials_per_region=trials_per_region, outcomes=outcomes)
