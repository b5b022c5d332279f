"""SDC detectors: the protection menu the campaign toggles.

Five mechanisms, each with a real detection computation (not an assumed
coverage number) and an explicit overhead model:

* **ECC** — the working (72, 64) SEC-DED codec of
  :mod:`repro.reliability.ecc` applied to the memory words that back
  weights and embedding rows: single-bit flips correct, double-bit flips
  detect, triple-bit flips escape silently (usually miscorrected into a
  *different* wrong word — measured by :func:`triple_flip_escape_rate`).
* **ABFT** — algorithm-based fault tolerance for the quantized matmul:
  an input-column checksum taken at quantization time and a weight-row
  checksum taken at publish time are carried through the integer GEMM,
  so the identities ``1ᵀ(XW) = (1ᵀX)W`` and ``(XW)1 = X(W1)`` hold
  *exactly* in int arithmetic.  A corrupted weight word, activation
  lane, or accumulator entry breaks one of them.
* **Range guards** — dequant-time feasibility checks: gathered embedding
  rows must be finite and inside the publish-time magnitude envelope;
  the integer accumulator cannot algebraically exceed ``K * 127 * 127``;
  dequantized logits have a sanity bound.
* **Row hashing** — publish-time CRC32 per embedding row, re-verified by
  a background scrubber (reusing the overhead model the paper's
  prototype measured, :func:`repro.reliability.ecc.hashing_integrity_overhead`).
* **Fleet screening** — the periodic offline screen of
  :mod:`repro.sdc.screening`, which catches marginal (overclock-tail)
  chips whose datapath flips recur, with a latency set by the screening
  cadence.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import Optional, Tuple

import numpy as np

from repro.reliability.ecc import (
    DATA_BIT_POSITIONS,
    DATA_BITS,
    decode_word,
    encode_word,
)

@dataclasses.dataclass(frozen=True)
class ProtectionProfile:
    """Which detectors a campaign arm enables."""

    name: str
    ecc: bool = False
    abft: bool = False
    range_guard: bool = False
    row_hash: bool = False
    fleet_screen: bool = False

    def enabled(self, detector: str) -> bool:
        """Whether ``detector`` participates in this profile.

        The accumulator overflow assertion is hardware behaviour
        (satellite of the same PR), not an optional detector — it is
        loud in every profile.
        """
        if detector == "overflow":
            return True
        return bool(getattr(self, detector))


def standard_profiles() -> Tuple[ProtectionProfile, ...]:
    """The ladder the campaign table reports: nothing → ECC → ECC+ABFT →
    the full menu.  The acceptance criterion compares rung 1 to rung 3."""
    return (
        ProtectionProfile("none"),
        ProtectionProfile("ecc", ecc=True),
        ProtectionProfile("ecc+abft", ecc=True, abft=True),
        ProtectionProfile(
            "full", ecc=True, abft=True, range_guard=True, row_hash=True,
            fleet_screen=True,
        ),
    )


# ---------------------------------------------------------------------------
# ECC word channel
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class WordReadResult:
    """One 64-bit word read back through the (possibly ECC-protected)
    memory path after a fault."""

    data: int
    outcome: str  # "clean" | "corrected" | "detected" | "silent"


def read_word_through_ecc(word: int, data_bit_flips: Tuple[int, ...]) -> WordReadResult:
    """Write ``word`` through the SEC-DED encoder, flip the codeword bits
    that carry the given *data-space* bit positions, and decode.

    Sampling flips in data space keeps the ECC-on and ECC-off arms of a
    campaign corrupting exactly the same logical bits, so coverage
    deltas are attributable to the codec alone.
    """
    code = encode_word(word)
    for bit in data_bit_flips:
        code ^= 1 << DATA_BIT_POSITIONS[bit]
    result = decode_word(code)
    if result.double_error_detected:
        return WordReadResult(data=word, outcome="detected")
    if result.data == word:
        return WordReadResult(data=word, outcome="corrected" if data_bit_flips else "clean")
    # Odd-weight multi-bit flip: the decoder "corrects" the wrong bit and
    # hands back a silently wrong word — the escape the SDC layer models.
    return WordReadResult(data=result.data, outcome="silent")


def read_word_unprotected(word: int, data_bit_flips: Tuple[int, ...]) -> WordReadResult:
    """The same fault landing on a non-ECC memory path: every flip sticks."""
    for bit in data_bit_flips:
        word ^= 1 << bit
    return WordReadResult(data=word, outcome="silent" if data_bit_flips else "clean")


def triple_flip_escape_rate(samples: int = 500, seed: int = 0) -> float:
    """Fraction of 3-bit data-space flips that SEC-DED fails to flag.

    Odd-weight errors look like single-bit errors to the syndrome, so
    nearly all of them are miscorrected rather than detected — the
    silent-escape rate the memory-word injector relies on.
    """
    rng = np.random.default_rng(seed)
    escaped = 0
    for _ in range(samples):
        word = int(rng.integers(0, 1 << 63)) | (int(rng.integers(0, 2)) << 63)
        bits = tuple(int(b) for b in rng.choice(DATA_BITS, size=3, replace=False))
        if read_word_through_ecc(word, bits).outcome == "silent":
            escaped += 1
    return escaped / samples


# ---------------------------------------------------------------------------
# ABFT for the quantized matmul
# ---------------------------------------------------------------------------


def abft_weight_checksum(w_values: np.ndarray) -> np.ndarray:
    """Publish-time row checksum of the INT8 weight matrix: ``W @ 1``.

    Stored alongside the model artifact; serving verifies
    ``X @ (W @ 1) == (X W) @ 1`` in exact integer arithmetic, which a
    corrupted weight word breaks.
    """
    return w_values.astype(np.int64).sum(axis=1)


def abft_activation_checksum(x_values: np.ndarray) -> np.ndarray:
    """Quantization-time column checksum of the INT8 activations:
    ``1ᵀ @ X``, taken before the values enter the datapath."""
    return x_values.astype(np.int64).sum(axis=0)


def abft_col_check(
    acc: np.ndarray, x_checksum: np.ndarray, w_values: np.ndarray
) -> bool:
    """``1ᵀ(XW) == (1ᵀX)W`` — catches activation-lane and accumulator
    corruption (the checksum predates the datapath)."""
    return bool(
        np.array_equal(acc.sum(axis=0), x_checksum @ w_values.astype(np.int64))
    )


def abft_overhead_fraction(m: int, k: int, n: int) -> float:
    """Extra MACs/adds of the two checksum identities relative to the
    ``m*k*n`` MACs of the protected GEMM.

    Checksum GEMV against the weights costs ``k*n``, the activation-side
    GEMV ``m*k``, and folding/comparing the accumulator ``2*m*n``.
    """
    if m <= 0 or k <= 0 or n <= 0:
        raise ValueError("GEMM dims must be positive")
    return (k * n + m * k + 2 * m * n) / (m * k * n)


# ---------------------------------------------------------------------------
# Range guards and row hashing
# ---------------------------------------------------------------------------


def accumulator_bound(k: int) -> int:
    """The algebraic maximum of a K-deep INT8 dot product; any larger
    accumulator value can only be corruption."""
    return k * 127 * 127


def hash_rows(table: np.ndarray) -> Tuple[int, ...]:
    """CRC32 per embedding row over its raw bytes (publish-time)."""
    if table.ndim != 2:
        raise ValueError("expected a 2-D table")
    return tuple(zlib.crc32(np.ascontiguousarray(row).tobytes()) for row in table)


def verify_row_hashes(table: np.ndarray, published: Tuple[int, ...]) -> Optional[int]:
    """Re-hash every row; return the first mismatching row index, or
    ``None`` when the table is intact — the background scrubber's pass."""
    for index, row in enumerate(table):
        if zlib.crc32(np.ascontiguousarray(row).tobytes()) != published[index]:
            return index
    return None
