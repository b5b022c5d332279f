"""Corruption sites: where an injected bit flip lands in the numeric path.

Five sites spanning the serving stack, each corrupting *real* data that
the pipeline then actually computes with:

* ``MEMORY_WORD`` — a raw 64-bit word of the LPDDR backing store (which
  holds both the INT8 weights and the FP16 embedding table), routed
  through the SEC-DED codec when ECC is enabled: singles correct,
  doubles detect, triples escape silently (miscorrected).
* ``QUANT_WEIGHT`` — one bit of one INT8 weight value, post-read (an
  SRAM/register flip ECC never sees).
* ``QUANT_ACTIVATION`` — a stuck datapath lane: the same bit of the same
  activation column flips on a recurring fraction of requests, the
  signature of a marginal (overclock-tail) chip.
* ``GEMM_ACCUMULATOR`` — a bit of the 32-bit MAC accumulator, again
  recurring on a fraction of requests.
* ``EMBEDDING_ROW`` — one bit of one FP16 embedding-table element in
  on-chip memory (not behind the LPDDR ECC path).

Injection *plans* are pre-sampled from one seeded generator in a fixed
order — the same discipline as the PR-1 resilience fault schedule — so
every protection profile in a campaign faces the identical fault list
and coverage deltas are attributable to the detectors alone.
"""

from __future__ import annotations

import dataclasses
import enum
import math
from typing import Dict, Sequence, Tuple

import numpy as np

WORD_BYTES = 8


class CorruptionSite(enum.Enum):
    """Where a flip lands."""

    MEMORY_WORD = "memory_word"
    QUANT_WEIGHT = "quant_weight"
    QUANT_ACTIVATION = "quant_activation"
    GEMM_ACCUMULATOR = "gemm_accumulator"
    EMBEDDING_ROW = "embedding_row"


# Sites ordered for deterministic sampling.
SITE_ORDER: Tuple[CorruptionSite, ...] = tuple(CorruptionSite)

# Default mix, weighted by the physical surface each site exposes: LPDDR
# words (capacity-dominant, the §5.1 telemetry surface) dominate;
# datapath and SRAM flips are the rare overclock-margin tail.
DEFAULT_SITE_WEIGHTS: Dict[CorruptionSite, float] = {
    CorruptionSite.MEMORY_WORD: 0.62,
    CorruptionSite.QUANT_WEIGHT: 0.12,
    CorruptionSite.QUANT_ACTIVATION: 0.10,
    CorruptionSite.GEMM_ACCUMULATOR: 0.10,
    CorruptionSite.EMBEDDING_ROW: 0.06,
}

# Multi-bit share of memory faults: overwhelmingly single-bit, a small
# double-bit share (the detectable-uncorrectable class the resilience
# simulator already models), and a thin triple-bit tail that SEC-DED
# miscorrects silently.
MEMORY_FLIP_COUNT_WEIGHTS: Tuple[Tuple[int, float], ...] = (
    (1, 0.90),
    (2, 0.08),
    (3, 0.02),
)

# Recurrence band for datapath (marginal-chip) faults: the same lane/bit
# flips on this fraction of requests, log-uniformly drawn.
RECURRENCE_RANGE = (0.005, 0.05)


@dataclasses.dataclass(frozen=True)
class Injection:
    """One pre-sampled fault, shared by every protection profile.

    The detector draws (``screen_draw``, ``latency_draw``) are sampled
    here, with the fault, so profiles that consult them consume the same
    randomness.
    """

    site: CorruptionSite
    # MEMORY_WORD:
    store: str = ""  # "embedding" | "weights"
    word_index: int = 0
    flip_bits: Tuple[int, ...] = ()  # data-space bit positions (0..63)
    # Direct-array sites:
    flat_index: int = 0
    bit: int = 0
    # Datapath sites:
    recurrence: float = 0.0
    fault_rows_seed: int = 0
    # Pre-drawn detector randomness:
    screen_draw: float = 0.0
    latency_draw: float = 0.0


def plan_injections(
    trials: int,
    rng: np.random.Generator,
    weight_values_size: int,
    table_shape: Tuple[int, int],
    num_features: int,
) -> Tuple[Injection, ...]:
    """Pre-sample ``trials`` injections in a fixed order, over the
    sites in ``DEFAULT_SITE_WEIGHTS`` proportions.

    ``weight_values_size`` is the INT8 weight element count,
    ``table_shape`` the FP16 embedding table's (rows, dim), and
    ``num_features`` the activation width (the lane space a stuck
    datapath fault lives in); memory-word targets are drawn
    proportionally to each store's byte footprint.
    """
    if trials <= 0:
        raise ValueError("need at least one trial")
    probs = np.array(
        [DEFAULT_SITE_WEIGHTS.get(site, 0.0) for site in SITE_ORDER],
        dtype=np.float64,
    )
    probs = probs / probs.sum()

    table_rows, table_dim = table_shape
    table_bytes = table_rows * table_dim * 2  # fp16
    weight_bytes = weight_values_size  # int8
    total_words = (table_bytes + weight_bytes) // WORD_BYTES
    table_words = table_bytes // WORD_BYTES
    if table_bytes % WORD_BYTES or weight_bytes % WORD_BYTES:
        raise ValueError("stores must be whole 64-bit words")

    flip_counts = np.array([k for k, _ in MEMORY_FLIP_COUNT_WEIGHTS])
    flip_probs = np.array([p for _, p in MEMORY_FLIP_COUNT_WEIGHTS])
    lo, hi = RECURRENCE_RANGE

    injections = []
    for _ in range(trials):
        site = SITE_ORDER[int(rng.choice(len(SITE_ORDER), p=probs))]
        store, word_index, flip_bits = "", 0, ()
        flat_index, bit, recurrence, fault_rows_seed = 0, 0, 0.0, 0
        if site is CorruptionSite.MEMORY_WORD:
            word = int(rng.integers(total_words))
            store = "embedding" if word < table_words else "weights"
            word_index = word if word < table_words else word - table_words
            k = int(flip_counts[int(rng.choice(len(flip_counts), p=flip_probs))])
            flip_bits = tuple(
                sorted(int(b) for b in rng.choice(64, size=k, replace=False))
            )
        elif site is CorruptionSite.QUANT_WEIGHT:
            flat_index = int(rng.integers(weight_values_size))
            bit = int(rng.integers(8))
        elif site is CorruptionSite.QUANT_ACTIVATION:
            flat_index = int(rng.integers(num_features))  # the stuck lane
            bit = int(rng.integers(8))
            recurrence = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            fault_rows_seed = int(rng.integers(2**31))
        elif site is CorruptionSite.GEMM_ACCUMULATOR:
            bit = int(rng.integers(32))
            recurrence = math.exp(rng.uniform(math.log(lo), math.log(hi)))
            fault_rows_seed = int(rng.integers(2**31))
        elif site is CorruptionSite.EMBEDDING_ROW:
            flat_index = int(rng.integers(table_rows * table_dim))
            bit = int(rng.integers(16))
        injections.append(
            Injection(
                site=site,
                store=store,
                word_index=word_index,
                flip_bits=flip_bits,
                flat_index=flat_index,
                bit=bit,
                recurrence=recurrence,
                fault_rows_seed=fault_rows_seed,
                screen_draw=float(rng.random()),
                latency_draw=float(rng.random()),
            )
        )
    return tuple(injections)


# ---------------------------------------------------------------------------
# Bit-level array surgery
# ---------------------------------------------------------------------------


def read_array_word(array: np.ndarray, word_index: int) -> int:
    """The 64-bit little-endian word at byte offset ``8 * word_index``."""
    raw = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
    chunk = raw[word_index * WORD_BYTES : (word_index + 1) * WORD_BYTES]
    if chunk.size != WORD_BYTES:
        raise IndexError("word index outside the backing store")
    return int.from_bytes(chunk.tobytes(), "little")


def write_array_word(array: np.ndarray, word_index: int, word: int) -> None:
    """Write a 64-bit word back into the array's backing bytes."""
    raw = array.view(np.uint8).reshape(-1)
    raw[word_index * WORD_BYTES : (word_index + 1) * WORD_BYTES] = np.frombuffer(
        word.to_bytes(WORD_BYTES, "little"), dtype=np.uint8
    )


def flip_int8_bit(array: np.ndarray, flat_index: int, bit: int) -> None:
    """XOR one bit of one INT8 element in place."""
    array.reshape(-1).view(np.uint8)[flat_index] ^= np.uint8(1 << bit)


def flip_fp16_bit(array: np.ndarray, flat_index: int, bit: int) -> None:
    """XOR one bit of one FP16 element in place."""
    array.reshape(-1).view(np.uint16)[flat_index] ^= np.uint16(1 << bit)


def recurrent_rows(num_rows: int, recurrence: float, seed: int) -> np.ndarray:
    """The deterministic request subset a recurring datapath fault hits."""
    draws = np.random.default_rng(seed).random(num_rows)
    return draws < recurrence


def sites_in(injections: Sequence[Injection]) -> Dict[CorruptionSite, int]:
    """Trial counts per site (for campaign reporting)."""
    counts: Dict[CorruptionSite, int] = {site: 0 for site in SITE_ORDER}
    for injection in injections:
        counts[injection.site] += 1
    return counts
