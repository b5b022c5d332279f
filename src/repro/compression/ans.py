"""A working rANS (range Asymmetric Numeral System) codec.

MTIA 2i supports lossless ANS compression for weights, "achieving up to
a 50% compression ratio" on INT8 data while "FP16 data does not compress
efficiently" (paper section 3.3).  This is a real, byte-oriented static
rANS implementation — encode/decode round-trips exactly — so the paper's
compressibility claims are *measured* on representative weight
distributions rather than assumed.

The implementation is the textbook single-state rANS with 12-bit
quantized frequencies and byte-wise renormalization.
"""

from __future__ import annotations

import dataclasses

import numpy as np

PROB_BITS = 12
PROB_SCALE = 1 << PROB_BITS
STATE_LOWER = 1 << 23


class AnsError(ValueError):
    """Raised on malformed codec inputs."""


def _quantize_frequencies(counts: np.ndarray) -> np.ndarray:
    """Scale symbol counts to sum exactly to PROB_SCALE, keeping every
    present symbol's frequency >= 1."""
    total = counts.sum()
    if total == 0:
        raise AnsError("cannot build a frequency table from empty input")
    freqs = np.maximum((counts.astype(np.float64) * PROB_SCALE / total).round(), 0)
    freqs = freqs.astype(np.int64)
    freqs[(counts > 0) & (freqs == 0)] = 1
    # Adjust to the exact scale by nudging the largest symbols.
    diff = int(PROB_SCALE - freqs.sum())
    order = np.argsort(-freqs)
    i = 0
    while diff != 0:
        symbol = order[i % len(order)]
        if freqs[symbol] > 0:
            step = 1 if diff > 0 else -1
            if freqs[symbol] + step >= 1 or counts[symbol] == 0:
                freqs[symbol] += step
                diff -= step
        i += 1
        if i > 20 * len(order):  # pragma: no cover - defensive
            raise AnsError("failed to normalize frequency table")
    return freqs


@dataclasses.dataclass
class AnsEncoded:
    """A compressed byte stream plus the model needed to decode it."""

    payload: bytes
    frequencies: np.ndarray  # shape (256,), sums to PROB_SCALE
    num_symbols: int

    @property
    def compressed_bytes(self) -> int:
        """Payload plus the serialized frequency table."""
        return len(self.payload) + 256 * 2  # 16-bit freqs

    def compression_ratio(self) -> float:
        """Saved fraction: 1 - compressed/original."""
        if self.num_symbols == 0:
            return 0.0
        return 1.0 - self.compressed_bytes / self.num_symbols


def ans_encode(data: bytes) -> AnsEncoded:
    """Compress a byte string with static rANS."""
    symbols = np.frombuffer(data, dtype=np.uint8)
    if symbols.size == 0:
        return AnsEncoded(payload=b"", frequencies=np.zeros(256, dtype=np.int64), num_symbols=0)
    counts = np.bincount(symbols, minlength=256).astype(np.int64)
    freqs = _quantize_frequencies(counts)
    starts = np.concatenate([[0], np.cumsum(freqs)[:-1]])
    state = STATE_LOWER
    out = bytearray()
    # Encode in reverse so decoding is forward.
    for symbol in symbols[::-1]:
        freq = int(freqs[symbol])
        start = int(starts[symbol])
        # Renormalize: shrink state until the encode step keeps it valid.
        max_state = ((STATE_LOWER >> PROB_BITS) << 8) * freq
        while state >= max_state:
            out.append(state & 0xFF)
            state >>= 8
        state = ((state // freq) << PROB_BITS) + (state % freq) + start
    # Flush the final 32-bit state.
    for _ in range(4):
        out.append(state & 0xFF)
        state >>= 8
    return AnsEncoded(
        payload=bytes(out[::-1]), frequencies=freqs, num_symbols=int(symbols.size)
    )


def ans_decode(encoded: AnsEncoded) -> bytes:
    """Decompress an rANS stream; exact inverse of :func:`ans_encode`."""
    if encoded.num_symbols == 0:
        return b""
    freqs = encoded.frequencies
    starts = np.concatenate([[0], np.cumsum(freqs)[:-1]])
    # Symbol lookup by cumulative slot.
    slot_to_symbol = np.zeros(PROB_SCALE, dtype=np.uint8)
    for symbol in range(256):
        if freqs[symbol]:
            slot_to_symbol[starts[symbol] : starts[symbol] + freqs[symbol]] = symbol
    payload = encoded.payload
    pos = 0
    state = 0
    for _ in range(4):
        state = (state << 8) | payload[pos]
        pos += 1
    out = np.empty(encoded.num_symbols, dtype=np.uint8)
    for i in range(encoded.num_symbols):
        slot = state & (PROB_SCALE - 1)
        symbol = slot_to_symbol[slot]
        out[i] = symbol
        freq = int(freqs[symbol])
        start = int(starts[symbol])
        state = freq * (state >> PROB_BITS) + slot - start
        while state < STATE_LOWER and pos < len(payload):
            state = (state << 8) | payload[pos]
            pos += 1
    return out.tobytes()


def int8_weight_bytes(num_weights: int, seed: int = 0) -> bytes:
    """Synthetic INT8 weights: narrow, centered distributions (std 5)
    like trained quantized weights — highly compressible (the paper's
    'up to 50%')."""
    rng = np.random.default_rng(seed)
    values = np.clip(np.round(rng.normal(0, 5.0, size=num_weights)), -127, 127)
    return values.astype(np.int8).tobytes()


def fp16_weight_bytes(num_weights: int) -> bytes:
    """Synthetic FP16 weights (std 0.05, seed 0): mantissa bytes are
    near-uniform, which is why 'FP16 data does not compress
    efficiently'."""
    rng = np.random.default_rng(0)
    return rng.normal(0, 0.05, size=num_weights).astype(np.float16).tobytes()
