"""ECC: a working SEC-DED code plus the enable-ECC decision model
(paper section 5.1).

LPDDR lacks on-die ECC, so MTIA 2i's memory controller computes it —
costing 10-15% of throughput.  This module implements the actual
(72, 64) Hamming SEC-DED code such controllers use (correct any single
bit flip, detect any double flip), and the decision analysis that led
Meta to enable it despite the penalty.
"""

from __future__ import annotations

import dataclasses

DATA_BITS = 64
PARITY_BITS = 8  # 7 Hamming + 1 overall parity -> SEC-DED
CODE_BITS = DATA_BITS + PARITY_BITS

# Positions 1..72 (1-indexed); powers of two are parity positions.
_PARITY_POSITIONS = [1, 2, 4, 8, 16, 32, 64]


def _data_positions() -> list:
    # Positions 1..71 excluding Hamming parity slots; position 72 is the
    # overall parity bit (7 Hamming + 64 data + 1 overall = 72).
    return [p for p in range(1, CODE_BITS) if p not in _PARITY_POSITIONS]


_DATA_POSITIONS = _data_positions()

# Public layout: DATA_BIT_POSITIONS[i] is the 0-indexed codeword bit that
# carries data bit i.  The SDC memory-word channel uses this to land
# data-space bit flips at the right codeword positions, so campaigns with
# and without ECC corrupt exactly the same logical bits.
DATA_BIT_POSITIONS = tuple(p - 1 for p in _DATA_POSITIONS)


def encode_word(data: int) -> int:
    """Encode a 64-bit word into a 72-bit SEC-DED codeword."""
    if not (0 <= data < (1 << DATA_BITS)):
        raise ValueError("data must be a 64-bit unsigned value")
    code = 0
    for i, position in enumerate(_DATA_POSITIONS):
        if (data >> i) & 1:
            code |= 1 << (position - 1)
    for parity_position in _PARITY_POSITIONS:
        parity = 0
        for position in range(1, CODE_BITS):
            if position & parity_position and (code >> (position - 1)) & 1:
                parity ^= 1
        if parity:
            code |= 1 << (parity_position - 1)
    # Overall parity in the last position for double-error detection.
    overall = bin(code).count("1") & 1
    if overall:
        code |= 1 << (CODE_BITS - 1)
    return code


@dataclasses.dataclass(frozen=True)
class DecodeResult:
    """Outcome of decoding one codeword."""

    data: int
    corrected: bool
    double_error_detected: bool


def decode_word(code: int) -> DecodeResult:
    """Decode a 72-bit codeword, correcting single errors and detecting
    double errors."""
    if not (0 <= code < (1 << CODE_BITS)):
        raise ValueError("codeword must be a 72-bit value")
    syndrome = 0
    for parity_position in _PARITY_POSITIONS:
        parity = 0
        for position in range(1, CODE_BITS):
            if position & parity_position and (code >> (position - 1)) & 1:
                parity ^= 1
        if parity:
            syndrome |= parity_position
    overall = bin(code).count("1") & 1
    corrected = False
    double = False
    if syndrome and overall:
        # Single-bit error at the syndrome position: correct it.
        code ^= 1 << (syndrome - 1)
        corrected = True
    elif syndrome and not overall:
        double = True
    elif not syndrome and overall:
        # The overall parity bit itself flipped.
        code ^= 1 << (CODE_BITS - 1)
        corrected = True
    data = 0
    for i, position in enumerate(_DATA_POSITIONS):
        if (code >> (position - 1)) & 1:
            data |= 1 << i
    return DecodeResult(data=data, corrected=corrected, double_error_detected=double)


# ---------------------------------------------------------------------------
# The enable-ECC decision (section 5.1's multi-pronged assessment).
# ---------------------------------------------------------------------------

ECC_THROUGHPUT_PENALTY = (0.10, 0.15)  # the paper's quoted band
# The midpoint of that band: the penalty the decision and the SDC
# campaign charge.
ECC_MIDPOINT_PENALTY = sum(ECC_THROUGHPUT_PENALTY) / 2.0


@dataclasses.dataclass(frozen=True)
class EccDecisionInputs:
    """Evidence gathered by the three-pronged assessment."""

    # Prong 1: fleet measurement — fraction of servers with ECC errors.
    server_error_fraction: float
    # Prong 2: injection study — failure probability of an uncorrected
    # error (non-benign outcome rate).
    uncorrected_failure_rate: float
    # Prong 3: product tolerance — max anomalies/day operators can absorb.
    anomaly_budget_per_day: float
    errors_per_affected_server_per_day: float
    fleet_servers: int


@dataclasses.dataclass(frozen=True)
class EccDecision:
    """The verdict and its arithmetic."""

    expected_anomalies_per_day: float
    anomaly_budget_per_day: float
    throughput_penalty: float
    enable_ecc: bool
    rationale: str


def decide_ecc(inputs: EccDecisionInputs) -> EccDecision:
    """Reproduce the decision logic: enable ECC when uncorrected errors
    would exceed what product-level anomaly detection can absorb."""
    if not (0 <= inputs.server_error_fraction <= 1):
        raise ValueError("server error fraction must be in [0, 1]")
    affected = inputs.fleet_servers * inputs.server_error_fraction
    anomalies = (
        affected
        * inputs.errors_per_affected_server_per_day
        * inputs.uncorrected_failure_rate
    )
    enable = anomalies > inputs.anomaly_budget_per_day
    if enable:
        rationale = (
            f"{anomalies:.0f} expected product anomalies/day exceeds the "
            f"operator budget of {inputs.anomaly_budget_per_day:.0f}; the "
            f"{ECC_MIDPOINT_PENALTY:.0%} throughput penalty is the "
            "cheaper cost"
        )
    else:
        rationale = (
            f"{anomalies:.0f} expected anomalies/day fits within the "
            f"budget of {inputs.anomaly_budget_per_day:.0f}; forgo ECC"
        )
    return EccDecision(
        expected_anomalies_per_day=anomalies,
        anomaly_budget_per_day=inputs.anomaly_budget_per_day,
        throughput_penalty=ECC_MIDPOINT_PENALTY,
        enable_ecc=enable,
        rationale=rationale,
    )


def hashing_integrity_overhead(
    region_bytes: int,
    accesses_per_s: float,
    hash_bytes_per_s: float = 10e9,
) -> float:
    """Throughput cost of the software hashing alternative the paper
    prototyped and rejected ('found the overhead too high'): fraction of
    a device's time spent hashing protected regions."""
    if region_bytes < 0 or accesses_per_s < 0:
        raise ValueError("inputs must be non-negative")
    return min(1.0, region_bytes * accesses_per_s / hash_bytes_per_s)
