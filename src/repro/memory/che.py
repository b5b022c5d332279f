"""Che's approximation for cache hit rates under Zipf popularity.

Embedding-table gathers hit the LLC with an independent-reference (IRM)
pattern whose popularity follows a Zipf law.  Replaying enough accesses
through the cache simulator to reach steady state for billions of rows
is infeasible, but Che's characteristic-time approximation computes the
stationary hit rate of an LRU/random cache under IRM almost exactly:

    hit = sum_i p_i * (1 - exp(-p_i * T)),  where T solves
    sum_i (1 - exp(-p_i * T)) = C   (C = cache capacity in blocks).

Rows are aggregated into cache blocks; the block popularity is the Zipf
mass of its rows, computed with the standard integral approximation of
generalized harmonic numbers.
"""

from __future__ import annotations

import functools

import numpy as np


def _partial_harmonic(k: np.ndarray, a: float) -> np.ndarray:
    """Approximate H_k(a) = sum_{i<=k} i^-a via Euler-Maclaurin."""
    k = np.asarray(k, dtype=np.float64)
    if abs(a - 1.0) < 1e-9:
        return np.log(np.maximum(k, 1.0)) + 0.5772156649
    return (np.power(np.maximum(k, 1.0), 1.0 - a) - 1.0) / (1.0 - a) + 1.1998


def zipf_block_popularities(
    num_rows: int, rows_per_block: int, zipf_exponent: float, max_blocks: int = 2_000_000
) -> np.ndarray:
    """Normalized popularity of each cache block of a Zipf-accessed table.

    Blocks beyond ``max_blocks`` are folded into a uniform tail (their
    individual popularities are negligible and equal to first order).
    """
    if num_rows <= 0 or rows_per_block <= 0:
        raise ValueError("rows and block size must be positive")
    num_blocks = max(1, -(-num_rows // rows_per_block))
    capped = min(num_blocks, max_blocks)
    edges = np.minimum(np.arange(capped + 1, dtype=np.float64) * rows_per_block, num_rows)
    cumulative = _partial_harmonic(np.maximum(edges, 1.0), zipf_exponent)
    cumulative[0] = 0.0
    mass = np.diff(cumulative)
    if num_blocks > capped:
        # Spread the residual tail mass as an equivalent per-block value.
        total = _partial_harmonic(np.array([num_rows]), zipf_exponent)[0]
        tail = max(0.0, total - cumulative[-1])
        mass[-1] += tail  # folded tail: pessimistic for the cache, tiny overall
    total_mass = mass.sum()
    if total_mass <= 0:
        return np.full(capped, 1.0 / capped)
    return mass / total_mass


def che_hit_rate(popularities: np.ndarray, cache_blocks: int) -> float:
    """Stationary hit rate of a ``cache_blocks``-entry cache under IRM.

    Solves for the characteristic time with a bisection on T, then
    evaluates the per-item hit probabilities.
    """
    p = np.asarray(popularities, dtype=np.float64)
    if cache_blocks <= 0:
        return 0.0
    if cache_blocks >= len(p):
        return 1.0

    def occupancy(t: float) -> float:
        return float(np.sum(-np.expm1(-p * t)))

    lo, hi = 1.0, 1.0
    while occupancy(hi) < cache_blocks and hi < 1e18:
        hi *= 4
    for _ in range(60):
        mid = (lo + hi) / 2
        if occupancy(mid) < cache_blocks:
            lo = mid
        else:
            hi = mid
    t = (lo + hi) / 2
    return float(np.sum(p * -np.expm1(-p * t)))


@functools.lru_cache(maxsize=4096, typed=True)
def tbe_llc_hit_rate(
    num_rows_per_table: int,
    num_tables: int,
    row_bytes: int,
    llc_bytes_for_tbe: int,
    block_bytes: int = 64 * 1024,
    zipf_exponent: float = 1.05,
) -> float:
    """Steady-state LLC hit rate for a multi-table TBE gather.

    Tables are statistically identical, so the aggregate system is the
    single-table system with 1/num_tables of the capacity.  The result is
    a pure function of the arguments and is memoized: the executor asks
    for the same table geometry on every warmup and measured pass.
    """
    if num_tables <= 0 or llc_bytes_for_tbe < 0:
        raise ValueError("invalid TBE cache parameters")
    rows_per_block = max(1, block_bytes // max(1, row_bytes))
    per_table_blocks = max(0, int(llc_bytes_for_tbe / block_bytes / num_tables))
    popularity = zipf_block_popularities(
        num_rows_per_table, rows_per_block, zipf_exponent
    )
    return che_hit_rate(popularity, per_table_blocks)
