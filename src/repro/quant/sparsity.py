"""2:4 structured weight sparsity (paper section 3.3).

MTIA 2i's Dot Product Engine supports 2:4 sparsity — two of every four
consecutive weights are zero — potentially doubling effective FLOPS.
The paper reports that exploiting it proved hard: "To be effective,
sparsity must apply to the largest weight matrices, which are often used
in the most critical layers that impact model quality.  Many of our
models lack sufficient sparsity in these matrices, leading to accuracy
degradation.  Therefore, this feature is not yet widely used in
production."

This module implements the actual pruning arithmetic so that trade-off
is measurable: magnitude-based 2:4 pruning, the natural-sparsity check
that explains why dense-trained DLRM weights prune badly, and the
model-quality impact through the A/B-test harness.
"""

from __future__ import annotations

import dataclasses

import numpy as np

GROUP = 4
KEPT_PER_GROUP = 2


def prune_2_4(weights: np.ndarray) -> np.ndarray:
    """Magnitude-based 2:4 pruning along the input (first) dimension.

    In every group of four consecutive input weights feeding the same
    output, the two smallest-magnitude entries are zeroed — the hardware
    pattern the DPE's sparse mode consumes.  The input dimension must be
    a multiple of 4.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"expected a 2-D weight matrix, got shape {w.shape}")
    k, n = w.shape
    if k % GROUP:
        raise ValueError(f"input dim {k} must be a multiple of {GROUP}")
    grouped = w.reshape(k // GROUP, GROUP, n)
    order = np.argsort(np.abs(grouped), axis=1)
    mask = np.ones_like(grouped, dtype=bool)
    # Zero the two smallest-magnitude entries of each group.
    drop = order[:, : GROUP - KEPT_PER_GROUP, :]
    rows = np.arange(grouped.shape[0])[:, None, None]
    cols = np.arange(n)[None, None, :]
    mask[rows, drop, cols] = False
    return (grouped * mask).reshape(k, n)


def satisfies_2_4(weights: np.ndarray) -> bool:
    """Whether a matrix already obeys the 2:4 pattern (>= 2 zeros per
    group of 4 along the input dim)."""
    w = np.asarray(weights)
    if w.ndim != 2 or w.shape[0] % GROUP:
        return False
    grouped = w.reshape(w.shape[0] // GROUP, GROUP, w.shape[1])
    zeros_per_group = np.sum(grouped == 0, axis=1)
    return bool(np.all(zeros_per_group >= GROUP - KEPT_PER_GROUP))


def natural_sparsity(weights: np.ndarray) -> float:
    """Fraction of weights negligibly small (at most 5% of the median
    magnitude) relative to the matrix scale.

    Dense-trained recommendation weights have almost no natural sparsity,
    which is why magnitude pruning must discard *significant* weights —
    the root of the paper's quality-loss finding.
    """
    w = np.abs(np.asarray(weights, dtype=np.float64))
    if w.size == 0:
        return 0.0
    scale = np.median(w[w > 0]) if np.any(w > 0) else 1.0
    return float(np.mean(w <= 0.05 * scale))


@dataclasses.dataclass(frozen=True)
class SparsityImpact:
    """Quality cost of pruning one weight matrix."""

    relative_output_error: float
    pruned_mass_fraction: float  # |dropped| / |total| weight magnitude
    natural_sparsity: float

    def acceptable(self, error_tolerance: float = 0.01) -> bool:
        """Whether the pruning error is within a launch-quality budget."""
        return self.relative_output_error <= error_tolerance


def sparsity_impact(weights: np.ndarray) -> SparsityImpact:
    """Measure the output error of a 2:4-pruned matrix on 256 seeded
    probe inputs."""
    w = np.asarray(weights, dtype=np.float64)
    pruned = prune_2_4(w)
    rng = np.random.default_rng(0)
    x = rng.normal(0, 1, size=(256, w.shape[0]))
    dense_out = x @ w
    sparse_out = x @ pruned
    denom = np.linalg.norm(dense_out)
    error = float(np.linalg.norm(sparse_out - dense_out) / denom) if denom else 0.0
    total_mass = np.sum(np.abs(w))
    dropped = float(np.sum(np.abs(w - pruned)) / total_mass) if total_mass else 0.0
    return SparsityImpact(
        relative_output_error=error,
        pruned_mass_fraction=dropped,
        natural_sparsity=natural_sparsity(w),
    )


def sparse_trained_weights(k: int, n: int) -> np.ndarray:
    """Weights from a sparsity-aware training run (seed 0): 90% of the
    entries already zero, so 2:4 pruning is nearly free — the regime
    where the DPE feature would pay off."""
    rng = np.random.default_rng(0)
    w = rng.normal(0, 0.05, size=(k, n))
    mask = rng.uniform(size=(k, n)) < 0.9
    w[mask] = 0.0
    return w
