"""Pure-numpy, seeded, bit-for-bit-reproducible regressor stack.

The stack is a ridge regression plus small gradient-boosted trees over
the analytic features from :mod:`repro.surrogate.features` — the
NeuroScalar-style split: the ridge captures the roofline structure the
features expose, the boosted trees mop up the piecewise corrections the
exact executor applies (pipeline overlap, scheduling, TBE behaviour)
that a linear model cannot bend around.

Determinism is a contract, not an accident:

* fitting uses closed-form solves and greedy splits with first-wins
  tie-breaking — no iterative solvers, no data-dependent convergence;
* the train/holdout split is a seeded ``np.random.default_rng``
  permutation;
* two fits from identical inputs produce bit-identical parameter
  arrays and predictions (property-tested in
  ``tests/test_surrogate_properties.py``).

Targets are modelled in log2 space (latencies span decades); error
bands are always reported in *linear* space as relative errors (MAPE,
P95) on a held-out split the fit never saw.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

import numpy as np

# Fit settings shared by every surrogate: the ridge penalty, the boosting
# shrinkage, the split candidates per feature, and the smallest leaf.
RIDGE_L2 = 1e-3
LEARNING_RATE = 0.5
N_QUANTILES = 24
MIN_LEAF = 8

@dataclasses.dataclass(frozen=True)
class TrainReport:
    """Measured error bands from one seeded fit."""

    target: str
    n_train: int
    n_holdout: int
    mape_holdout: float
    p95_rel_error_holdout: float
    max_rel_error_holdout: float


def _rel_errors(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    return np.abs(pred - truth) / np.abs(truth)


class RidgeRegressor:
    """Closed-form ridge with internal standardization.

    Weights are folded back to raw feature space after the solve, so
    prediction is a single mat-vec on unscaled features.
    """

    def __init__(self, l2: float = 1e-3) -> None:
        if l2 <= 0:
            raise ValueError("l2 must be positive")
        self.l2 = l2
        self.weights: Optional[np.ndarray] = None  # (D,) float64
        self.intercept: float = 0.0

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RidgeRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        mu = X.mean(axis=0)
        sd = X.std(axis=0)
        sd = np.where(sd > 0, sd, 1.0)
        Xs = (X - mu) / sd
        y_mean = float(y.mean())
        a = Xs.T @ Xs + self.l2 * len(y) * np.eye(X.shape[1])
        w = np.linalg.solve(a, Xs.T @ (y - y_mean))
        self.weights = w / sd
        self.intercept = y_mean - float(mu @ self.weights)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.weights is None:
            raise RuntimeError("fit before predict")
        return np.asarray(X, dtype=np.float64) @ self.weights + self.intercept


def _best_split(
    order: np.ndarray,
    col_sorted: np.ndarray,
    thresholds: np.ndarray,
    residual: np.ndarray,
    min_leaf: int,
) -> Tuple[float, float, float, float]:
    """Best (gain, threshold, left mean, right mean) for one feature.

    ``order``/``col_sorted`` are the precomputed sort of the feature
    column; gains follow the standard variance-reduction identity
    ``sum_l^2/n_l + sum_r^2/n_r`` (larger is better).
    """
    n = len(residual)
    if not len(thresholds):
        return -np.inf, 0.0, 0.0, 0.0
    csum = np.cumsum(residual[order])
    total = csum[-1]
    n_left = np.searchsorted(col_sorted, thresholds, side="right")
    valid = (n_left >= min_leaf) & (n_left <= n - min_leaf)
    if not valid.any():
        return -np.inf, 0.0, 0.0, 0.0
    n_left = n_left[valid]
    thresholds = thresholds[valid]
    sum_left = csum[n_left - 1]
    sum_right = total - sum_left
    n_right = n - n_left
    gains = sum_left**2 / n_left + sum_right**2 / n_right
    best = int(np.argmax(gains))  # first max wins: deterministic
    return (
        float(gains[best]),
        float(thresholds[best]),
        float(sum_left[best] / n_left[best]),
        float(sum_right[best] / n_right[best]),
    )


class BoostedStumps:
    """Gradient-boosted depth-1 trees (stumps) on squared error.

    Stumps are the 'small trees' of the stack: each round fits the
    current residual with the single best (feature, threshold) split
    over per-feature quantile candidates.  The whole ensemble evaluates
    as one boolean mask matrix times a leaf-delta vector:
    ``pred = base + (X[:, feats] <= thrs) @ deltas``.
    """

    def __init__(self, n_rounds: int = 24) -> None:
        if n_rounds < 0:
            raise ValueError("n_rounds must be non-negative")
        self.n_rounds = n_rounds
        self.features = np.empty(0, dtype=np.int64)
        self.thresholds = np.empty(0, dtype=np.float64)
        self.deltas = np.empty(0, dtype=np.float64)  # left - right
        self.base = 0.0  # sum of right-leaf values

    def fit(self, X: np.ndarray, residual: np.ndarray) -> "BoostedStumps":
        X = np.asarray(X, dtype=np.float64)
        residual = np.asarray(residual, dtype=np.float64).copy()
        n, d = X.shape
        orders = [np.argsort(X[:, j], kind="stable") for j in range(d)]
        sorted_cols = [X[orders[j], j] for j in range(d)]
        candidates: List[np.ndarray] = []
        qs = np.linspace(0.0, 1.0, N_QUANTILES + 2)[1:-1]
        for j in range(d):
            values = np.unique(np.quantile(sorted_cols[j], qs))
            # Split *between* data values so float32 evaluation of the
            # same comparison cannot straddle a training point.
            uniq = np.unique(sorted_cols[j])
            if len(uniq) < 2:
                candidates.append(np.empty(0))
                continue
            mids = (uniq[:-1] + uniq[1:]) / 2.0
            idx = np.searchsorted(mids, values)
            idx = np.clip(idx, 0, len(mids) - 1)
            candidates.append(np.unique(mids[idx]))
        feats, thrs, deltas, base = [], [], [], 0.0
        for _ in range(self.n_rounds):
            best = (-np.inf, -1, 0.0, 0.0, 0.0)
            for j in range(d):
                gain, thr, left, right = _best_split(
                    orders[j], sorted_cols[j], candidates[j],
                    residual, MIN_LEAF,
                )
                if gain > best[0]:
                    best = (gain, j, thr, left, right)
            if best[1] < 0:
                break
            _, j, thr, left, right = best
            left *= LEARNING_RATE
            right *= LEARNING_RATE
            mask = X[:, j] <= thr
            residual[mask] -= left
            residual[~mask] -= right
            feats.append(j)
            thrs.append(thr)
            deltas.append(left - right)
            base += right
        self.features = np.asarray(feats, dtype=np.int64)
        self.thresholds = np.asarray(thrs, dtype=np.float64)
        self.deltas = np.asarray(deltas, dtype=np.float64)
        self.base = base
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X)
        if not len(self.features):
            return np.full(len(X), self.base)
        masks = X[:, self.features] <= self.thresholds
        return masks @ self.deltas + self.base


class SurrogateModel:
    """Ridge + boosted stumps, with seeded holdout error bands."""

    def __init__(self, n_rounds: int = 24) -> None:
        self.ridge = RidgeRegressor(l2=RIDGE_L2)
        self.stumps = BoostedStumps(n_rounds=n_rounds)
        self.report: Optional[TrainReport] = None

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        seed: int = 0,
        holdout_fraction: float = 0.2,
        target: str = "target",
    ) -> TrainReport:
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if len(X) != len(y):
            raise ValueError("X and y must be row-aligned")
        if np.any(y <= 0):
            raise ValueError("log-space targets must be positive")
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(y))
        n_holdout = int(round(len(y) * holdout_fraction))
        hold, train = perm[:n_holdout], perm[n_holdout:]
        if not len(train):
            raise ValueError("holdout fraction leaves no training rows")
        yt = np.log2(y)
        self.ridge.fit(X[train], yt[train])
        residual = yt[train] - self.ridge.predict(X[train])
        self.stumps.fit(X[train], residual)
        # With no holdout rows the bands fall back to the training rows.
        scored = hold if len(hold) else train
        hold_rel = _rel_errors(self.predict(X[scored]), y[scored])
        self.report = TrainReport(
            target=target,
            n_train=len(train),
            n_holdout=len(hold),
            mape_holdout=float(hold_rel.mean()),
            p95_rel_error_holdout=float(
                np.quantile(hold_rel, 0.95)
            ),
            max_rel_error_holdout=float(hold_rel.max()),
        )
        return self.report

    def predict_transformed(self, X: np.ndarray) -> np.ndarray:
        """Prediction in model space (log2 of the target)."""
        return self.ridge.predict(X) + self.stumps.predict(
            np.asarray(X, dtype=np.float64)
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        pred = self.predict_transformed(X)
        return np.exp2(pred)


__all__ = [
    "BoostedStumps",
    "RidgeRegressor",
    "SurrogateModel",
    "TrainReport",
]
