"""Pure-numpy, seeded, bit-for-bit-reproducible regressor stack.

The stack is a ridge regression plus small gradient-boosted trees over
the analytic features from :mod:`repro.surrogate.features` — the
NeuroScalar-style split: the ridge captures the roofline structure the
features expose, the boosted trees mop up the piecewise corrections the
exact models apply (pipeline efficiency, issue amortization,
double-buffer overlap) that a linear model cannot bend around.

Determinism is a contract, not an accident:

* fitting uses closed-form solves and greedy splits with first-wins
  tie-breaking — no iterative solvers, no data-dependent convergence;
* the train/holdout split is a seeded ``np.random.default_rng``
  permutation;
* two fits from identical inputs produce bit-identical parameter
  arrays and predictions (property-tested in
  ``tests/test_surrogate_properties.py``).

Targets are modelled in log2 space by default (latencies and energies
span decades); error bands are always reported in *linear* space as
relative errors (MAPE, P95) on a held-out split the fit never saw.

:class:`GemmSurrogate` binds the stack to the GEMM feature space and
adds the factorized sweep path: on a shapes x variants grid, shape-only
and variant-only columns are scored once per axis value and only the 9
cross columns are touched per point, so a depth-1 ensemble predicts in
tens of nanoseconds per point — the >=100x-per-evaluation headroom over
the exact kernel model that the sec41 surrogate benchmark pins.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.specs import ChipSpec
from repro.kernels.gemm import GemmVariant
from repro.surrogate.features import (
    GEMM_CROSS_SLICE,
    GEMM_SHAPE_SLICE,
    GEMM_VARIANT_SLICE,
    GemmFeatureSpace,
)
from repro.tensors.dtypes import DType


@dataclasses.dataclass(frozen=True)
class TrainReport:
    """Measured error bands from one seeded fit."""

    target: str
    n_train: int
    n_holdout: int
    mape_train: float
    mape_holdout: float
    p95_rel_error_holdout: float
    max_rel_error_holdout: float

    def scalars(self) -> Dict[str, float]:
        return {
            f"{self.target}.n_train": float(self.n_train),
            f"{self.target}.n_holdout": float(self.n_holdout),
            f"{self.target}.mape_holdout": self.mape_holdout,
            f"{self.target}.p95_rel_error": self.p95_rel_error_holdout,
        }


def _rel_errors(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    return np.abs(pred - truth) / np.abs(truth)


class RidgeRegressor:
    """Closed-form ridge with internal standardization.

    Weights are folded back to raw feature space after the solve, so
    prediction is a single mat-vec on unscaled features — the property
    the factorized grid path depends on.
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
    as one boolean mask matrix times a leaf-delta vector —
    ``pred = base + (X[:, feats] <= thrs) @ deltas`` — which is why the
    fast sweep path can afford dozens of rounds.
    """

    def __init__(
        self,
        n_rounds: int = 24,
        learning_rate: float = 0.5,
        n_quantiles: int = 24,
        min_leaf: int = 8,
    ) -> None:
        if n_rounds < 0:
            raise ValueError("n_rounds must be non-negative")
        if not (0 < learning_rate <= 1):
            raise ValueError("learning rate must be in (0, 1]")
        self.n_rounds = n_rounds
        self.learning_rate = learning_rate
        self.n_quantiles = n_quantiles
        self.min_leaf = min_leaf
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
        qs = np.linspace(0.0, 1.0, self.n_quantiles + 2)[1:-1]
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
                    residual, self.min_leaf,
                )
                if gain > best[0]:
                    best = (gain, j, thr, left, right)
            if best[1] < 0:
                break
            _, j, thr, left, right = best
            left *= self.learning_rate
            right *= self.learning_rate
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

    def __init__(
        self,
        log_targets: bool = True,
        ridge_l2: float = 1e-3,
        n_rounds: int = 24,
        learning_rate: float = 0.5,
    ) -> None:
        self.log_targets = log_targets
        self.ridge = RidgeRegressor(l2=ridge_l2)
        self.stumps = BoostedStumps(
            n_rounds=n_rounds, learning_rate=learning_rate
        )
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
        if np.any(y <= 0) and self.log_targets:
            raise ValueError("log-space targets must be positive")
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(y))
        n_holdout = int(round(len(y) * holdout_fraction))
        hold, train = perm[:n_holdout], perm[n_holdout:]
        if not len(train):
            raise ValueError("holdout fraction leaves no training rows")
        yt = np.log2(y) if self.log_targets else y
        self.ridge.fit(X[train], yt[train])
        residual = yt[train] - self.ridge.predict(X[train])
        self.stumps.fit(X[train], residual)
        train_rel = _rel_errors(self.predict(X[train]), y[train])
        if len(hold):
            hold_rel = _rel_errors(self.predict(X[hold]), y[hold])
        else:
            hold_rel = train_rel
        self.report = TrainReport(
            target=target,
            n_train=len(train),
            n_holdout=len(hold),
            mape_train=float(train_rel.mean()),
            mape_holdout=float(hold_rel.mean()),
            p95_rel_error_holdout=float(
                np.quantile(hold_rel, 0.95)
            ),
            max_rel_error_holdout=float(hold_rel.max()),
        )
        return self.report

    def predict_transformed(self, X: np.ndarray) -> np.ndarray:
        """Prediction in model space (log2 if ``log_targets``)."""
        return self.ridge.predict(X) + self.stumps.predict(
            np.asarray(X, dtype=np.float64)
        )

    def predict(self, X: np.ndarray) -> np.ndarray:
        pred = self.predict_transformed(X)
        return np.exp2(pred) if self.log_targets else pred


# -- factorized GEMM binding ------------------------------------------


def _partition_stumps(
    stumps: BoostedStumps, col_slice: slice
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(local feature idx, thresholds, deltas) for stumps whose split
    feature falls inside ``col_slice``."""
    inside = (stumps.features >= col_slice.start) & (
        stumps.features < col_slice.stop
    )
    return (
        stumps.features[inside] - col_slice.start,
        stumps.thresholds[inside].astype(np.float32),
        stumps.deltas[inside].astype(np.float32),
    )


class _FactorizedStack:
    """One SurrogateModel compiled for the grid fast path (float32)."""

    def __init__(self, model: SurrogateModel) -> None:
        if model.ridge.weights is None:
            raise RuntimeError("model must be fitted first")
        w = model.ridge.weights.astype(np.float32)
        self.w_shape = w[GEMM_SHAPE_SLICE]
        self.w_variant = w[GEMM_VARIANT_SLICE]
        self.w_cross = w[GEMM_CROSS_SLICE]
        self.bias = np.float32(model.ridge.intercept + model.stumps.base)
        self.shape_stumps = _partition_stumps(model.stumps, GEMM_SHAPE_SLICE)
        self.variant_stumps = _partition_stumps(
            model.stumps, GEMM_VARIANT_SLICE
        )
        self.cross_stumps = _partition_stumps(model.stumps, GEMM_CROSS_SLICE)
        self.log_targets = model.log_targets

    @staticmethod
    def _axis_score(
        block: np.ndarray,
        weights: np.ndarray,
        stumps: Tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> np.ndarray:
        score = block @ weights
        feats, thrs, deltas = stumps
        if len(feats):
            score = score + (
                (block[:, feats] <= thrs).astype(np.float32) @ deltas
            )
        return score

    def grid(
        self, shape_block: np.ndarray, variant_block: np.ndarray,
        cross: np.ndarray,
    ) -> np.ndarray:
        """Model-space predictions over the (S, V) grid."""
        s_score = self._axis_score(shape_block, self.w_shape, self.shape_stumps)
        v_score = self._axis_score(
            variant_block, self.w_variant, self.variant_stumps
        )
        flat = cross.reshape(-1, cross.shape[-1])
        c_score = flat @ self.w_cross
        feats, thrs, deltas = self.cross_stumps
        if len(feats):
            c_score = c_score + (
                (flat[:, feats] <= thrs).astype(np.float32) @ deltas
            )
        out = c_score.reshape(cross.shape[:2])
        out = out + s_score[:, None]
        out = out + v_score[None, :]
        return out + self.bias


class GemmSurrogate:
    """The kernel-latency (and optionally energy) surrogate.

    Wraps a :class:`GemmFeatureSpace` and fitted
    :class:`SurrogateModel` stacks; exposes the two prediction paths
    the integrations use:

    * :meth:`predict_time_grid` — factorized shapes x variants sweep,
      the fast inner-loop path;
    * :meth:`rank_variants` — predicted-ascending variant order for one
      shape, feeding the verified top-k re-evaluation in
      :func:`repro.autotune.kernel_tuner.surrogate_tune`.

    Instances are plain numpy state and pickle cleanly (the capacity
    sweep ships its surrogate to ``trial_map`` workers the same way).
    """

    def __init__(
        self,
        space: GemmFeatureSpace,
        latency: SurrogateModel,
        energy: Optional[SurrogateModel] = None,
    ) -> None:
        self.space = space
        self.latency = latency
        self.energy = energy
        self._fast = _FactorizedStack(latency)

    @property
    def chip(self) -> ChipSpec:
        return self.space.chip

    @property
    def dtype(self) -> DType:
        return self.space.dtype

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_fast")
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._fast = _FactorizedStack(self.latency)

    def predict_time_grid(
        self,
        shapes: Sequence[Tuple[int, int, int]],
        variants: Sequence[GemmVariant],
    ) -> np.ndarray:
        """Predicted kernel seconds, shape (S, V), float32."""
        sb, vb, cross = self.space.grid_blocks(shapes, variants)
        pred = self._fast.grid(sb, vb, cross)
        return np.exp2(pred) if self._fast.log_targets else pred

    def rank_variants(
        self,
        shape: Tuple[int, int, int],
        variants: Sequence[GemmVariant],
    ) -> np.ndarray:
        """Variant indices sorted by predicted time, fastest first.

        Stable sort: prediction ties resolve to the lower index, so the
        ranking is a pure function of (shape, variants, model state).
        """
        times = self.predict_time_grid([shape], variants)[0]
        return np.argsort(times, kind="stable")


__all__ = [
    "BoostedStumps",
    "GemmSurrogate",
    "RidgeRegressor",
    "SurrogateModel",
    "TrainReport",
]
