"""Large-scale A/B testing harness (paper section 5.6).

The paper validates MTIA 2i against GPUs by serving the *same* trained
model on both backends, splitting live traffic, and comparing business
metrics, system metrics (normalized entropy, the standard CTR-prediction
accuracy metric from He et al. 2014), and low-level metrics (numerical
accuracy, prediction-value distributions).

This harness reproduces that methodology on a synthetic CTR model: a
ground-truth logistic model generates labels; each backend computes
predictions through its own numerics (e.g. exact FP32 versus FP16
rounding versus dynamic-INT8 FC layers); traffic is split by request
hash; and the same holistic metric set is compared.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Tuple

import numpy as np

Backend = Callable[[np.ndarray], np.ndarray]  # features -> predicted CTR


def normalized_entropy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Normalized entropy: average log loss over the entropy of the base
    CTR.  Lower is better; 1.0 means no better than predicting the
    average rate."""
    predictions = np.clip(np.asarray(predictions, dtype=np.float64), 1e-12, 1 - 1e-12)
    labels = np.asarray(labels, dtype=np.float64)
    if predictions.shape != labels.shape:
        raise ValueError("predictions and labels must align")
    if len(labels) == 0:
        raise ValueError("need at least one sample")
    logloss = -np.mean(labels * np.log(predictions) + (1 - labels) * np.log(1 - predictions))
    base = float(np.mean(labels))
    base = min(max(base, 1e-12), 1 - 1e-12)
    base_entropy = -(base * np.log(base) + (1 - base) * np.log(1 - base))
    return float(logloss / base_entropy)


@dataclasses.dataclass
class SyntheticCtrModel:
    """Ground truth for the A/B harness: a logistic model over dense
    features, with labels drawn from the true probabilities."""

    num_features: int = 64
    seed: int = 0

    def __post_init__(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.true_weights = rng.normal(0, 0.3, size=self.num_features)
        self.bias = -2.0  # base CTR around 10%

    def sample(
        self,
        num_requests: int,
        seed: int = 1,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Draw (features, labels) for a traffic slice."""
        rng = np.random.default_rng(seed)
        features = rng.normal(0, 1, size=(num_requests, self.num_features))
        logits = features @ self.true_weights + self.bias
        probs = 1.0 / (1.0 + np.exp(-logits))
        labels = (rng.uniform(size=num_requests) < probs).astype(np.float64)
        return features, labels

    def exact_backend(self) -> Backend:
        """The reference serving path (FP32 end to end)."""

        def predict(features: np.ndarray) -> np.ndarray:
            logits = features @ self.true_weights + self.bias
            return 1.0 / (1.0 + np.exp(-logits))

        return predict

    def backend_with(self, transform: Callable[[np.ndarray], np.ndarray]) -> Backend:
        """A backend whose *logit computation* runs through ``transform``
        (e.g. FP16 rounding, quantized matmul)."""

        def predict(features: np.ndarray) -> np.ndarray:
            logits = transform(features @ self.true_weights + self.bias)
            return 1.0 / (1.0 + np.exp(-np.asarray(logits, dtype=np.float64)))

        return predict


@dataclasses.dataclass(frozen=True)
class AbTestResult:
    """Holistic comparison of two serving backends on split traffic."""

    control_ne: float
    treatment_ne: float
    ne_delta: float  # treatment - control; positive is worse
    prediction_ks: float  # Kolmogorov-Smirnov distance of prediction dists
    mean_prediction_delta: float
    revenue_proxy_ratio: float  # treatment / control expected value

    def quality_parity(self) -> bool:
        """The launch gate: NE within 0.01 and matching distributions
        (prediction KS distance within 0.02).

        The NE tolerance must sit above the arm-sampling noise floor for
        the test's traffic volume (~0.007 at 10^5 requests; production
        tests run many millions of requests and use tighter gates).
        """
        return abs(self.ne_delta) <= 0.01 and self.prediction_ks <= 0.02


def _ks_distance(a: np.ndarray, b: np.ndarray) -> float:
    grid = np.sort(np.concatenate([a, b]))
    cdf_a = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    cdf_b = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


def run_ab_test(
    model: SyntheticCtrModel,
    control: Backend,
    treatment: Backend,
    num_requests: int = 100_000,
    treatment_fraction: float = 0.5,
    seed: int = 11,
) -> AbTestResult:
    """Split traffic between backends by request hash and compare.

    Mirrors the paper's setup: both backends are deployed in the same
    'region' and receive statistically identical traffic slices drawn
    from ``seed``.
    """
    if not (0 < treatment_fraction < 1):
        raise ValueError("treatment fraction must be in (0, 1)")
    features, labels = model.sample(num_requests, seed=seed)
    # Deterministic hash split, as production traffic routers do.
    assignment = (np.arange(num_requests) * 2654435761 % 1000) < treatment_fraction * 1000
    control_features, control_labels = features[~assignment], labels[~assignment]
    treat_features, treat_labels = features[assignment], labels[assignment]
    control_preds = control(control_features)
    treat_preds = treatment(treat_features)
    control_ne = normalized_entropy(control_preds, control_labels)
    treat_ne = normalized_entropy(treat_preds, treat_labels)
    # Revenue proxy: expected value of served predictions (ads are priced
    # by predicted CTR, so systematic prediction shifts move revenue).
    revenue_control = float(np.mean(control_preds))
    revenue_treatment = float(np.mean(treat_preds))
    return AbTestResult(
        control_ne=control_ne,
        treatment_ne=treat_ne,
        ne_delta=treat_ne - control_ne,
        prediction_ks=_ks_distance(np.asarray(control_preds), np.asarray(treat_preds)),
        mean_prediction_delta=revenue_treatment - revenue_control,
        revenue_proxy_ratio=revenue_treatment / revenue_control if revenue_control else 1.0,
    )
