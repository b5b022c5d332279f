"""Graceful degradation: priority admission and brownout serving.

Section 5's productionization stance is that a recommendation fleet
under correlated trouble should get *worse*, not *unavailable*: shed the
best-effort tail first, and serve what remains with cheaper model
variants whose quality cost is measured, not guessed.  This module is
that ladder.

* A :class:`BrownoutController` watches tier pressure (outstanding
  requests per up replica) on every routing attempt and moves through
  discrete brownout levels with hysteresis — each level raises the
  priority floor (only requests at or above it are admitted; higher
  number = more important) and/or steps down the serving
  :class:`BrownoutRung`.
* Each rung is a real serving variant: full precision, FP16 dense math,
  the dynamic-INT8 path of :mod:`repro.quant.int8`, or a small
  early-stage distillation proxy from :mod:`repro.models.zoo`.  Its
  service-time multiplier scales simulated capacity; its quality cost is
  scored as normalized-entropy damage through the
  :mod:`repro.fleet.abtest` harness (:func:`measure_ladder_quality`), the
  same launch-gate methodology the paper used for the MTIA-vs-GPU
  comparison.

The controller is deliberately deterministic and seedless: levels are a
pure function of the observed pressure sequence, so chaos campaigns stay
bit-reproducible.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.fleet.abtest import SyntheticCtrModel, run_ab_test
from repro.quant.int8 import quantize_weights_static, quantized_matmul

# Priority mix of tiered traffic (best-effort, normal, critical).
PRIORITY_WEIGHTS = (0.3, 0.5, 0.2)
# The ladder's hysteresis, in outstanding requests per up replica: the
# controller escalates one level each time pressure crosses
# ``ENTER_AT + level * LEVEL_STEP`` and de-escalates below
# ``EXIT_AT + level * LEVEL_STEP``; the enter/exit gap keeps the ladder
# from flapping at a threshold.
ENTER_AT = 8.0
EXIT_AT = 4.0
LEVEL_STEP = 4.0

@dataclasses.dataclass(frozen=True)
class BrownoutRung:
    """One step of the degradation ladder.

    ``service_multiplier`` scales replica service time (cheaper variants
    finish faster, adding capacity exactly when the tier needs it);
    ``priority_floor`` is the minimum request priority admitted while
    this rung is active (0 admits everything).
    """

    name: str
    service_multiplier: float = 1.0
    priority_floor: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("rung needs a name")
        if not (0 < self.service_multiplier <= 1.0):
            raise ValueError("service multiplier must be in (0, 1]")
        if self.priority_floor < 0:
            raise ValueError("priority floor must be non-negative")


@dataclasses.dataclass(frozen=True)
class BrownoutConfig:
    """The ladder's rungs, climbed and descended at the module's
    hysteresis thresholds."""

    rungs: Tuple[BrownoutRung, ...]

    def __post_init__(self) -> None:
        if not self.rungs:
            raise ValueError("need at least one rung")
        if self.rungs[0].service_multiplier != 1.0 or self.rungs[0].priority_floor != 0:
            raise ValueError("rung 0 must be full service (no degradation)")


class BrownoutController:
    """The mutable per-run ladder state the simulator consults.

    Duck-typed against the cluster simulator's ``brownout`` hook:
    ``on_route`` observes pressure and returns the current level,
    ``admit`` gates a request priority, ``rung`` names the active
    serving variant and its service-time multiplier.
    """

    def __init__(self, config: BrownoutConfig) -> None:
        self.config = config
        self.level = 0
        self.escalations = 0
        self.shed_below_floor = 0

    def on_route(self, now_s: float, outstanding: int, up_replicas: int) -> int:
        pressure = outstanding / max(up_replicas, 1)
        top = len(self.config.rungs) - 1
        while (self.level < top
               and pressure >= ENTER_AT + self.level * LEVEL_STEP):
            self.level += 1
            self.escalations += 1
        while (self.level > 0
               and pressure < EXIT_AT + (self.level - 1) * LEVEL_STEP):
            self.level -= 1
        return self.level

    def admit(self, priority: int) -> bool:
        floor = self.config.rungs[self.level].priority_floor
        if priority >= floor:
            return True
        self.shed_below_floor += 1
        return False

    def rung(self) -> Tuple[str, float]:
        rung = self.config.rungs[self.level]
        return rung.name, rung.service_multiplier


# ---------------------------------------------------------------------------
# The measured ladder: real serving variants and their quality cost
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _tiny_model_multiplier() -> float:
    """Service-time ratio of the early-stage distillation proxy.

    The deepest brownout rung swaps the late-stage ranker for the
    early-stage model (the fleet already serves it upstream of the
    funnel), so the speedup is the per-sample dense-FLOP ratio of the
    two zoo entries — derived, not asserted.  A constant of the zoo, so
    it is computed once per process, not once per ladder.
    """
    from repro.models.zoo import early_stage_model, late_stage_model

    late = late_stage_model()
    early = early_stage_model()
    late_per_sample = late.graph().total_flops() / late.batch
    early_per_sample = early.graph().total_flops() / early.batch
    ratio = early_per_sample / late_per_sample
    return float(min(max(ratio, 0.05), 1.0))


def default_ladder() -> BrownoutConfig:
    """The standard four-rung ladder the chaos scenarios use.

    full → FP16 dense math (~25% cheaper on MTIA's double-rate FP16
    engines) → dynamic INT8 FC layers (section 4.2's quantized path)
    → the early-stage distillation proxy, which also stops admitting
    best-effort (priority 0) traffic.
    """
    return BrownoutConfig(
        rungs=(
            BrownoutRung("full", 1.0, 0),
            BrownoutRung("fp16", 0.75, 0),
            BrownoutRung("int8", 0.55, 0),
            BrownoutRung("tiny", _tiny_model_multiplier(), 1),
        )
    )


def rung_backends(
    model: SyntheticCtrModel,
) -> Dict[str, Callable[[np.ndarray], np.ndarray]]:
    """The serving backend behind each ladder rung.

    Every rung is a real numerical path, so its quality cost is a
    measurement: FP16 rounds the logits, INT8 runs the FC through
    :func:`repro.quant.int8.quantized_matmul`, and the tiny rung keeps
    only the strongest quarter of the features (a stand-in for the
    early-stage distillation).
    """

    def fp16(features: np.ndarray) -> np.ndarray:
        logits = (features @ model.true_weights + model.bias)
        logits = logits.astype(np.float16).astype(np.float64)
        return 1.0 / (1.0 + np.exp(-logits))

    quantized = quantize_weights_static(model.true_weights.reshape(-1, 1))

    def int8(features: np.ndarray) -> np.ndarray:
        logits = quantized_matmul(features, quantized).ravel() + model.bias
        return 1.0 / (1.0 + np.exp(-logits))

    keep = max(1, model.num_features // 4)
    strongest = np.argsort(-np.abs(model.true_weights))[:keep]
    tiny_weights = np.zeros_like(model.true_weights)
    tiny_weights[strongest] = model.true_weights[strongest]

    def tiny(features: np.ndarray) -> np.ndarray:
        logits = features @ tiny_weights + model.bias
        return 1.0 / (1.0 + np.exp(-logits))

    return {
        "full": model.exact_backend(),
        "fp16": fp16,
        "int8": int8,
        "tiny": tiny,
    }


def measure_ladder_quality(
    num_requests: int = 40_000,
    seed: int = 0,
) -> Dict[str, float]:
    """NE damage of each rung versus full service, via the A/B harness.

    Returns ``{rung_name: ne_delta}`` (positive = worse), measured by
    splitting synthetic traffic between the exact backend and each
    degraded variant exactly as the paper's launch gates did.  The full
    rung's delta is its own A/B arm-noise floor — the number the others
    should be read against.
    """
    model = SyntheticCtrModel(seed=seed)
    backends = rung_backends(model)
    control = backends["full"]
    deltas: Dict[str, float] = {}
    for name, backend in backends.items():
        result = run_ab_test(
            model, control, backend,
            num_requests=num_requests, seed=seed + 17,
        )
        deltas[name] = float(result.ne_delta)
    return deltas


def quality_cost_of_run(
    brownout_served: Sequence[Tuple[str, int]],
    ne_deltas: Dict[str, float],
) -> float:
    """Served-traffic-weighted NE damage of a browned-out run.

    ``brownout_served`` is the per-rung serve count from
    :class:`~repro.cluster.simulator.ClusterReport`; the result is the
    mean NE delta a served request suffered — the measured price of the
    availability the ladder bought.
    """
    total = sum(count for _, count in brownout_served)
    if total == 0:
        return 0.0
    cost = sum(
        ne_deltas.get(name, 0.0) * count for name, count in brownout_served
    )
    return cost / total


__all__ = [
    "BrownoutConfig",
    "BrownoutController",
    "BrownoutRung",
    "default_ladder",
    "measure_ladder_quality",
    "quality_cost_of_run",
    "rung_backends",
]
