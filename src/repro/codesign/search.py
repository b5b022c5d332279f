"""The seeded co-design search: annealing over the grid, halving rungs
up the fidelity ladder, exact evaluation for everything reported.

Structure (circuit_training's placement framing, cast onto chip axes):

1. **Train** the executor-latency surrogate on a seeded sample of
   derived chips exact-evaluated against the zoo (seconds, done once).
2. **Explore**: parallel simulated-annealing chains walk the grid with
   single-axis ladder moves.  Each chain maximizes a differently
   weighted scalarization of the three log-objectives — one chain per
   corner objective plus a balanced chain — so the population spreads
   across the front instead of piling onto one knee.  Chains score
   candidates at *surrogate* fidelity only, sharing one memoized
   evaluation cache.
3. **Halve**: the best survivors by Pareto rank are promoted to exact
   *device* fidelity (real executor + placement autotuner), then the
   best of those to *serving* fidelity (the seeded DES QPS-at-SLO
   scan) — the successive-halving pattern with fidelity as the rung
   resource.
4. **Report**: the Pareto front over serving-fidelity evaluations plus
   the MTIA 1 / MTIA 2i anchors (always exact-evaluated).  Every point
   on the returned front carries ``exact=True``; the surrogate only
   ever decided *which* candidates to pay exact evaluation for — the
   PR-9 verified pattern at subsystem scale.

Determinism: every random draw comes from ``default_rng([seed, k])``
streams, the evaluation caches key on grid coordinates, and the front
sort is canonical — a seeded rerun reproduces the result bit for bit
(pinned by test and golden).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.mtia import mtia1_spec, mtia2i_spec
from repro.arch.specs import ChipSpec
from repro.codesign.objectives import CandidateEval, CodesignObjective
from repro.codesign.pareto import dominates, pareto_front, select_by_rank
from repro.codesign.space import DesignPoint, DesignSpace, default_space
from repro.models.zoo import ZooModel
from repro.obs.metrics import active
from repro.surrogate.dataset import train_executor_surrogate
from repro.surrogate.model import TrainReport

_ZERO_SCALAR = -1e30  # scalarized score of an infeasible candidate


# One weight vector per annealing chain over (perf, perf/TCO, perf/W) —
# the three corner objectives plus the balanced chain.
CHAIN_WEIGHTS: Tuple[Tuple[float, float, float], ...] = (
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (1.0, 1.0, 1.0),
)
# The geometric cooling ladder's first and last temperatures.
T_INITIAL = 0.4
T_FINAL = 0.02


@dataclasses.dataclass(frozen=True)
class SearchConfig:
    """Knobs of the annealing + halving search."""

    seed: int = 0
    iterations: int = 60  # annealing steps per chain
    device_rung_keep: int = 16  # candidates promoted to exact device eval
    serving_rung_keep: int = 8  # of those, promoted to the DES rung
    train_chips: int = 16  # seeded derived-chip sample for training

    def __post_init__(self) -> None:
        if self.iterations <= 0:
            raise ValueError("need at least one iteration")
        if self.serving_rung_keep > self.device_rung_keep:
            raise ValueError("serving rung cannot outnumber device rung")
        if min(self.device_rung_keep, self.serving_rung_keep) <= 0:
            raise ValueError("rung sizes must be positive")
        if self.train_chips < 2:
            raise ValueError("surrogate training needs at least 2 chips")


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """Everything a codesign run produced."""

    front: Tuple[CandidateEval, ...]  # Pareto front, serving-exact only
    anchors: Tuple[CandidateEval, ...]  # MTIA 1, MTIA 2i (exact)
    proposal: Optional[CandidateEval]  # the "MTIA 3" pick off the front
    candidates_scored: int  # distinct grid points the chains scored
    device_evals: Tuple[CandidateEval, ...]
    serving_evals: Tuple[CandidateEval, ...]
    train_report: TrainReport
    mtia2_dominates_mtia1: bool
    space_size: int

    @property
    def exact_evals(self) -> int:
        """Exact candidate evaluations spent (both exact rungs, plus
        the two anchors)."""
        return len(self.device_evals) + len(self.serving_evals) + len(
            self.anchors
        )

    @property
    def eval_reduction(self) -> float:
        """Candidates scored per exact evaluation spent — the ratio the
        surrogate rung buys over exact-evaluating every visited point."""
        return self.candidates_scored / max(1, self.exact_evals)

    @property
    def all_front_exact(self) -> bool:
        """Every reported front point was exact-evaluated."""
        return all(e.exact for e in self.front)


def _scalarize(
    evaluation: CandidateEval, weights: Tuple[float, float, float]
) -> float:
    """Weighted sum of log-objectives (scale-free scalarization)."""
    total = 0.0
    for weight, value in zip(weights, evaluation.objectives()):
        if weight == 0.0:
            continue
        if value <= 0.0:
            return _ZERO_SCALAR
        total += weight * math.log(value)
    return total


def _temperatures(config: SearchConfig) -> np.ndarray:
    """Geometric cooling ladder, one temperature per iteration."""
    return np.geomspace(T_INITIAL, T_FINAL, num=config.iterations)


def _anneal_chain(
    space: DesignSpace,
    objective: CodesignObjective,
    cache: Dict[tuple, CandidateEval],
    weights: Tuple[float, float, float],
    chain_index: int,
    config: SearchConfig,
) -> None:
    """One annealing chain; discovered evaluations land in ``cache``."""
    rng = np.random.default_rng([config.seed, chain_index])

    def _score(point: DesignPoint) -> CandidateEval:
        key = point.key()
        if key not in cache:
            cache[key] = objective.evaluate(
                space.to_chip(point), point.describe(), "surrogate",
                point=point,
            )
        return cache[key]

    current = space.random_point(rng)
    current_scalar = _scalarize(_score(current), weights)
    for temperature in _temperatures(config):
        proposal = space.neighbor(current, rng)
        proposal_scalar = _scalarize(_score(proposal), weights)
        delta = proposal_scalar - current_scalar
        if delta >= 0 or rng.random() < math.exp(
            max(-700.0, delta / temperature)
        ):
            current, current_scalar = proposal, proposal_scalar


def _training_sample(
    space: DesignSpace, base: ChipSpec, config: SearchConfig
) -> List[ChipSpec]:
    """Seeded chip sample for surrogate training: distinct random grid
    points plus the base chip itself (so the reference region is always
    in-distribution)."""
    rng = np.random.default_rng([config.seed, 10_000])
    seen = set()
    chips: List[ChipSpec] = []
    while len(chips) < config.train_chips:
        point = space.random_point(rng)
        if point.key() in seen:
            continue
        seen.add(point.key())
        chips.append(space.to_chip(point, base))
    chips.append(base)
    return chips


def run_codesign_search(
    space: Optional[DesignSpace] = None,
    models: Optional[Sequence[ZooModel]] = None,
    config: SearchConfig = SearchConfig(),
    duration_s: float = 6.0,
    registry=None,
) -> SearchResult:
    """Run the full search around MTIA 2i and return the exact-evaluated
    front."""
    space = space or default_space()
    objective = CodesignObjective(
        models=models,
        duration_s=duration_s,
        seed=config.seed,
        registry=registry,
    )
    obs = active(registry)

    # Rung 0 substrate: train the executor surrogate on a seeded sample.
    train_models = [
        (objective.summaries[m.name], objective.stable_builder(m), m.batch)
        for m in objective.models
    ]
    chips = _training_sample(space, objective.base_chip, config)
    surrogate, train_report = train_executor_surrogate(
        chips, train_models, seed=config.seed
    )
    objective.surrogate = surrogate

    # Explore: annealing chains share one surrogate-fidelity cache.
    cache: Dict[tuple, CandidateEval] = {}
    for chain_index, weights in enumerate(CHAIN_WEIGHTS):
        _anneal_chain(space, objective, cache, weights, chain_index, config)
    scored = [e for e in cache.values() if e.feasible]

    # Halving rung 1: promote by Pareto rank to exact device fidelity.
    promoted = select_by_rank(scored, config.device_rung_keep)
    device_evals = tuple(
        objective.evaluate(
            space.to_chip(e.point), e.label, "device", point=e.point
        )
        for e in promoted
    )

    # Halving rung 2: the DES serving rung — everything here is exact.
    finalists = select_by_rank(
        [e for e in device_evals if e.feasible], config.serving_rung_keep
    )
    serving_evals = tuple(
        objective.evaluate(
            space.to_chip(e.point), e.label, "serving", point=e.point
        )
        for e in finalists
    )

    # Anchors: the real generations, exact-evaluated like any finalist.
    anchors = (
        objective.evaluate(mtia1_spec(), "MTIA 1", "serving"),
        objective.evaluate(mtia2i_spec(), "MTIA 2i", "serving"),
    )

    front = pareto_front(
        [e for e in (*serving_evals, *anchors) if e.feasible]
    )
    proposal = _pick_proposal(front, anchors)
    result = SearchResult(
        front=front,
        anchors=anchors,
        proposal=proposal,
        candidates_scored=len(cache),
        device_evals=device_evals,
        serving_evals=serving_evals,
        train_report=train_report,
        mtia2_dominates_mtia1=dominates(anchors[1], anchors[0]),
        space_size=space.size(),
    )
    if obs.enabled:
        obs.gauge("codesign.front_size").set(float(len(front)))
        obs.gauge("codesign.eval_reduction").set(result.eval_reduction)
    return result


def _pick_proposal(
    front: Sequence[CandidateEval], anchors: Sequence[CandidateEval]
) -> Optional[CandidateEval]:
    """The "MTIA 3" pick: the searched front point with the best
    balanced (geometric-mean) improvement over the MTIA 2i anchor."""
    reference = anchors[1].objectives()
    best: Optional[CandidateEval] = None
    best_gain = -math.inf
    anchor_labels = {a.label for a in anchors}
    for candidate in front:
        if candidate.label in anchor_labels:
            continue
        gains = [
            c / r if r > 0 else 0.0
            for c, r in zip(candidate.objectives(), reference)
        ]
        if any(g <= 0 for g in gains):
            continue
        gain = math.exp(sum(math.log(g) for g in gains) / len(gains))
        if gain > best_gain:
            best, best_gain = candidate, gain
    return best


__all__ = ["SearchConfig", "SearchResult", "run_codesign_search"]
