"""The five benchmark workloads: inputs from a seed, one answer, checks.

Each workload builds its inputs in :meth:`Workload.setup` (timed as
``setup_s``), computes one answer by calling public ``repro`` entry
points in :meth:`Workload.answer` (timed as ``wall_s``), flattens the
answer into scalars for the cross-process output digest, and checks
the answer.  Simulated outputs are checked against the repository's
own pinned goldens (:mod:`repro.obs.golden`) on the seed-0 instances
and against seed-independent invariants at every seed; nothing is
compared with hardware, so the benchmark reports no accuracy figure.

The README records why each workload is in the set.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Callable, Dict, List

import numpy as np

from repro.cluster import (
    capacity_sweep,
    default_service_model,
    locality_comparison,
    policy_comparison,
)
from repro.codesign import (
    SearchConfig,
    default_space,
    result_scalars,
    run_codesign_search,
    smoke_space,
)
from repro.fleet_global import run_capacity_study
from repro.models import figure6_models
from repro.obs.bench import golden_violations
from repro.perf.executor import Executor
from repro.resilience import run_section_55_drill
from repro.tensors.tensor import stable_uid_scope

Scalars = Dict[str, float]


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], Any]
    answer: Callable[[Any], Any]
    scalars: Callable[[Any], Scalars]
    check: Callable[[Any, Scalars, int], List[str]]


def _goldens(golden_name: str, scalars: Scalars, seed: int) -> List[str]:
    """Seed-0 answers must match the pinned goldens of the bench file
    that runs the same scenario."""
    if seed != 0:
        return []
    return golden_violations(
        {"benchmarks": {golden_name: {"scalars": scalars}}}
    )


def _require(failures: List[str], condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def _seed_only(seed: int) -> int:
    """Set-up of a scenario whose only input is its seed."""
    return seed


# -- codesign_search ----------------------------------------------------

CODESIGN_MODELS = ("LC1", "LC3", "HC1")
# The search solves the pinned sec6_codesign instance at every benchmark
# seed.  Its cost is a property of the search seed (2.2-3.8 s per answer
# over search seeds 0-9 on a 2-vCPU Xeon), so a seeded search would measure
# the instance's difficulty, and the spread across benchmark seeds would
# exceed the wall_s bound.
CODESIGN_SEARCH_SEED = 0


def _codesign_setup(seed: int):
    models = [m for m in figure6_models() if m.name in CODESIGN_MODELS]
    config = SearchConfig(
        seed=CODESIGN_SEARCH_SEED, iterations=40, device_rung_keep=10,
        serving_rung_keep=5, train_chips=10,
    )
    return smoke_space(), models, config


def _codesign_answer(inputs):
    space, models, config = inputs
    return run_codesign_search(space, models, config, duration_s=4.0)


def _codesign_scalars(result) -> Scalars:
    scalars = result_scalars(result)
    for index, evaluation in enumerate(result.front):
        scalars[f"front.{index}.perf"] = evaluation.perf
        scalars[f"front.{index}.perf_per_watt"] = evaluation.perf_per_watt
    return scalars


def _codesign_check(result, scalars: Scalars, seed: int) -> List[str]:
    failures: List[str] = []
    _require(failures, result.all_front_exact, "front has a non-exact point")
    _require(failures, result.mtia2_dominates_mtia1,
             "MTIA 2i does not dominate MTIA 1")
    _require(failures, result.proposal is not None, "no proposal")
    return failures + _goldens("sec6_codesign", scalars, CODESIGN_SEARCH_SEED)


# -- zoo_sweep ------------------------------------------------------------

# Distinct chips per SRAM rung of the design space.  The SRAM size sets
# how much of each model's weights the modelled LLC holds, and with it
# most of the executor's host time, so every seed gets the same mix of
# fitting and overflowing working sets; the other axes are drawn freely.
ZOO_CHIPS_PER_SRAM = 2


def _zoo_setup(seed: int):
    models = figure6_models()
    graphs = []
    for model in models:
        with stable_uid_scope():
            graphs.append((model, model.build_at(model.batch)))
    space = default_space()
    rng = np.random.default_rng([seed, 1])
    points: Dict[tuple, Any] = {}
    for sram in space.sram_capacity_bytes:
        rung: Dict[tuple, Any] = {}
        while len(rung) < ZOO_CHIPS_PER_SRAM:
            point = dataclasses.replace(space.random_point(rng),
                                        sram_capacity_bytes=sram)
            rung.setdefault(point.key(), point)
        points.update(rung)
    chips = [space.to_chip(point) for point in points.values()]
    return graphs, chips


def _zoo_answer(inputs):
    graphs, chips = inputs
    return [
        (model.name, chip.name,
         Executor(chip).run(graph, model.batch, warmup_runs=1))
        for chip in chips
        for model, graph in graphs
    ]


def _zoo_scalars(reports) -> Scalars:
    scalars: Scalars = {}
    for model, chip, report in reports:
        prefix = f"{chip}.{model}"
        scalars[prefix + ".latency_s"] = report.latency_s
        scalars[prefix + ".energy_j"] = report.energy_j
        scalars[prefix + ".dense_hit_rate"] = report.dense_hit_rate
        scalars[prefix + ".sparse_hit_rate"] = report.sparse_hit_rate
    return scalars


def _zoo_check(reports, scalars: Scalars, seed: int) -> List[str]:
    failures: List[str] = []
    for model, chip, report in reports:
        where = f"{model} on {chip}"
        for name in ("latency_s", "energy_j"):
            value = getattr(report, name)
            _require(failures, math.isfinite(value) and value > 0,
                     f"{where}: {name}={value!r} is not finite positive")
        for name in ("dense_hit_rate", "sparse_hit_rate"):
            value = getattr(report, name)
            _require(failures, 0.0 <= value <= 1.0,
                     f"{where}: {name}={value!r} outside [0, 1]")
    return failures


# -- capacity_plan --------------------------------------------------------

CAPACITY_QPS = (100.0, 200.0, 300.0)


def _capacity_setup(seed: int):
    return default_service_model(), seed


def _capacity_answer(inputs):
    service, seed = inputs
    sweep = capacity_sweep(service, CAPACITY_QPS, duration_s=30.0, seed=seed)
    tails = policy_comparison(service, target_utilization=0.85,
                              duration_s=60.0, seed=seed)
    shards = locality_comparison(service, duration_s=60.0, seed=seed)
    return service, sweep, tails, shards


def _capacity_scalars(result) -> Scalars:
    service, sweep, tails, shards = result
    scalars = dict(sweep.scalars())
    scalars.update({
        "mean_service_s": service.mean_service_s,
        "p99_round_robin_s": tails["round_robin"].p99_latency_s,
        "p99_po2_s": tails["po2"].p99_latency_s,
        "p99_jsq_s": tails["jsq"].p99_latency_s,
        "cross_host_fraction_jsq": shards["jsq"].cross_host_fraction,
        "cross_host_fraction_locality": shards["locality"].cross_host_fraction,
    })
    return scalars


def _capacity_check(result, scalars: Scalars, seed: int) -> List[str]:
    _, _, tails, shards = result
    failures: List[str] = []
    for name, report in list(tails.items()) + list(shards.items()):
        _require(failures,
                 report.served + report.shed + report.timed_out
                 == report.offered,
                 f"{name}: request conservation violated")
    _require(failures,
             tails["po2"].p99_latency_s < tails["round_robin"].p99_latency_s,
             "po2 P99 is not below round-robin P99")
    _require(failures,
             shards["locality"].cross_host_fraction
             < shards["jsq"].cross_host_fraction,
             "locality cross-host fraction is not below JSQ")
    return failures + _goldens("cluster_capacity", scalars, seed)


# -- fleet_outage ---------------------------------------------------------


def _fleet_answer(seed):
    return run_capacity_study(seed=seed)


def _fleet_scalars(study) -> Scalars:
    scalars = dict(study.scalars())
    if study.defended_replicas is not None:
        point = study.point(study.defended_replicas)
        scalars["detection_lag_s"] = point.defended.regions[0].detection_lag_s
    return scalars


def _fleet_check(study, scalars: Scalars, seed: int) -> List[str]:
    failures: List[str] = []
    for point in study.points:
        for report in (point.baseline, point.undefended, point.defended):
            _require(failures,
                     report.served + report.shed + report.timed_out
                     + report.spilled_served == report.offered,
                     f"{point.replicas_per_region} replicas/region: "
                     "global conservation violated")
    _require(failures, study.defended_replicas is not None,
             "no swept size holds the SLO through the outage")
    return failures + _goldens("sec5_fleet", scalars, seed)


# -- resilience_drill -----------------------------------------------------


def _drill_answer(seed):
    return run_section_55_drill(devices=300, duration_days=90.0,
                                utilization=0.85, seed=seed)


def _drill_scalars(drill) -> Scalars:
    scalars: Scalars = {}
    for arm in ("baseline", "mitigated"):
        report = getattr(drill, arm)
        scalars[f"{arm}.events"] = len(report.events)
        scalars[f"{arm}.min_goodput"] = report.min_goodput_fraction
        scalars[f"{arm}.final_goodput"] = report.final_goodput_fraction
        scalars[f"{arm}.unavailability_device_minutes"] = (
            report.unavailability_device_minutes
        )
    return scalars


def _drill_check(drill, scalars: Scalars, seed: int) -> List[str]:
    return [] if drill.recovered else ["mitigated arm did not recover"]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("codesign_search", _codesign_setup, _codesign_answer,
                 _codesign_scalars, _codesign_check),
        Workload("zoo_sweep", _zoo_setup, _zoo_answer, _zoo_scalars,
                 _zoo_check),
        Workload("capacity_plan", _capacity_setup, _capacity_answer,
                 _capacity_scalars, _capacity_check),
        Workload("fleet_outage", _seed_only, _fleet_answer,
                 _fleet_scalars, _fleet_check),
        Workload("resilience_drill", _seed_only, _drill_answer,
                 _drill_scalars, _drill_check),
    )
}
