"""Joint Perf / TCO / Perf-per-Watt scoring of candidate chips.

A candidate is scored against the Table 1 / Figure 6 model zoo under
the serving SLO, at one of three fidelities — the successive-halving
rungs of the search:

``surrogate``
    The executor-latency surrogate predicts each model's whole-graph
    latency from the cached graph summary; sharding comes from the byte
    formula, serving throughput from the fluid capacity bound.  No
    graph build, no executor run, no DES — microseconds per candidate.

``device``
    Exact device evaluation: ``autotune.placement.tune_placement``
    (which runs the real :class:`~repro.perf.executor.Executor`,
    choosing SRAM partition and fallback batch) and
    ``autotune.sharding.required_shards`` on the real graph.  Serving
    throughput still uses the fluid bound, so candidates are comparable
    at a fraction of the serving-rung cost.

``serving``
    Everything exact: the device rung plus the seeded
    :func:`repro.cluster.capacity.max_qps_at_slo` discrete-event scan
    for QPS at the P99 SLO.  Only evaluations at this fidelity carry
    ``exact=True`` — the Pareto front reports nothing else.

The three objectives (all maximized):

* **perf** — QPS one 24-accelerator server sustains at the P99 SLO,
  geometric-mean across the zoo;
* **perf_per_tco** — that QPS per annual TCO dollar, with the server
  TCO rebuilt from the candidate's *derived* cost
  (:func:`repro.tco.model.derived_cost_inputs`) and measured draw;
* **perf_per_watt** — that QPS per watt of measured server draw.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Sequence, Tuple

from repro.arch.mtia import mtia2i_spec
from repro.arch.server import mtia2i_server
from repro.arch.specs import ChipSpec
from repro.autotune.placement import tune_placement
from repro.autotune.sharding import (
    RUNTIME_RESERVE_FRACTION,
    required_shards,
    shard_throughput_tax,
)
from repro.cluster.capacity import max_qps_at_slo
from repro.cluster.service import default_service_model
from repro.codesign.space import DesignPoint
from repro.models.zoo import ZooModel, figure6_models
from repro.obs.metrics import active
from repro.power.activity import chip_power_w
from repro.surrogate.features import (
    GraphSummary,
    executor_feature_row,
    summarize_graph,
)
from repro.tco.model import derived_cost_inputs, server_tco
from repro.tensors.tensor import stable_uid_scope

# The DSE serves every model at this P99 SLO.  It is looser than the
# production DEFAULT_P99_SLO_S (100 ms) on purpose: the recovered front
# spans chip generations ~4x apart in latency (MTIA 1 vs 2), and with
# lognormal jitter sigma=0.45 the P99 sits ~2.6x above the mean — a
# 100 ms SLO would zero out the older anchor entirely instead of
# ranking it, degenerating the front the sanity check reads.
CODESIGN_P99_SLO_S = 0.25

# Feasible fraction of the fluid capacity bound used at the cheap
# fidelities (the DES scan typically lands near this at the codesign
# SLO); the serving rung replaces it with the measured value.
FLUID_FEASIBLE_FRACTION = 0.85

# Compute-array utilization assumed for the surrogate rung's power
# estimate; exact rungs use the executor's measured draw instead.
SURROGATE_UTILIZATION = 0.6

FIDELITIES = ("surrogate", "device", "serving")


@dataclasses.dataclass(frozen=True)
class ModelScore:
    """One zoo model's serving economics on one candidate chip."""

    model: str
    shards: int
    sample_latency_s: float  # per-sample device latency (incl. host)
    mean_service_s: float  # scaled request service time
    qps_server: float  # at the P99 SLO, per 24-accelerator server
    server_power_w: float
    tco_per_year: float
    perf_per_tco: float
    perf_per_watt: float


@dataclasses.dataclass(frozen=True)
class CandidateEval:
    """A fully scored candidate: one row of the Pareto table."""

    label: str
    point: Optional[DesignPoint]  # None for anchor chips
    chip_name: str
    fidelity: str
    exact: bool  # True only for serving-fidelity evaluations
    feasible: bool
    area_mm2: float
    typical_watts: float
    accelerator_cost_usd: float
    models: Tuple[ModelScore, ...]
    perf: float
    perf_per_tco: float
    perf_per_watt: float

    def objectives(self) -> Tuple[float, float, float]:
        """The maximized objective vector."""
        return (self.perf, self.perf_per_tco, self.perf_per_watt)


def _geomean(values: Sequence[float]) -> float:
    if not values or any(v <= 0 for v in values):
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def _shards_from_bytes(
    dense_bytes: float, table_bytes: float, chip: ChipSpec
) -> int:
    """The ``required_shards`` byte formula on a cached graph summary
    (same arithmetic, no graph build).  Raises like the original."""
    usable = chip.dram.capacity_bytes * (1.0 - RUNTIME_RESERVE_FRACTION)
    if dense_bytes >= usable:
        raise ValueError("dense weights alone exceed device DRAM")
    shards = 1
    while table_bytes / shards + dense_bytes > usable:
        shards += 1
        if shards > 64:
            raise ValueError("model too large to shard")
    return shards


class CodesignObjective:
    """Scores candidate chips against the zoo at the three fidelities.

    Every exact result is paid for once: the placement-tuned latency
    and the shard count are cached per (full chip spec, model name),
    so a device-rung finalist promoted to the serving rung, or an
    anchor equal to the base chip, reuses its runs.  Reference
    per-sample latencies are the base chip's (the MTIA 2i production
    point, where the default service model was calibrated) entries in
    that cache; every candidate's request service time is the
    calibrated mean stretched by its latency ratio.  Graph summaries
    are likewise cached so surrogate-fidelity scoring never touches a
    graph.
    """

    def __init__(
        self,
        models: Optional[Sequence[ZooModel]] = None,
        base_chip: Optional[ChipSpec] = None,
        p99_slo_s: float = CODESIGN_P99_SLO_S,
        duration_s: float = 6.0,
        seed: int = 0,
        surrogate=None,
        max_cell_replicas: int = 8,
        registry=None,
    ) -> None:
        self.models = tuple(models if models is not None else figure6_models())
        if not self.models:
            raise ValueError("need at least one zoo model")
        self.base_chip = base_chip or mtia2i_spec()
        self.p99_slo_s = p99_slo_s
        self.duration_s = duration_s
        self.seed = seed
        self.surrogate = surrogate
        self.max_cell_replicas = max_cell_replicas
        self.registry = registry
        self.reference_service = default_service_model()
        self.summaries: Dict[str, GraphSummary] = {
            m.name: summarize_graph(self.stable_builder(m)(m.batch), m.batch)
            for m in self.models
        }
        # Exact results keyed by (repr of the full chip spec, model
        # name).  ChipSpec holds dicts and so cannot be hashed; its
        # dataclass repr spells out every field, floats exactly, so
        # equal reprs mean equal specs.
        self._latency: Dict[Tuple[str, str], Tuple[float, float, float]] = {}
        self._shard_counts: Dict[Tuple[str, str], int] = {}
        self._server = mtia2i_server()

    @staticmethod
    def stable_builder(model: ZooModel):
        """The model's graph builder under a
        :func:`~repro.tensors.tensor.stable_uid_scope`, so rebuilding
        the same (model, batch) yields byte-identical graphs — the LLC
        set mapping hashes tensor uids, and without the scope a rerun
        of the search would drift at the 4th decimal."""

        def build(batch: int):
            with stable_uid_scope():
                return model.build_at(batch)

        return build

    # -- cached exact pieces ------------------------------------------

    def reference_sample_latency(self, model: ZooModel) -> float:
        """Exact per-sample latency of a model on the base chip."""
        return self._device_latency(self.base_chip, model)[1]

    def _device_latency(
        self, chip: ChipSpec, model: ZooModel
    ) -> Tuple[float, float, float]:
        """Exact ``(batch_latency_s, per_sample_s, avg_power_w)`` via
        the placement autotuner (which may pick a fallback batch),
        computed once per (chip, model)."""
        key = (repr(chip), model.name)
        if key not in self._latency:
            decision = tune_placement(
                self.stable_builder(model), model.batch, chip
            )
            report = decision.report
            batch_latency = report.latency_s + model.host_overhead_s_per_batch
            self._latency[key] = (
                batch_latency,
                batch_latency / report.batch,
                report.avg_power_w,
            )
        return self._latency[key]

    def _device_shards(self, chip: ChipSpec, model: ZooModel) -> int:
        """``required_shards`` on the real graph, computed once per
        (chip, model); a chip that cannot hold the model raises every
        time."""
        key = (repr(chip), model.name)
        if key not in self._shard_counts:
            self._shard_counts[key] = required_shards(
                self.stable_builder(model)(model.batch), chip
            )
        return self._shard_counts[key]

    # -- per-model pieces ---------------------------------------------

    def _surrogate_latency(
        self, chip: ChipSpec, model: ZooModel
    ) -> Tuple[float, float, float]:
        """Predicted ``(batch_latency_s, per_sample_s, avg_power_w)``
        from the executor surrogate on the cached summary."""
        summary = self.summaries[model.name]
        row = executor_feature_row(chip, summary)
        predicted = float(self.surrogate.predict(row[None, :])[0])
        batch_latency = predicted + model.host_overhead_s_per_batch
        power = chip_power_w(
            chip, chip.frequency_hz, SURROGATE_UTILIZATION
        )
        return batch_latency, batch_latency / summary.batch, power

    def _score_model(
        self, chip: ChipSpec, model: ZooModel, fidelity: str
    ) -> ModelScore:
        summary = self.summaries[model.name]
        if fidelity == "surrogate":
            shards = _shards_from_bytes(
                summary.dense_bytes, summary.embedding_bytes, chip
            )
            _, per_sample, chip_power = self._surrogate_latency(chip, model)
        else:
            shards = self._device_shards(chip, model)
            _, per_sample, chip_power = self._device_latency(chip, model)

        reference = self.reference_sample_latency(model)
        service = dataclasses.replace(
            self.reference_service,
            mean_service_s=self.reference_service.mean_service_s
            * (per_sample / reference),
        )
        replicas_per_server = self._server.accelerators_per_server / shards
        if fidelity == "serving":
            cell = max(1, min(int(replicas_per_server), self.max_cell_replicas))
            qps_cell, _ = max_qps_at_slo(
                service, cell, self.p99_slo_s, self.duration_s, self.seed
            )
            qps_server = qps_cell * replicas_per_server / cell
        else:
            qps_server = (
                replicas_per_server
                * service.capacity_per_replica()
                * FLUID_FEASIBLE_FRACTION
            )
        qps_server *= shard_throughput_tax(shards)

        server_power = (
            self._server.platform_power_watts * 0.8
            + self._server.accelerators_per_server * chip_power
        )
        server = dataclasses.replace(self._server, chip=chip)
        tco = server_tco(
            server, derived_cost_inputs(chip), avg_power_watts=server_power
        ).total_per_year
        return ModelScore(
            model=model.name,
            shards=shards,
            sample_latency_s=per_sample,
            mean_service_s=service.mean_service_s,
            qps_server=qps_server,
            server_power_w=server_power,
            tco_per_year=tco,
            perf_per_tco=qps_server / tco if tco > 0 else 0.0,
            perf_per_watt=(
                qps_server / server_power if server_power > 0 else 0.0
            ),
        )

    # -- candidate evaluation -----------------------------------------

    def evaluate(
        self,
        chip: ChipSpec,
        label: str,
        fidelity: str,
        point: Optional[DesignPoint] = None,
    ) -> CandidateEval:
        """Score one candidate at one fidelity (never raises on an
        infeasible chip — it returns an all-zero objective vector, which
        every feasible candidate dominates, so the front drops it
        naturally)."""
        if fidelity not in FIDELITIES:
            raise ValueError(f"unknown fidelity {fidelity!r}")
        if fidelity == "surrogate" and self.surrogate is None:
            raise ValueError("surrogate fidelity needs a fitted surrogate")
        obs = active(self.registry)
        if obs.enabled:
            obs.counter(f"codesign.evals.{fidelity}").inc()
        scores = []
        feasible = True
        try:
            for model in self.models:
                scores.append(self._score_model(chip, model, fidelity))
        except ValueError:
            feasible = False
            scores = []
        return CandidateEval(
            label=label,
            point=point,
            chip_name=chip.name,
            fidelity=fidelity,
            exact=fidelity == "serving",
            feasible=feasible,
            area_mm2=chip.die_area_mm2,
            typical_watts=chip.typical_watts,
            accelerator_cost_usd=derived_cost_inputs(
                chip
            ).accelerator_cost_usd,
            models=tuple(scores),
            perf=_geomean([s.qps_server for s in scores]),
            perf_per_tco=_geomean([s.perf_per_tco for s in scores]),
            perf_per_watt=_geomean([s.perf_per_watt for s in scores]),
        )


__all__ = [
    "CODESIGN_P99_SLO_S",
    "FIDELITIES",
    "FLUID_FEASIBLE_FRACTION",
    "CandidateEval",
    "CodesignObjective",
    "ModelScore",
]
