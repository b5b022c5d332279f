"""Rendering the search result: the Pareto table and the "MTIA 3"
proposal — the NRSim-scheduler-table style of reporting (SNIPPETS.md),
one aligned row per design with its axes, physicals, and objectives.
"""

from __future__ import annotations

from typing import Dict

from repro.codesign.objectives import CandidateEval
from repro.codesign.search import SearchResult
from repro.units import GB, GHZ, GiB, MiB

_HEADER = (
    f"{'design':<34} {'PEs':>4} {'GHz':>5} {'SRAM':>5} {'LPDDR':>10} "
    f"{'G:S':>4} {'mm^2':>6} {'W':>6} {'$':>6} "
    f"{'QPS/srv':>9} {'QPS/$TCOyr':>11} {'QPS/W':>7}"
)


def _axis_cells(evaluation: CandidateEval) -> str:
    point = evaluation.point
    if point is None:
        return f"{'--':>4} {'--':>5} {'--':>5} {'--':>10} {'--':>4}"
    return (
        f"{point.num_pes:>4d} "
        f"{point.frequency_hz / GHZ:>5.2f} "
        f"{point.sram_capacity_bytes // MiB:>5d} "
        f"{point.dram_capacity_bytes // GiB:>3d}G@"
        f"{point.dram_bandwidth_bytes_per_s / GB:>5.1f} "
        f"{point.gemm_to_simd:>4.0f}"
    )


def _row(evaluation: CandidateEval, marker: str = " ") -> str:
    return (
        f"{marker}{evaluation.label:<33} {_axis_cells(evaluation)} "
        f"{evaluation.area_mm2:>6.0f} {evaluation.typical_watts:>6.1f} "
        f"{evaluation.accelerator_cost_usd:>6.0f} "
        f"{evaluation.perf:>9.1f} {evaluation.perf_per_tco:>11.4f} "
        f"{evaluation.perf_per_watt:>7.3f}"
    )


def front_table(result: SearchResult) -> str:
    """The recovered Pareto front as an aligned text table.  Anchor
    rows are marked ``*``, the proposal row ``>``."""
    proposal = result.proposal
    anchor_labels = {a.label for a in result.anchors}
    lines = [
        "Pareto front (all points exact-evaluated; "
        f"{result.candidates_scored} candidates scored, "
        f"{result.exact_evals} exact evals, "
        f"{result.eval_reduction:.1f}x reduction):",
        _HEADER,
    ]
    for evaluation in result.front:
        marker = " "
        if evaluation.label in anchor_labels:
            marker = "*"
        elif proposal is not None and evaluation.label == proposal.label:
            marker = ">"
        lines.append(_row(evaluation, marker))
    # Anchors always print, even when dominated off the front.
    front_labels = {e.label for e in result.front}
    for anchor in result.anchors:
        if anchor.label not in front_labels:
            lines.append(_row(anchor, "*") + "  (dominated)")
    return "\n".join(lines)


def proposal_summary(result: SearchResult) -> str:
    """The "MTIA 3" proposal paragraph: the pick and its gains over the
    MTIA 2i anchor, per objective and per model."""
    anchor = result.anchors[1]
    lines = [
        "sanity anchor: MTIA 2i dominates MTIA 1: "
        f"{result.mtia2_dominates_mtia1}"
    ]
    pick = result.proposal
    if pick is None:
        lines.append("no searched point improves on MTIA 2i across the board")
        return "\n".join(lines)
    gains = [
        c / r for c, r in zip(pick.objectives(), anchor.objectives())
    ]
    lines.append(
        f"MTIA 3 proposal: {pick.label}\n"
        f"  vs MTIA 2i: perf x{gains[0]:.2f}, perf/TCO x{gains[1]:.2f}, "
        f"perf/W x{gains[2]:.2f}\n"
        f"  die {pick.area_mm2:.0f} mm^2, typical {pick.typical_watts:.0f} W, "
        f"accelerator ${pick.accelerator_cost_usd:.0f}"
    )
    anchor_by_model = {s.model: s for s in anchor.models}
    for score in pick.models:
        ref = anchor_by_model.get(score.model)
        ratio = score.qps_server / ref.qps_server if ref else float("nan")
        lines.append(
            f"  {score.model:<5} {score.shards}x shard  "
            f"{score.qps_server:>8.1f} QPS/srv (x{ratio:.2f})  "
            f"mean svc {score.mean_service_s * 1e3:.1f} ms"
        )
    return "\n".join(lines)


def result_scalars(result: SearchResult) -> Dict[str, float]:
    """Flat scalars for the benchmark harness and the pinned goldens."""
    out: Dict[str, float] = {
        "front_size": float(len(result.front)),
        "all_front_exact": float(result.all_front_exact),
        "mtia2_dominates_mtia1": float(result.mtia2_dominates_mtia1),
        "candidates_scored": float(result.candidates_scored),
        "exact_evals": float(result.exact_evals),
        "eval_reduction": result.eval_reduction,
        "anchor_mtia2_perf": result.anchors[1].perf,
        "anchor_mtia2_perf_per_watt": result.anchors[1].perf_per_watt,
        "surrogate_mape_holdout": result.train_report.mape_holdout,
    }
    if result.proposal is not None:
        out["proposal_perf"] = result.proposal.perf
        out["proposal_perf_per_tco"] = result.proposal.perf_per_tco
        out["proposal_perf_per_watt"] = result.proposal.perf_per_watt
        out["proposal_gain_vs_mtia2"] = result.proposal.perf / max(
            result.anchors[1].perf, 1e-30
        )
    return out


__all__ = [
    "front_table",
    "proposal_summary",
    "result_scalars",
]
