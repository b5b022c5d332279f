"""Automated model-chip co-design search (ROADMAP item 4; AutoDNNchip /
Design Conductor 2.0, PAPERS.md) — the "MTIA 3" proposal generator.

The paper's core theme is model-chip co-design; everything below this
package evaluates a *fixed* ``ChipSpec``.  This subsystem closes the
loop: a typed design space over the chip axes the paper's co-design
narrative turned (PE grid, SRAM/LPDDR capacity and bandwidth, GEMM:SIMD
ratio, frequency, NoC), candidates scored jointly against the Table 1 /
Figure 6 zoo under serving SLOs on the three production objectives
(QPS at the P99 SLO, QPS per TCO dollar, QPS per watt), a seeded
simulated-annealing + successive-halving search whose cheap rung is the
PR-9 executor surrogate, and deterministic Pareto fronts where every
reported point was exact-evaluated and MTIA 1 -> MTIA 2i is recovered
as a sanity anchor.

(Unrelated to :class:`repro.core.codesign.Mtia2iSystem`, the
narrative walkthrough facade of the *existing* chip; this package
searches for the next one.)

CLI: ``python -m repro codesign [--smoke]``.
"""

from repro.codesign.objectives import CandidateEval, CodesignObjective
from repro.codesign.pareto import (
    dominates,
    front_ranks,
    pareto_front,
    select_by_rank,
)
from repro.codesign.proposal import (
    front_table,
    proposal_summary,
    result_scalars,
)
from repro.codesign.search import SearchConfig, run_codesign_search
from repro.codesign.space import DesignSpace, default_space, derive_chip, smoke_space

__all__ = [
    "CandidateEval",
    "CodesignObjective",
    "DesignSpace",
    "SearchConfig",
    "default_space",
    "derive_chip",
    "dominates",
    "front_ranks",
    "front_table",
    "pareto_front",
    "proposal_summary",
    "result_scalars",
    "run_codesign_search",
    "select_by_rank",
    "smoke_space",
]
