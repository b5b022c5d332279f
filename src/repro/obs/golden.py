"""Pinned golden values for the reproduction's headline claims.

Every entry pins one benchmark scalar as ``(value, rel_tol)``: the
value a seeded run of this repository produces today, and the relative
tolerance inside which future runs must stay.  ``python -m repro bench``
checks any benchmark it aggregates against this table, and the tier-1
golden tests (``tests/test_golden_values.py``) pin the same claims
directly, so a refactor cannot silently drift them.

Tolerances are deliberately explicit per scalar: count-derived ratios
(e.g. the SDC 57x undetected-reduction) are exact under a fixed seed but
get a generous band so a one-count shift across numpy versions reads as
drift, not noise; simulator-derived latencies get a few percent.
"""

from __future__ import annotations

from typing import Dict, Tuple

# benchmark name -> scalar key -> (pinned value, relative tolerance).
GOLDEN_SCALARS: Dict[str, Dict[str, Tuple[float, float]]] = {
    "sec5_sdc_campaign": {
        # Paper section 5: the protection ladder's headline — ECC+ABFT
        # leaves 57x fewer undetected NE-impacting corruptions than no
        # protection, and the full profile leaves none.
        "undetected_impacting_ratio": (57.0, 0.10),
        "clean_ne": (0.6373322319208822, 1e-6),
        "full_coverage": (1.0, 1e-9),
        "triple_flip_escape_rate": (1.0, 0.05),
    },
    "sec5_chaos": {
        # Paper section 5.5: the retry-storm headline.  Undefended, the
        # storm is metastable — post-clear goodput stays collapsed
        # (<0.2%, generous band on a tiny ratio) and the tier never
        # recovers (ttr -1.0 encodes 'never').  Defended (deadlines,
        # retry budget, backoff, breakers) the tier is back above the
        # 95% threshold in the first post-clear window.
        "retry_storm.undefended.post_clear_goodput": (
            0.0009628610729023383, 1.0
        ),
        "retry_storm.undefended.time_to_recovery_s": (-1.0, 1e-9),
        "retry_storm.undefended.unavailability": (0.7263043113571548, 0.05),
        "retry_storm.defended.post_clear_goodput": (0.9973865199449794, 0.01),
        "retry_storm.defended.time_to_recovery_s": (0.0, 1e-9),
        "retry_storm.defended.unavailability": (0.12044958899513503, 0.10),
        # Section 5.3: a power-domain trip with the brownout ladder
        # armed degrades quality instead of availability — unavailability
        # drops ~25x versus the undefended trip.
        "power_trip.undefended.unavailability": (0.12145613152155676, 0.10),
        "power_trip.defended.unavailability": (0.004781077000503231, 0.25),
    },
    "sec33_gemm_efficiency": {
        # Paper section 3.3: >92% of peak for 2K GEMMs with the new
        # instructions; the naive variant sits far below.
        "tuned_eff_2048": (0.9697106440677966, 0.01),
        "naive_eff_2048": (0.3998806779661017, 0.02),
    },
    "sec41_autotune": {
        # Paper section 4.1: ANN tuning ~1000x cheaper at equal kernel
        # quality; coalescing reaches near-full batches (our measured
        # fill — the paper's '>95% requests per batch' claim label).
        "evaluation_speedup": (1152.0, 0.05),
        "mean_quality_gap": (0.0, 1.0),
        "best_fill_fraction": (0.8869534201826197, 0.02),
    },
    "sec6_codesign": {
        # The co-design DSE acceptance shapes: every front point exact,
        # the MTIA 1 -> 2 generational step recovered as the sanity
        # anchor, and the surrogate rung scoring ~5x more candidates
        # than the exact rungs pay for.  Counts and booleans are pinned
        # tight (the search is bit-for-bit seeded); the anchor and
        # proposal objectives get a small band for float drift across
        # BLAS builds.
        "front_size": (5.0, 1e-9),
        "all_front_exact": (1.0, 1e-9),
        "mtia2_dominates_mtia1": (1.0, 1e-9),
        "candidates_scored": (93.0, 1e-9),
        "exact_evals": (17.0, 1e-9),
        "eval_reduction": (5.470588235294118, 1e-9),
        "anchor_mtia2_perf": (1052.6315789473688, 0.02),
        "anchor_mtia2_perf_per_watt": (0.6078379457643992, 0.02),
        "surrogate_mape_holdout": (0.07872610351135072, 0.5),
        "proposal_perf": (1645.5865890004357, 0.05),
        "proposal_gain_vs_mtia2": (1.5633072595504134, 0.05),
    },
    "fig5_tbe_consolidation": {
        # Paper figure 5: consolidation buys ~13 ms of P99.
        "p99_improvement_s": (0.013298990385909093, 0.05),
        "p99_separate_s": (0.1040694926401855, 0.02),
    },
    "fig4_case_study": {
        # Paper figure 4: ~0.5x -> well above parity Perf/TCO.
        "initial_perf_per_tco": (0.5835563561129902, 0.02),
        "final_perf_per_tco": (1.448328115712702, 0.02),
    },
    "cluster_capacity": {
        # Issue PR 4 acceptance shapes: power-of-two-choices beats
        # round-robin on P99 at >= 80% utilization, and locality-aware
        # routing eliminates the cross-host embedding traffic JSQ pays.
        "p99_round_robin_s": (0.1357294585487292, 0.05),
        "p99_po2_s": (0.11015150533913243, 0.05),
        "cross_host_fraction_jsq": (0.7463783329834138, 0.05),
        "cross_host_fraction_locality": (0.0, 1e-9),
        "replicas_po2_at_300qps": (9.0, 1e-9),
        "replicas_round_robin_at_300qps": (9.0, 1e-9),
    },
    "sec52_sec53_power": {
        # Paper sections 5.2-5.3 in the time domain: governed DVFS gain
        # inside the 5-20% band with real thermal throttling, per-chip
        # capping beating a server-level cap on P99 deficit at equal
        # budget, and the two-prong P90 re-derivation landing near the
        # ~40% budget reduction.  Simulator-derived, so a few percent.
        "dvfs_mean_gain": (0.07951350204552347, 0.05),
        "dvfs_mean_frequency_ghz": (1.2892604166666668, 0.02),
        "per_chip_p99_deficit": (0.019048492123659937, 0.05),
        "server_level_p99_deficit": (0.0370370370370372, 0.05),
        "provisioning_reduction_fraction": (0.42743522364557174, 0.05),
        "sweep_knee_budget_w": (2000.0, 1e-9),
        "sweep_max_qps": (421.05263157894734, 0.05),
    },
    "sec5_fleet": {
        # The global region-outage capacity study (ROADMAP item 2): 4M
        # users need 4 replicas/region on a quiet day, 5/region to hold
        # the P99 SLO through a full region outage with probe-driven
        # failover — 25% overprovision — while no swept size survives
        # undefended (-1 encodes 'none').  Verdict sizes are exact under
        # the fixed seed; simulator-derived fractions get a few percent.
        "capacity.baseline_replicas": (4.0, 1e-9),
        "capacity.defended_replicas": (5.0, 1e-9),
        "capacity.undefended_replicas": (-1.0, 1e-9),
        "capacity.overprovision_fraction": (0.25, 1e-9),
        "capacity.undefended.loss_fraction": (0.19355545813239808, 0.05),
        "capacity.defended.loss_fraction": (0.018851380973257344, 0.10),
        "capacity.defended.spill_fraction": (0.1983779044278825, 0.05),
        "capacity.undefended.p99_ms": (69.82455908090657, 0.05),
        "capacity.defended.p99_ms": (96.61823659750723, 0.05),
        "detection_lag_s": (0.8, 1e-6),
    },
    "sec36_llm_feasibility": {
        # Paper section 3.6: Llama2-7B decode misses 60 ms/token.
        "llama2_7b_mtia_decode_s": (0.08234887529411765, 0.02),
        "llama2_7b_mtia_prefill_s": (0.28058835310403013, 0.02),
    },
}
