"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``specs``      — print a chip's architecture summary (Figures 1-2 view)
* ``evaluate``   — run a zoo model through the full MTIA-vs-GPU pipeline
* ``llm``        — LLM prefill/decode feasibility (sections 3.6/8)
* ``casestudy``  — replay the Figure 4 optimization journey
* ``trace``      — execute a zoo model and write a Chrome trace JSON
* ``resilience`` — run the section 5.5 fleet-resilience drill
* ``cluster``    — run the multi-host serving-tier simulator: routing
  policy comparison, shard-locality probe, capacity sweep, and the
  autoscaled diurnal day
* ``sdc``        — run the silent-data-corruption injection campaign
* ``chaos``      — run the correlated-fault chaos campaign: the section 5
  incident catalog (host/rack/power/partition/thermal/firmware plus the
  metastable retry storm), defenses off versus on, scored on goodput,
  time-to-recovery, SLO breach, and unavailability
* ``power``      — run the time-domain power studies: governed DVFS with
  thermal feedback, per-chip vs server-level capping, the section 5.3
  budget re-derivation, and the power-limited capacity sweep
* ``fleet``      — run the global multi-region fleet: the region-outage
  capacity study (hosts per region to serve N million users at the P99
  SLO through a full region outage), probe-driven failover with
  capacity spill versus the undefended baseline
* ``surrogate``  — train the learned performance surrogates and run the
  exact-verified searches they guide: verified kernel tuning, guided
  capacity planning, and the guided power-limited sweep
* ``codesign``   — run the automated model-chip co-design search: seeded
  annealing over the chip design space, surrogate-guided halving rungs,
  and the exact-evaluated Perf / Perf-per-TCO / Perf-per-Watt Pareto
  front with the "MTIA 3" proposal and the MTIA 1 → 2 sanity anchor
* ``bench``      — run the benchmarks, aggregate ``BENCH_results.json``,
  and fail on regressions against the previous snapshot or the pinned
  golden values
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.arch import describe_chip, describe_pe, gpu_spec, mtia1_spec, mtia2i_spec
from repro.models import figure6_models

_CHIPS = {
    "mtia2i": mtia2i_spec,
    "mtia1": mtia1_spec,
    "gpu": gpu_spec,
}

_LLMS = {
    "llama2-7b": "llama2_7b",
    "llama3-8b": "llama3_8b",
    "llama3-70b": "llama3_70b",
}

# The CI subset: fast enough for every push, still covering the headline
# claims (kernel efficiency, serving consolidation, SDC ladder, cluster
# capacity, time-domain power).
_SMOKE_BENCHMARKS = (
    "test_sec33_gemm_efficiency.py",
    "test_fig5_tbe_consolidation.py",
    "test_sec5_sdc_campaign.py",
    "test_cluster_capacity.py",
    "test_sec52_sec53_power.py",
    "test_sec5_chaos.py",
    "test_sec5_fleet.py",
    "test_sec41_surrogate.py",
    "test_sec6_codesign.py",
)


def _zoo_model(name: str):
    for model in figure6_models():
        if model.name.lower() == name.lower():
            return model
    valid = ", ".join(m.name for m in figure6_models())
    raise SystemExit(f"unknown model {name!r}; choose one of: {valid}")


def cmd_specs(args: argparse.Namespace) -> int:
    chip = _CHIPS[args.chip]()
    print(describe_chip(chip))
    print()
    print(describe_pe(chip))
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from repro.core import evaluate_model

    model = _zoo_model(args.model)
    evaluation = evaluate_model(model)
    report = evaluation.mtia_report
    print(f"{model.name}: {model.description}")
    print(f"  batch {model.batch} (GPU batch {model.gpu_batch or model.batch}), "
          f"accelerators {model.accelerators}")
    print(f"  MTIA 2i: {evaluation.mtia_chip_throughput:,.0f} samples/s/chip, "
          f"latency {report.latency_s * 1e3:.2f} ms, "
          f"sparse hit {report.sparse_hit_rate:.0%}")
    print(f"  GPU:     {evaluation.gpu_chip_throughput:,.0f} samples/s/chip")
    print(f"  replay:     Perf/TCO {evaluation.replay.perf_per_tco_ratio:.2f}x, "
          f"Perf/Watt {evaluation.replay.perf_per_watt_ratio:.2f}x")
    print(f"  production: Perf/TCO {evaluation.production_perf_per_tco:.2f}x, "
          f"Perf/Watt {evaluation.production_perf_per_watt:.2f}x "
          f"(TCO reduction {evaluation.production_tco_reduction:.0%})")
    return 0


def cmd_llm(args: argparse.Namespace) -> int:
    import repro.perf as perf

    config = getattr(perf, _LLMS[args.model])()
    chip = _CHIPS[args.chip]()
    verdict = perf.evaluate_llm(config, chip)
    print(f"{config.name} on {chip.name}:")
    print(f"  prefill TTFT: {verdict.prefill_latency_s * 1e3:.0f} ms "
          f"(requirement {perf.TTFT_REQUIREMENT_S * 1e3:.0f} ms) "
          f"-> {'pass' if verdict.prefill_meets_ttft else 'FAIL'}")
    print(f"  decode/token: {verdict.decode_latency_s * 1e3:.1f} ms "
          f"(requirement {perf.DECODE_REQUIREMENT_S * 1e3:.0f} ms) "
          f"-> {'pass' if verdict.decode_meets_latency else 'FAIL'}")
    print(f"  serving viable: {verdict.viable}")
    return 0 if verdict.viable else 1


def cmd_casestudy(args: argparse.Namespace) -> int:
    from repro.core import run_case_study

    for stage in run_case_study(include_rejected_change=not args.skip_rejected):
        print(f"m{stage.month} [{stage.variant}] {stage.label:36} "
              f"Perf/TCO {stage.perf_per_tco:5.2f}  Perf/Watt {stage.perf_per_watt:5.2f}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.perf import Executor
    from repro.perf.trace import summarize_trace, write_chrome_trace

    model = _zoo_model(args.model)
    chip = _CHIPS[args.chip]()
    report = Executor(chip).run(model.graph(), model.batch, warmup_runs=1)
    write_chrome_trace(report, args.out)
    print(summarize_trace(report))
    print(f"\nwrote {args.out} (open in Perfetto or chrome://tracing)")
    return 0


def cmd_resilience(args: argparse.Namespace) -> int:
    from repro.resilience import run_section_55_drill, write_resilience_trace
    from repro.resilience.events import EventKind

    drill = run_section_55_drill(
        devices=args.devices,
        duration_days=args.days,
        utilization=args.utilization,
        seed=args.seed,
    )
    print(drill.summary())
    if args.timeline:
        marks = drill.mitigated.events.of_kind(
            EventKind.SLO_AT_RISK,
            EventKind.ROLLOUT_TRIGGERED,
            EventKind.ROLLOUT_WAVE,
            EventKind.ROLLOUT_DONE,
            EventKind.LOAD_SHED,
        )
        print("\nmitigated-run timeline (pool events):")
        for event in marks:
            detail = " ".join(f"{k}={v:g}" for k, v in sorted(event.detail.items()))
            print(f"  day {event.time_s / 86_400.0:6.2f}  {event.kind.value:18} {detail}")
    if args.trace:
        write_resilience_trace(drill.mitigated, args.trace)
        print(f"\nwrote {args.trace} (open in Perfetto or chrome://tracing)")
    return 0


def cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import (
        POLICY_NAMES,
        autoscaled_day,
        capacity_sweep,
        default_service_model,
        locality_comparison,
        policy_comparison,
    )
    from repro.obs.tracing import TraceWriter

    service = default_service_model()
    policies = POLICY_NAMES if args.policy == "all" else (args.policy,)
    if args.smoke:
        qps_points, sweep_duration, probe_duration = [100.0], 10.0, 15.0
    else:
        qps_points = [float(q) for q in args.qps]
        sweep_duration, probe_duration = args.duration, 60.0
    print(f"service model: mean {service.mean_service_s * 1e3:.1f} ms/request, "
          f"{service.capacity_per_replica():.0f} req/s/replica, "
          f"cross-host penalty {service.cross_host_penalty:.2f}x")

    print("\n1) routing policies on identical traffic "
          f"({args.replicas} replicas at {args.utilization:.0%} utilization)")
    reports = policy_comparison(
        service, replicas=args.replicas,
        target_utilization=args.utilization,
        policies=policies, duration_s=probe_duration, seed=args.seed,
    )
    for name, report in reports.items():
        print(f"   {name:12} p50 {report.p50_latency_s * 1e3:6.1f} ms  "
              f"p99 {report.p99_latency_s * 1e3:6.1f} ms  "
              f"util {report.utilization:.0%}  "
              f"shed {report.shed_fraction:.2%}")

    print("\n2) shard locality: queue-blind JSQ vs locality-aware routing")
    locality_reports = locality_comparison(
        service, replicas=args.replicas, duration_s=probe_duration,
        seed=args.seed,
    )
    for name, report in locality_reports.items():
        print(f"   {name:12} cross-host {report.cross_host_fraction:6.1%}  "
              f"p99 {report.p99_latency_s * 1e3:6.1f} ms")

    print(f"\n3) capacity sweep (seed {args.seed})")
    sweep = capacity_sweep(
        service, qps_points, policies=policies,
        p99_slo_s=args.slo_ms / 1e3, duration_s=sweep_duration,
        seed=args.seed,
    )
    for line in sweep.table().splitlines():
        print(f"   {line}")

    print("\n4) autoscaled diurnal day (compressed)")
    tracer = TraceWriter("repro.cluster") if args.trace else None
    day_length = 900.0 if args.smoke else 3600.0
    report, model = autoscaled_day(
        service,
        day_length_s=day_length,
        policy=args.policy if args.policy != "all" else "po2",
        fault_rate_per_replica_hour=args.fault_rate,
        seed=args.seed,
        tracer=tracer,
    )
    print(f"   traffic: mean {model.mean_rate_per_s:.0f} req/s, "
          f"peak {model.peak_rate_per_s:.0f} req/s over {day_length:.0f} s")
    for line in report.summary().splitlines():
        print(f"   {line}")
    if args.trace:
        tracer.write(args.trace)
        print(f"\nwrote {args.trace} (open in Perfetto or chrome://tracing)")
    return 0


def cmd_sdc(args: argparse.Namespace) -> int:
    from repro.sdc import (
        CampaignConfig,
        run_campaign,
        sdc_fault_rates,
        triple_flip_escape_rate,
    )

    trials, requests = (args.trials, args.requests)
    if args.smoke:
        trials, requests = 60, 2000
    config = CampaignConfig(trials=trials, requests=requests, seed=args.seed)
    result = run_campaign(config)
    print(f"SDC injection campaign: {trials} trials x {requests} requests "
          f"(seed {args.seed})")
    print(f"  clean quantized-path NE: {result.clean_ne:.4f} "
          f"(impact threshold |dNE| > {config.ne_threshold:g})")
    sites = ", ".join(f"{site.value}={count}"
                      for site, count in result.site_counts.items() if count)
    print(f"  corruption sites: {sites}")
    print(f"  SEC-DED 3-bit silent-escape rate: "
          f"{triple_flip_escape_rate(samples=200, seed=args.seed):.0%}")
    print()
    print(result.table())
    print()
    for summary in result.profiles:
        if summary.detector_counts:
            caught = ", ".join(f"{name}={count}" for name, count in
                               sorted(summary.detector_counts.items()))
            print(f"  {summary.profile.name:<10} caught by: {caught}")
    ratio = result.undetected_impacting_ratio()
    print(f"\n  undetected NE-impacting corruptions, none vs ecc+abft: "
          f"{ratio if ratio != float('inf') else 'inf'}x fewer")
    rates = sdc_fault_rates(result.summary_for("full"),
                            screening=config.screening)
    print(f"  resilience-simulator linkage (full profile): "
          f"sdc rate {rates.sdc_per_device_hour:.2e}/device-hour, "
          f"blast window {rates.sdc_blast_window_s:.1f} s")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import (
        CampaignConfig,
        run_campaign,
        scenario_by_name,
        smoke_config,
        standard_catalog,
    )
    from repro.obs.tracing import TraceWriter

    import dataclasses

    if args.smoke:
        config = dataclasses.replace(smoke_config(), seed=args.seed)
    else:
        config = CampaignConfig(seed=args.seed)
    if args.scenario == "all":
        scenarios = standard_catalog()
    else:
        scenarios = (scenario_by_name(args.scenario),)
    tracer = TraceWriter("repro.chaos") if args.trace else None
    result = run_campaign(
        config, scenarios=scenarios, tracer=tracer,
        price_quality=args.price_quality,
    )
    print(result.summary())
    if args.trace:
        tracer.write(args.trace)
        print(f"\nwrote {args.trace} (open in Perfetto or chrome://tracing)")
    if args.scenario in ("all", "retry_storm"):
        storm_off, storm_on = result.headline
        return 0 if (not storm_off.recovered and storm_on.recovered) else 1
    return 0


def cmd_power(args: argparse.Namespace) -> int:
    from repro.cluster import default_service_model
    from repro.power import (
        calibrate_throughput,
        capping_study,
        mtia2i_thermal,
        overclock_with_thermal_feedback,
        power_limited_capacity_sweep,
        time_domain_provisioning,
    )
    from repro.reliability import DESIGN_FREQUENCY_HZ

    if args.smoke:
        num_chips, dvfs_duration = 12, 300.0
        cap_duration, prov_servers, prov_duration = 200.0, 12, 200.0
        budgets, sweep_replicas, sweep_duration = (1200.0, 2000.0, 2600.0), 8, 6.0
    else:
        num_chips, dvfs_duration = 24, args.duration
        cap_duration, prov_servers, prov_duration = args.duration, 40, args.duration
        budgets = (1200.0, 1400.0, 1700.0, 2000.0, 2300.0, 2600.0)
        sweep_replicas, sweep_duration = 24, 20.0

    network = mtia2i_thermal()
    print(f"thermal stack: {network.total_resistance_c_per_w:.2f} C/W "
          f"junction-to-ambient, ambient {network.ambient_c:.0f} C")

    print(f"\n1) governed DVFS ({num_chips} chips, {dvfs_duration:.0f} s, "
          f"seed {args.seed})")
    model = _zoo_model(args.model)
    curve = calibrate_throughput(model)
    top = curve.frequencies_hz[-1]
    print(f"   {model.name} throughput curve: {top / 1e9:.2f} GHz -> "
          f"{curve.relative(top):.3f}x of design "
          f"(clock ratio {top / DESIGN_FREQUENCY_HZ:.3f}x)")
    dvfs = overclock_with_thermal_feedback(
        curve, num_chips=num_chips, duration_s=dvfs_duration, seed=args.seed
    )
    print(f"   fleet gain over the 1.10 GHz design point: "
          f"mean {dvfs.mean_gain:+.1%} (min {dvfs.min_gain:+.1%}, "
          f"max {dvfs.max_gain:+.1%}); paper band 5-20%")
    print(f"   mean frequency {dvfs.mean_frequency_hz / 1e9:.3f} GHz, "
          f"peak junction {dvfs.peak_junction_c:.1f} C, "
          f"{dvfs.thermal_throttles} thermal / {dvfs.cap_throttles} cap "
          f"throttle events")

    print(f"\n2) power capping at equal budget ({cap_duration:.0f} s)")
    capping = capping_study(duration_s=cap_duration, seed=args.seed)
    print(f"   accelerator budget {capping.budget_w:.0f} W")
    for outcome in (capping.per_chip, capping.server_level):
        print(f"   {outcome.policy:12} p99 deficit {outcome.p99_deficit:6.2%}  "
              f"delivered {outcome.delivered_fraction:.2%}  "
              f"cap violations {outcome.cap_violation_fraction:.1%}")

    print(f"\n3) budget re-derivation ({prov_servers} servers, "
          f"{prov_duration:.0f} s of telemetry)")
    provisioning = time_domain_provisioning(
        num_servers=prov_servers, duration_s=prov_duration, seed=args.seed
    )
    print(f"   stress-test budget {provisioning.initial_budget_w:7.0f} W/server")
    print(f"   experiment P90     {provisioning.experiment_budget_w:7.0f} W")
    print(f"   fleet P90-of-P90   {provisioning.fleet_budget_w:7.0f} W")
    print(f"   revised budget     {provisioning.revised_budget_w:7.0f} W "
          f"({provisioning.reduction_fraction:.0%} reduction; paper ~40%)")

    print(f"\n4) power-limited capacity ({sweep_replicas} replicas, "
          f"P99 SLO, {sweep_duration:.0f} s per point)")
    sweep = power_limited_capacity_sweep(
        default_service_model(),
        server_budgets_w=budgets,
        replicas=sweep_replicas,
        duration_s=sweep_duration,
        seed=args.seed,
    )
    for line in sweep.table().splitlines():
        print(f"   {line}")
    print(f"   knee at {sweep.knee_budget_w:.0f} W: watts past the full "
          "ladder buy no QPS")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    from repro.fleet_global import (
        region_outage_drill,
        run_capacity_study,
        run_fleet,
        standard_fleet,
    )
    from repro.fleet_global.capacity import smoke_study

    if args.smoke:
        study = smoke_study()
    else:
        study = run_capacity_study(
            users_millions=args.users,
            sizes=tuple(args.sizes),
            seed=args.seed,
        )
    print(study.summary())

    if args.detail and study.defended_replicas is not None:
        print(f"\nregion detail at {study.defended_replicas} replicas/region:")
        fleet = standard_fleet(
            replicas_per_region=study.defended_replicas,
            users_millions=study.users_millions,
            seed=args.seed,
        )
        drill = region_outage_drill(fleet)
        for defended in (False, True):
            print()
            print(run_fleet(fleet, drill, defended=defended).summary())

    # The headline contract: failover is what survives the outage —
    # the defended arm holds at some size, the undefended arm at none.
    healthy = (
        study.defended_replicas is not None
        and study.undefended_replicas is None
    )
    return 0 if healthy else 1


_SURROGATE_QUERY_SHAPES = (
    (700, 1700, 800),
    (3000, 600, 2000),
    (512, 26592, 2048),
    (150, 300, 150),
    (4096, 2048, 1024),
)


def cmd_surrogate(args: argparse.Namespace) -> int:
    import time

    from repro.autotune import exhaustive_tune, measure_variant, surrogate_tune
    from repro.kernels.gemm import default_variants
    from repro.obs.metrics import MetricsRegistry
    from repro.surrogate import train_gemm_surrogate
    from repro.tensors.tensor import GemmShape

    chip = mtia2i_spec()
    samples = 1500 if args.smoke else args.samples
    print(f"training GEMM surrogate: {samples} sampled (shape, variant) "
          f"points, seed {args.seed}")
    started = time.perf_counter()
    surrogate, reports = train_gemm_surrogate(
        chip, n_samples=samples, seed=args.seed,
        include_energy=not args.smoke,
    )
    train_s = time.perf_counter() - started
    print(f"{'target':>8}  {'rows':>6}  {'MAPE':>7}  {'P95 rel':>8}  "
          f"{'max rel':>8}")
    for target, report in sorted(reports.items()):
        print(f"{target:>8}  {report.n_train + report.n_holdout:6d}  "
              f"{report.mape_holdout:7.2%}  "
              f"{report.p95_rel_error_holdout:8.2%}  "
              f"{report.max_rel_error_holdout:8.2%}")
    print(f"trained in {train_s:.2f} s")

    variants = default_variants()
    registry = MetricsRegistry()
    print(f"\nverified tuning, {len(variants)} variants, "
          f"top-{args.top_k} exact re-measure:")
    matches = 0
    for mkn in _SURROGATE_QUERY_SHAPES:
        shape = GemmShape(*mkn)
        gold = exhaustive_tune(shape, chip, variants=variants)
        result = surrogate_tune(
            shape, chip, surrogate, variants=variants,
            top_k=args.top_k, registry=registry,
        )
        match = abs(result.kernel_time_s - gold.kernel_time_s) <= (
            1e-12 * gold.kernel_time_s
        )
        matches += match
        print(f"  {str(mkn):>20}  exact {gold.kernel_time_s * 1e6:8.2f} us  "
              f"verified {result.kernel_time_s * 1e6:8.2f} us  "
              f"{'match' if match else 'MISS'}  "
              f"({result.evaluations} vs {gold.evaluations} exact evals)")
    print(f"argmin recovered on {matches}/{len(_SURROGATE_QUERY_SHAPES)} "
          f"query shapes; {len(variants) / args.top_k:.0f}x fewer exact "
          f"evaluations per shape")

    if not args.smoke:
        shapes = [GemmShape(*mkn) for mkn in _SURROGATE_QUERY_SHAPES]
        started = time.perf_counter()
        for shape in shapes:
            for variant in variants:
                measure_variant(shape, variant, chip)
        exact_s = time.perf_counter() - started
        mkns = [(s.m, s.k, s.n) for s in shapes]
        surrogate.predict_time_grid(mkns, variants)  # warm variant cache
        fast_s = float("inf")
        for _ in range(5):
            started = time.perf_counter()
            surrogate.predict_time_grid(mkns, variants)
            fast_s = min(fast_s, time.perf_counter() - started)
        points = len(shapes) * len(variants)
        print(f"\nper-point cost over the {points}-point sweep: exact "
              f"{exact_s / points * 1e6:.2f} us, surrogate "
              f"{fast_s / points * 1e9:.1f} ns "
              f"({exact_s / fast_s:.0f}x)")

    if args.sweep:
        from repro.cluster import default_service_model
        from repro.cluster.capacity import replicas_needed
        from repro.power.cluster_link import power_limited_capacity_sweep
        from repro.surrogate import (
            train_capacity_surrogate,
            train_power_surrogate,
        )

        service = default_service_model()
        print("\nguided capacity planning (po2, exact answers, fewer "
              "simulations):")
        cap_surrogate, cap_report = train_capacity_surrogate(
            service, qps_points=(300.0, 700.0, 1400.0),
            policies=("round_robin", "po2"), duration_s=8.0,
            max_replicas=48, seed=args.seed,
        )
        print(f"  trained on seeded exact probes, "
              f"MAPE {cap_report.mape_train:.2%}")
        for qps in (500.0, 1100.0):
            registry = MetricsRegistry()
            guided = replicas_needed(
                "po2", qps, service, duration_s=8.0, max_replicas=48,
                seed=args.seed, surrogate=cap_surrogate, registry=registry,
            )
            exact = replicas_needed(
                "po2", qps, service, duration_s=8.0, max_replicas=48,
                seed=args.seed,
            )
            counters = registry.snapshot()["counters"]
            print(f"  {qps:7.0f} qps -> {guided.replicas} replicas "
                  f"({'identical' if guided == exact else 'DIFFERENT'}); "
                  f"{counters['surrogate.capacity.exact_runs']} vs "
                  f"{counters['surrogate.capacity.linear_scan_runs']} "
                  f"cluster simulations")

        print("\nguided power-limited capacity sweep:")
        power_surrogate, power_report = train_power_surrogate(
            service, probe_budgets_w=(1100.0, 1800.0, 2600.0),
            replicas=8, duration_s=10.0, seed=args.seed,
        )
        budgets = (1200.0, 1400.0, 1600.0, 2000.0, 2400.0)
        registry = MetricsRegistry()
        guided_sweep = power_limited_capacity_sweep(
            service, budgets, replicas=8, duration_s=10.0, seed=args.seed,
            surrogate=power_surrogate, registry=registry,
        )
        exact_sweep = power_limited_capacity_sweep(
            service, budgets, replicas=8, duration_s=10.0, seed=args.seed,
        )
        counters = registry.snapshot()["counters"]
        print(f"  {'identical points' if guided_sweep == exact_sweep else 'DIFFERENT POINTS'}; "
              f"{counters['surrogate.power.exact_runs']} vs "
              f"{counters['surrogate.power.linear_scan_runs']} cluster "
              f"simulations across {len(budgets)} budgets")
        for line in guided_sweep.table().splitlines():
            print(f"  {line}")
    return 0


def cmd_codesign(args: argparse.Namespace) -> int:
    from repro.codesign import (
        SearchConfig,
        default_space,
        front_table,
        proposal_summary,
        run_codesign_search,
        smoke_space,
    )
    from repro.obs.metrics import MetricsRegistry

    if args.smoke:
        space = smoke_space()
        models = [m for m in figure6_models()
                  if m.name in ("LC1", "LC3", "HC1")]
        config = SearchConfig(
            seed=args.seed, iterations=40, device_rung_keep=10,
            serving_rung_keep=5, train_chips=10,
        )
        duration = 4.0
    else:
        space = default_space()
        models = None  # the full Table 1 / Figure 6 zoo
        config = SearchConfig(seed=args.seed)
        duration = 6.0

    registry = MetricsRegistry()
    print(f"co-design search: {space.size()} grid points, "
          f"{len(config.chain_weights)} annealing chains x "
          f"{config.iterations} iterations, seed {config.seed}")
    result = run_codesign_search(
        space, models, config, duration_s=duration, registry=registry,
    )
    report = result.train_report
    counters = registry.snapshot()["counters"]
    print(f"executor surrogate: holdout MAPE {report.mape_holdout:.1%} "
          f"({report.n_train} train / {report.n_holdout} holdout rows)")
    print(f"evaluations: "
          f"{counters.get('codesign.evals.surrogate', 0)} surrogate, "
          f"{counters.get('codesign.evals.device', 0)} device, "
          f"{counters.get('codesign.evals.serving', 0)} serving")
    print()
    print(front_table(result))
    print()
    print(proposal_summary(result))
    if args.smoke:
        rerun = run_codesign_search(
            space, models, config, duration_s=duration,
        )
        identical = rerun == result
        print(f"\nseeded rerun bit-for-bit identical: {identical}")
        if not (identical and result.all_front_exact
                and result.mtia2_dominates_mtia1):
            return 1
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import os
    import pathlib
    import subprocess
    import time

    from repro.obs.bench import (
        aggregate,
        diff_results,
        dump_json,
        golden_violations,
        load_results,
        runtime_comparison,
        runtime_regressions,
        write_results,
    )

    bench_dir = pathlib.Path(args.dir)
    if not bench_dir.is_dir():
        raise SystemExit(f"benchmark directory {bench_dir} not found "
                         "(run from the repository root or pass --dir)")
    if args.smoke:
        files = [bench_dir / name for name in _SMOKE_BENCHMARKS]
    else:
        files = sorted(bench_dir.glob("test_*.py"))
    missing = [f.name for f in files if not f.is_file()]
    if missing:
        raise SystemExit("missing benchmark files: " + ", ".join(missing))
    names = [f.stem[len("test_"):] for f in files]

    runtimes = {}
    if not args.no_run:
        env = dict(os.environ)
        src_dir = str(pathlib.Path(__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src_dir, env.get("PYTHONPATH")) if p
        )
        # Benchmarks need exactly one pytest plugin (pytest-benchmark,
        # for the ``benchmark`` fixture).  Autoloading the rest of the
        # installed plugin set (hypothesis et al.) costs ~2 s of fixed
        # startup per file — pure noise in ``runtime_s``, which times
        # the whole subprocess.
        env["PYTEST_DISABLE_PLUGIN_AUTOLOAD"] = "1"
        for file, name in zip(files, names):
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", str(file), "-q",
                 "-p", "pytest_benchmark.plugin", "-p", "no:cacheprovider"],
                env=env,
            )
            runtimes[name] = time.perf_counter() - started
            if proc.returncode != 0:
                raise SystemExit(
                    f"benchmark {file.name} failed (exit {proc.returncode})"
                )
            print(f"[bench] {name}: {runtimes[name]:.1f} s")

    results = aggregate(bench_dir / "out", runtimes)
    selected = set(names)
    results["benchmarks"] = {
        name: entry for name, entry in results["benchmarks"].items()
        if name in selected
    }
    recorded = sorted(results["benchmarks"])
    if not recorded:
        raise SystemExit(f"no scalar artifacts under {bench_dir / 'out'} "
                         "(did the benchmarks run?)")
    print(f"[bench] aggregated {len(recorded)} benchmarks: "
          + ", ".join(recorded))

    failed = False
    baseline = load_results(args.baseline)
    if baseline is None:
        print(f"[bench] no baseline at {args.baseline}; skipping diff")
    else:
        diff = diff_results(baseline, results, rel_tol=args.rel_tol)
        print(f"[bench] diff vs {args.baseline}:")
        for line in diff.report().splitlines():
            print(f"  {line}")
        failed = failed or not diff.clean
        if runtimes:
            comparison = runtime_comparison(baseline, results)
            artifact = bench_dir / "out" / "runtime_comparison.json"
            artifact.write_text(dump_json(comparison))
            print(f"[bench] runtime comparison -> {artifact}")
            for name, row in comparison.items():
                print(
                    f"[bench]   {name}: {row['baseline_s']:.2f} s -> "
                    f"{row['current_s']:.2f} s "
                    f"({row['speedup']:.2f}x speedup)"
                )
            for slow in runtime_regressions(baseline, results):
                print(f"[bench] RUNTIME REGRESSION {slow}")
                failed = True

    violations = golden_violations(results)
    for violation in violations:
        print(f"[bench] GOLDEN VIOLATION {violation}")
    failed = failed or bool(violations)

    write_results(results, args.out)
    print(f"[bench] wrote {args.out}")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MTIA 2i performance-model reproduction (ISCA 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    specs = sub.add_parser("specs", help="print a chip's architecture summary")
    specs.add_argument("--chip", choices=sorted(_CHIPS), default="mtia2i")
    specs.set_defaults(func=cmd_specs)

    evaluate = sub.add_parser("evaluate", help="evaluate a Figure 6 model")
    evaluate.add_argument("--model", default="LC1")
    evaluate.set_defaults(func=cmd_evaluate)

    llm = sub.add_parser("llm", help="LLM serving feasibility")
    llm.add_argument("--model", choices=sorted(_LLMS), default="llama2-7b")
    llm.add_argument("--chip", choices=sorted(_CHIPS), default="mtia2i")
    llm.set_defaults(func=cmd_llm)

    casestudy = sub.add_parser("casestudy", help="replay the Figure 4 journey")
    casestudy.add_argument("--skip-rejected", action="store_true")
    casestudy.set_defaults(func=cmd_casestudy)

    trace = sub.add_parser("trace", help="write a Chrome trace for a model")
    trace.add_argument("--model", default="LC1")
    trace.add_argument("--chip", choices=sorted(_CHIPS), default="mtia2i")
    trace.add_argument("--out", default="trace.json")
    trace.set_defaults(func=cmd_trace)

    resilience = sub.add_parser(
        "resilience", help="run the section 5.5 fleet-resilience drill"
    )
    resilience.add_argument("--devices", type=int, default=300)
    resilience.add_argument("--days", type=float, default=90.0)
    resilience.add_argument("--utilization", type=float, default=0.85)
    resilience.add_argument("--seed", type=int, default=0)
    resilience.add_argument("--timeline", action="store_true",
                            help="print the mitigated run's pool events")
    resilience.add_argument("--trace", default=None, metavar="PATH",
                            help="write the mitigated run as a Chrome trace")
    resilience.set_defaults(func=cmd_resilience)

    cluster = sub.add_parser(
        "cluster", help="run the multi-host serving-tier simulator"
    )
    cluster.add_argument("--policy",
                         choices=["all", "round_robin", "jsq", "po2", "locality"],
                         default="all")
    cluster.add_argument("--qps", type=float, nargs="+",
                         default=[100.0, 200.0, 300.0],
                         help="offered-QPS points for the capacity sweep")
    cluster.add_argument("--replicas", type=int, default=12,
                         help="replica count for the policy comparison")
    cluster.add_argument("--utilization", type=float, default=0.85,
                         help="target utilization for the policy comparison")
    cluster.add_argument("--duration", type=float, default=40.0,
                         help="simulated seconds per capacity-sweep cell")
    cluster.add_argument("--slo-ms", type=float, default=100.0,
                         help="P99 latency SLO for the capacity sweep")
    cluster.add_argument("--fault-rate", type=float, default=0.0,
                         help="replica faults per replica-hour in the day run")
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--smoke", action="store_true",
                         help="small fixed-size run for CI")
    cluster.add_argument("--trace", default=None, metavar="PATH",
                         help="write the autoscaled day as a Chrome trace")
    cluster.set_defaults(func=cmd_cluster)

    sdc = sub.add_parser(
        "sdc", help="run the silent-data-corruption injection campaign"
    )
    sdc.add_argument("--trials", type=int, default=400)
    sdc.add_argument("--requests", type=int, default=8000)
    sdc.add_argument("--seed", type=int, default=0)
    sdc.add_argument("--smoke", action="store_true",
                     help="small fixed-size campaign (60 trials) for CI")
    sdc.set_defaults(func=cmd_sdc)

    chaos = sub.add_parser(
        "chaos", help="run the correlated-fault chaos campaign"
    )
    chaos.add_argument("--scenario", default="all",
                       help="one scenario name, or 'all' for the catalog")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--smoke", action="store_true",
                       help="small fixed-size campaign for CI")
    chaos.add_argument("--price-quality", action="store_true",
                       help="measure brownout NE damage through the A/B harness")
    chaos.add_argument("--trace", default=None, metavar="PATH",
                       help="write defended runs as a Chrome trace")
    chaos.set_defaults(func=cmd_chaos)

    power = sub.add_parser(
        "power", help="run the time-domain power / thermal / DVFS studies"
    )
    power.add_argument("--model", default="LC1",
                       help="zoo model for the throughput-vs-frequency curve")
    power.add_argument("--duration", type=float, default=600.0,
                       help="simulated seconds per study")
    power.add_argument("--seed", type=int, default=0)
    power.add_argument("--smoke", action="store_true",
                       help="small fixed-size studies for CI")
    power.set_defaults(func=cmd_power)

    fleet = sub.add_parser(
        "fleet", help="run the global multi-region capacity study"
    )
    fleet.add_argument("--users", type=float, default=4.0,
                       help="global user base in millions, quoted at peak")
    fleet.add_argument("--sizes", type=int, nargs="+",
                       default=[3, 4, 5, 6, 8],
                       help="replicas-per-region candidates to sweep")
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--smoke", action="store_true",
                       help="small fixed-size study for CI")
    fleet.add_argument("--detail", action="store_true",
                       help="print per-region detail at the verdict size")
    fleet.set_defaults(func=cmd_fleet)

    surrogate = sub.add_parser(
        "surrogate",
        help="train the learned performance surrogates and run "
             "exact-verified tuning/capacity/power searches",
    )
    surrogate.add_argument("--smoke", action="store_true",
                           help="small fixed-size training run for CI")
    surrogate.add_argument("--train", action="store_true",
                           help="full training run with error bands and "
                                "the exact-vs-surrogate speedup probe")
    surrogate.add_argument("--sweep", action="store_true",
                           help="also run the guided capacity and power "
                                "sweeps against their exact baselines")
    surrogate.add_argument("--samples", type=int, default=6000,
                           help="training rows for the GEMM surrogate")
    surrogate.add_argument("--top-k", type=int, default=16,
                           help="exact re-measurements per verified tune")
    surrogate.add_argument("--seed", type=int, default=0)
    surrogate.set_defaults(func=cmd_surrogate)

    codesign = sub.add_parser(
        "codesign",
        help="run the model-chip co-design search and emit the "
             "Perf/TCO/Perf-per-Watt Pareto front",
    )
    codesign.add_argument("--smoke", action="store_true",
                          help="small fixed-size search for CI (includes "
                               "a seeded-rerun determinism probe)")
    codesign.add_argument("--seed", type=int, default=0)
    codesign.set_defaults(func=cmd_codesign)

    bench = sub.add_parser(
        "bench",
        help="run benchmarks, aggregate BENCH_results.json, flag regressions",
    )
    bench.add_argument("--smoke", action="store_true",
                       help="run only the fast CI subset")
    bench.add_argument("--dir", default="benchmarks",
                       help="benchmark directory (default: benchmarks)")
    bench.add_argument("--out", default="BENCH_results.json",
                       help="aggregated results path")
    bench.add_argument("--baseline", default="BENCH_results.json",
                       help="previous snapshot to diff against")
    bench.add_argument("--rel-tol", type=float, default=0.05,
                       help="relative tolerance for the snapshot diff")
    bench.add_argument("--no-run", action="store_true",
                       help="aggregate existing out/*.json without running")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
