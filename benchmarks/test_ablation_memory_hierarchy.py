"""Ablation: MTIA 2i's memory-hierarchy design choices (section 3.6).

The paper's central bet is a large SRAM + LPDDR instead of HBM.  This
ablation re-runs the performance model with the design knobs moved:

* **SRAM capacity sweep** (128 / 256 / 512 MB): the deployed 256 MB is
  past the knee for LC models, while HC models would still gain — the
  'increase peak FLOPS [and SRAM] for future generations' direction of
  section 8.
* **Counterfactual HBM** (2 TB/s off-chip): HC models speed up strongly
  and Llama decode becomes viable — quantifying exactly what the
  LPDDR cost saving gives up, as section 3.6/8 discuss.
"""

import dataclasses

from conftest import once

from repro.arch.mtia import mtia2i_spec
from repro.arch.specs import MemoryLevelSpec
from repro.models import hc3, lc1
from repro.perf import Executor, evaluate_llm, llama2_7b
from repro.units import MiB, TB


def _with_sram(chip, capacity_bytes):
    sram = dataclasses.replace(chip.sram, capacity_bytes=capacity_bytes)
    return dataclasses.replace(chip, sram=sram)


def _with_hbm(chip):
    hbm = MemoryLevelSpec(
        name="hbm_counterfactual",
        capacity_bytes=chip.dram.capacity_bytes,
        bandwidth_bytes_per_s=2 * TB,
        access_latency_s=400e-9,
    )
    return dataclasses.replace(chip, dram=hbm)


def _measure():
    base = mtia2i_spec()
    results = {"sram": {}, "hbm": {}}
    for capacity in (128 * MiB, 256 * MiB, 512 * MiB):
        row = {}
        for model in (lc1(), hc3()):
            chip = _with_sram(base, capacity)
            report = Executor(chip).run(model.graph(), model.batch, warmup_runs=1)
            row[model.name] = report.throughput_samples_per_s
        results["sram"][capacity] = row
    for model in (lc1(), hc3()):
        lpddr = Executor(base).run(model.graph(), model.batch, warmup_runs=1)
        hbm = Executor(_with_hbm(base)).run(model.graph(), model.batch, warmup_runs=1)
        results["hbm"][model.name] = (
            lpddr.throughput_samples_per_s,
            hbm.throughput_samples_per_s,
        )
    results["llm_lpddr"] = evaluate_llm(llama2_7b(), base)
    results["llm_hbm"] = evaluate_llm(llama2_7b(), _with_hbm(base))
    return results


def test_ablation_memory_hierarchy(benchmark, record):
    results = once(benchmark, _measure)
    lines = ["SRAM capacity sweep (per-chip samples/s):",
             f"{'SRAM':>8} {'LC1':>12} {'HC3':>12}"]
    for capacity, row in sorted(results["sram"].items()):
        lines.append(
            f"{capacity // (1 << 20):>6}MB {row['LC1']:12,.0f} {row['HC3']:12,.0f}"
        )
    lines.append("\nLPDDR vs counterfactual HBM (2 TB/s):")
    for name, (lpddr, hbm) in results["hbm"].items():
        lines.append(
            f"  {name}: {lpddr:,.0f} -> {hbm:,.0f} samples/s ({hbm / lpddr:.2f}x)"
        )
    llm_l, llm_h = results["llm_lpddr"], results["llm_hbm"]
    lines.append(
        f"\nLlama2-7B decode: LPDDR {llm_l.decode_latency_s * 1e3:.0f} ms "
        f"(viable: {llm_l.viable}) vs HBM {llm_h.decode_latency_s * 1e3:.0f} ms "
        f"(viable: {llm_h.viable})"
    )

    sram = results["sram"]
    # LC1 fits at every size — the sweep barely moves it.
    lc_gain = sram[512 * (1 << 20)]["LC1"] / sram[128 * (1 << 20)]["LC1"]
    assert lc_gain < 1.5
    # HC3 keeps gaining with SRAM — its weights do not fit.
    hc_gain = sram[512 * (1 << 20)]["HC3"] / sram[128 * (1 << 20)]["HC3"]
    assert hc_gain > lc_gain
    assert sram[512 * (1 << 20)]["HC3"] >= sram[256 * (1 << 20)]["HC3"] * 0.99
    # HBM rescues HC3 far more than LC1, and makes decode viable.
    lc_hbm = results["hbm"]["LC1"][1] / results["hbm"]["LC1"][0]
    hc_hbm = results["hbm"]["HC3"][1] / results["hbm"]["HC3"][0]
    assert hc_hbm > lc_hbm
    assert hc_hbm > 1.5
    assert not llm_l.decode_meets_latency and llm_h.decode_meets_latency
    record("ablation_memory_hierarchy", "\n".join(lines))
