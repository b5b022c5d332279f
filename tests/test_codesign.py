"""Tests for repro.codesign: the derived-chip constructor, the derived
cost model, the Pareto machinery, and a tiny end-to-end seeded search
(bit-for-bit deterministic, anchors ordered, every front point exact).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch import mtia2i_spec
from repro.codesign import search
from repro.codesign import (
    CandidateEval,
    CodesignObjective,
    DesignSpace,
    SearchConfig,
    derive_chip,
    dominates,
    front_ranks,
    pareto_front,
    run_codesign_search,
    select_by_rank,
)
from repro.graph import OpGraph, fc
from repro.models import figure6_models
from repro.tco.model import MTIA2I_COST, derived_cost_inputs
from repro.tensors import model_input, weight
from repro.tensors.tensor import stable_uid_scope
from repro.units import GB, GHZ, GiB, MiB

BASE = mtia2i_spec()


def _zoo(*names):
    by_name = {m.name: m for m in figure6_models()}
    return [by_name[n] for n in names]


# -- derive_chip ------------------------------------------------------


def test_derive_chip_no_overrides_is_base_object():
    assert derive_chip(BASE) is BASE


def test_derive_chip_name_only_changes_nothing_else():
    chip = derive_chip(BASE, name="renamed")
    assert chip.name == "renamed"
    assert dataclasses.replace(chip, name=BASE.name) == BASE


def test_derive_chip_rejects_degenerate_axes():
    with pytest.raises(ValueError):
        derive_chip(BASE, num_pes=0)
    with pytest.raises(ValueError):
        derive_chip(BASE, num_pes=30)  # not a square grid
    with pytest.raises(ValueError):
        derive_chip(BASE, frequency_hz=-1.0)
    with pytest.raises(ValueError):
        derive_chip(BASE, sram_capacity_bytes=0)
    with pytest.raises(ValueError):
        derive_chip(BASE, dram_bandwidth_bytes_per_s=float("nan"))
    with pytest.raises(ValueError):
        derive_chip(BASE, gemm_to_simd=0.5)  # ratio below 1
    with pytest.raises(ValueError):
        derive_chip(BASE, noc_bandwidth_bytes_per_s=True)  # bool


def test_derive_chip_identity_values_reproduce_physicals():
    chip = derive_chip(
        BASE,
        num_pes=BASE.num_pes,
        frequency_hz=BASE.frequency_hz,
        sram_capacity_bytes=BASE.sram.capacity_bytes,
        dram_capacity_bytes=BASE.dram.capacity_bytes,
    )
    assert chip.die_area_mm2 == pytest.approx(BASE.die_area_mm2)
    assert chip.typical_watts == pytest.approx(BASE.typical_watts)
    assert chip.tdp_watts == pytest.approx(BASE.tdp_watts)
    assert chip.noc_bandwidth_bytes_per_s == pytest.approx(
        BASE.noc_bandwidth_bytes_per_s
    )


def test_derive_chip_scaling_is_physical():
    more_pes = derive_chip(BASE, num_pes=144)
    assert more_pes.num_pes == 144
    scale = 144 / BASE.num_pes
    for dtype, flops in BASE.gemm.peak_flops.items():
        assert more_pes.gemm.peak_flops[dtype] == pytest.approx(
            flops * scale
        )
    assert more_pes.die_area_mm2 > BASE.die_area_mm2
    assert more_pes.typical_watts > BASE.typical_watts

    faster = derive_chip(BASE, frequency_hz=1.5 * GHZ)
    freq = 1.5 * GHZ / BASE.frequency_hz
    assert faster.design_frequency_hz == 1.5 * GHZ
    # Compute scales linearly; power superlinearly (f * V(f)^2).
    assert faster.gemm.peak_flops[
        next(iter(BASE.gemm.peak_flops))
    ] == pytest.approx(
        BASE.gemm.peak_flops[next(iter(BASE.gemm.peak_flops))] * freq
    )
    assert faster.typical_watts > BASE.typical_watts * freq
    # Frequency alone does not change iso-frequency area.
    assert faster.die_area_mm2 == pytest.approx(BASE.die_area_mm2)

    big_sram = derive_chip(BASE, sram_capacity_bytes=512 * MiB)
    assert big_sram.sram.capacity_bytes == 512 * MiB
    assert big_sram.sram.bandwidth_bytes_per_s > BASE.sram.bandwidth_bytes_per_s
    assert big_sram.die_area_mm2 > BASE.die_area_mm2

    fat_simd = derive_chip(BASE, gemm_to_simd=8.0)
    thin_simd = derive_chip(BASE, gemm_to_simd=64.0)
    key = next(iter(BASE.vector.peak_flops))
    assert fat_simd.vector.peak_flops[key] > BASE.vector.peak_flops[key]
    assert thin_simd.vector.peak_flops[key] < BASE.vector.peak_flops[key]
    assert fat_simd.die_area_mm2 > thin_simd.die_area_mm2


def test_derived_chip_tco_not_from_base_figures():
    big = derive_chip(BASE, num_pes=144, sram_capacity_bytes=512 * MiB)
    base_cost = derived_cost_inputs(BASE)
    big_cost = derived_cost_inputs(big)
    assert base_cost.accelerator_cost_usd == pytest.approx(
        MTIA2I_COST.accelerator_cost_usd
    )
    assert big_cost.accelerator_cost_usd > base_cost.accelerator_cost_usd

    more_dram = derive_chip(BASE, dram_capacity_bytes=256 * GiB)
    assert derived_cost_inputs(more_dram).accelerator_cost_usd == pytest.approx(
        base_cost.accelerator_cost_usd + 3.5 * (256 - 128)
    )


# -- stable uid scope -------------------------------------------------


def _tiny_graph():
    graph = OpGraph(name="uid-probe")
    graph.add(fc(model_input(8, 16, name="x"), weight(16, 32, name="w")))
    return graph


def test_stable_uid_scope_makes_rebuilds_identical():
    with stable_uid_scope():
        first = _tiny_graph()
    with stable_uid_scope():
        second = _tiny_graph()
    assert [op.uid for op in first.ops] == [op.uid for op in second.ops]
    assert [
        t.uid for op in first.ops for t in (*op.inputs, *op.outputs)
    ] == [t.uid for op in second.ops for t in (*op.inputs, *op.outputs)]


def test_stable_uid_scope_leaves_global_counters_alone():
    before = _tiny_graph()
    with stable_uid_scope():
        scoped = _tiny_graph()
    after = _tiny_graph()
    assert scoped.ops[0].uid >= 1 << 40
    # Unscoped allocation resumes exactly where it left off.
    assert after.ops[0].uid - before.ops[0].uid == len(before.ops)


# -- pareto -----------------------------------------------------------


def _ev(label, perf, ppt, ppw):
    return CandidateEval(
        label=label, point=None, chip_name=label, fidelity="serving",
        exact=True, feasible=True, area_mm2=1.0, typical_watts=1.0,
        accelerator_cost_usd=1.0, models=(), perf=perf,
        perf_per_tco=ppt, perf_per_watt=ppw,
    )


def test_pareto_front_drops_dominated_keeps_tradeoffs():
    a = _ev("a", 2.0, 1.0, 1.0)
    b = _ev("b", 1.0, 2.0, 1.0)
    c = _ev("c", 1.0, 1.0, 2.0)
    d = _ev("d", 0.5, 0.5, 0.5)  # dominated by all three
    front = pareto_front([d, c, b, a])
    assert {e.label for e in front} == {"a", "b", "c"}
    assert dominates(a, d) and not dominates(a, b)


def test_pareto_front_keeps_identical_vectors():
    twins = [_ev("x", 1.0, 1.0, 1.0), _ev("y", 1.0, 1.0, 1.0)]
    front = pareto_front(twins)
    assert [e.label for e in front] == ["x", "y"]  # label-sorted, both kept


def test_front_ranks_peel_and_select_by_rank():
    evals = [
        _ev("best", 3.0, 3.0, 3.0),
        _ev("mid", 2.0, 2.0, 2.0),
        _ev("worst", 1.0, 1.0, 1.0),
    ]
    ranks = front_ranks(evals)
    assert [[e.label for e in r] for r in ranks] == [
        ["best"], ["mid"], ["worst"],
    ]
    assert [e.label for e in select_by_rank(evals, 2)] == ["best", "mid"]
    assert select_by_rank(evals, 0) == ()


# -- objectives -------------------------------------------------------


def test_objective_infeasible_chip_scores_zero():
    objective = CodesignObjective(models=_zoo("HC2"))
    tiny_dram = derive_chip(BASE, dram_capacity_bytes=1 * GiB)
    evaluation = objective.evaluate(tiny_dram, "tiny", "device")
    assert not evaluation.feasible
    assert evaluation.objectives() == (0.0, 0.0, 0.0)
    # Any feasible candidate dominates it, so the front drops it.
    feasible = objective.evaluate(BASE, "base", "device")
    assert feasible.feasible and dominates(feasible, evaluation)


def test_objective_rejects_unknown_fidelity_and_missing_surrogate():
    objective = CodesignObjective(models=_zoo("LC1"))
    with pytest.raises(ValueError):
        objective.evaluate(BASE, "base", "exactly")
    with pytest.raises(ValueError):
        objective.evaluate(BASE, "base", "surrogate")  # no surrogate fitted


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(iterations=0)
    assert 0 < search.T_FINAL <= search.T_INITIAL
    with pytest.raises(ValueError):
        SearchConfig(device_rung_keep=2, serving_rung_keep=4)
    with pytest.raises(ValueError):
        SearchConfig(train_chips=1)


# -- end-to-end search ------------------------------------------------


TINY_SPACE = DesignSpace(
    num_pes=(64, 144),
    frequency_hz=(1.1 * GHZ, 1.35 * GHZ),
    sram_capacity_bytes=(256 * MiB,),
    dram_capacity_bytes=(64 * GiB, 128 * GiB),
    dram_bandwidth_bytes_per_s=(204.8 * GB,),
    gemm_to_simd=(32.0,),
    noc_scale=(1.0,),
)

TINY_CONFIG = SearchConfig(
    seed=3, iterations=8, device_rung_keep=4, serving_rung_keep=2,
    train_chips=4,
)


def _tiny_search():
    return run_codesign_search(
        TINY_SPACE, _zoo("LC1"), TINY_CONFIG, duration_s=2.0
    )


def test_search_front_exact_deterministic_and_anchored():
    first = _tiny_search()
    second = _tiny_search()
    assert first == second  # bit-for-bit, dataclass equality all the way
    assert first.front
    assert first.all_front_exact
    assert all(e.fidelity == "serving" for e in first.front)
    assert first.mtia2_dominates_mtia1
    assert first.anchors[0].label == "MTIA 1"
    assert first.anchors[1].label == "MTIA 2i"
    assert all(a.exact for a in first.anchors)
    assert first.candidates_scored <= TINY_SPACE.size()
    assert first.eval_reduction > 0
    # The anchors are real specs, never grid points.
    assert all(a.point is None for a in first.anchors)


def test_search_respects_space_grid():
    result = _tiny_search()
    for evaluation in result.serving_evals:
        point = evaluation.point
        assert all(getattr(point, axis) in ladder
                   for axis, ladder in TINY_SPACE.axes().items())
