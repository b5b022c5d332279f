"""Property-based tests for repro.codesign.

Hypothesis drives the contracts the search's determinism and the front's
correctness rest on:

* Pareto soundness — no member of ``pareto_front`` is dominated by any
  input candidate, every non-member is dominated by some member, and
  membership plus output order are independent of insertion order;
* rank selection — ``select_by_rank`` never returns more than asked and
  always includes the whole rank-0 front when it fits;
* derived chips — identity derivation returns the base object itself,
  and grid navigation (``point_at`` / ``neighbor``) stays on the grid
  and moves one axis at a time;
* annealing determinism — two chains with the same seed walk the same
  trajectory and populate bit-identical evaluation caches, for any seed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import gpu_spec, mtia1_spec, mtia2i_spec
from repro.codesign import (
    CandidateEval,
    DesignSpace,
    SearchConfig,
    derive_chip,
    dominates,
    pareto_front,
    select_by_rank,
)
from repro.codesign.search import CHAIN_WEIGHTS, _anneal_chain
from repro.units import GB, GHZ, GiB, MiB

SPACE = DesignSpace(
    num_pes=(36, 64, 144),
    frequency_hz=(1.1 * GHZ, 1.35 * GHZ, 1.5 * GHZ),
    sram_capacity_bytes=(128 * MiB, 256 * MiB),
    dram_capacity_bytes=(64 * GiB, 128 * GiB),
    dram_bandwidth_bytes_per_s=(204.8 * GB, 307.2 * GB),
    gemm_to_simd=(16.0, 32.0),
    noc_scale=(1.0,),
)


def _ev(label, perf, ppt, ppw):
    return CandidateEval(
        label=label, point=None, chip_name=label, fidelity="serving",
        exact=True, feasible=True, area_mm2=1.0, typical_watts=1.0,
        accelerator_cost_usd=1.0, models=(), perf=perf,
        perf_per_tco=ppt, perf_per_watt=ppw,
    )


objective_vectors = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=0.1, max_value=10.0),
    ),
    min_size=1, max_size=24,
)


@settings(max_examples=50, deadline=None)
@given(vectors=objective_vectors, seed=st.integers(0, 2**31 - 1))
def test_pareto_front_sound_and_order_independent(vectors, seed):
    evals = [_ev(f"c{i}", *v) for i, v in enumerate(vectors)]
    front = pareto_front(evals)
    members = {e.label for e in front}
    # Soundness: nothing on the front is dominated by any input.
    for member in front:
        assert not any(dominates(other, member) for other in evals)
    # Completeness: everything off the front is dominated by a member.
    for candidate in evals:
        if candidate.label not in members:
            assert any(dominates(member, candidate) for member in front)
    # Insertion-order independence, including the output order.
    rng = np.random.default_rng(seed)
    shuffled = [evals[i] for i in rng.permutation(len(evals))]
    assert pareto_front(shuffled) == front


@settings(max_examples=50, deadline=None)
@given(vectors=objective_vectors, keep=st.integers(0, 30))
def test_select_by_rank_bounds_and_contains_front(vectors, keep):
    evals = [_ev(f"c{i}", *v) for i, v in enumerate(vectors)]
    selected = select_by_rank(evals, keep)
    assert len(selected) == min(keep, len(evals))
    front = pareto_front(evals)
    if keep >= len(front):
        assert set(e.label for e in front) <= set(e.label for e in selected)


@given(base=st.sampled_from(["mtia1", "mtia2i", "gpu"]))
@settings(max_examples=10, deadline=None)
def test_derive_chip_identity_is_the_base_object(base):
    chip = {"mtia1": mtia1_spec, "mtia2i": mtia2i_spec, "gpu": gpu_spec}[
        base
    ]()
    assert derive_chip(chip) is chip


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), steps=st.integers(1, 30))
def test_grid_navigation_stays_on_grid(seed, steps):
    rng = np.random.default_rng(seed)
    point = SPACE.random_point(rng)
    for _ in range(steps):
        moved = SPACE.neighbor(point, rng)
        assert all(getattr(moved, axis) in ladder
                   for axis, ladder in SPACE.axes().items())
        changed = [
            axis
            for axis in SPACE.axes()
            if getattr(moved, axis) != getattr(point, axis)
        ]
        assert len(changed) <= 1  # single-axis ladder move
        point = moved


class _ArithmeticObjective:
    """A stand-in objective: deterministic closed-form scores from the
    grid coordinates, so annealing trajectories can be compared across
    many seeds without paying for real evaluations."""

    def evaluate(self, chip, label, fidelity, point=None):
        assert fidelity == "surrogate"
        perf = point.num_pes * point.frequency_hz / 1e9
        ppt = point.sram_capacity_bytes / point.dram_capacity_bytes
        ppw = point.dram_bandwidth_bytes_per_s / (
            point.num_pes * point.gemm_to_simd * 1e9
        )
        return _ev(label, perf, ppt, ppw)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), chain=st.integers(0, 3))
def test_annealing_chain_bit_for_bit_deterministic(seed, chain):
    config = SearchConfig(seed=seed, iterations=12)
    weights = CHAIN_WEIGHTS[chain]
    first, second = {}, {}
    _anneal_chain(SPACE, _ArithmeticObjective(), first, weights, chain, config)
    _anneal_chain(SPACE, _ArithmeticObjective(), second, weights, chain, config)
    assert first == second  # same keys, same evaluations, bit for bit
    assert first  # the chain scored something


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_annealing_chains_share_cache_consistently(seed):
    """Running all chains into one cache then re-running yields the
    exact same cache — the search's exploration stage is a pure
    function of the seed."""
    config = SearchConfig(seed=seed, iterations=6)

    def explore():
        cache = {}
        for index, weights in enumerate(CHAIN_WEIGHTS):
            _anneal_chain(
                SPACE, _ArithmeticObjective(), cache, weights, index, config
            )
        return cache

    assert explore() == explore()
