"""Differential test: the one-sweep activation packer versus the pairwise one.

:func:`repro.memory.scratch.plan_allocation` keeps a live set sorted by
(offset, placement order) and drops a placed buffer once its ``end`` is
before the current ``start``.  It must place every buffer exactly where
the original packer did, which compared each request against every
buffer placed before it.

The oracle below is that packer as it stood before the sweep, kept
verbatim, with the pairwise no-overlap check every plan must pass.  Both
live only here, not in ``src/``.
"""

from __future__ import annotations

from typing import List, Sequence

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.scratch import (
    AllocationPlan,
    BufferRequest,
    Placement,
    plan_allocation,
)


def live_together(a: BufferRequest, b: BufferRequest) -> bool:
    """Whether two buffers are ever live at the same step."""
    return a.start <= b.end and b.start <= a.end


def assert_no_overlap(plan: AllocationPlan) -> None:
    """No two simultaneously-live buffers share a byte."""
    for i, a in enumerate(plan.placements):
        for b in plan.placements[i + 1:]:
            if live_together(a.request, b.request):
                assert a.offset >= b.end_offset or b.offset >= a.end_offset, (
                    f"overlap between {a.request.name} and {b.request.name}"
                )


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def pairwise_plan_allocation(
    requests: Sequence[BufferRequest], alignment: int = 128
) -> AllocationPlan:
    """The retired O(n^2) greedy packer (the oracle)."""
    if alignment <= 0:
        raise ValueError("alignment must be positive")
    ordered = sorted(requests, key=lambda r: (r.start, -r.size_bytes))
    placements: List[Placement] = []
    for request in ordered:
        live = [p for p in placements if live_together(p.request, request)]
        live.sort(key=lambda p: p.offset)
        offset = 0
        for placed in live:
            if offset + request.size_bytes <= placed.offset:
                break
            offset = max(offset, _align(placed.end_offset, alignment))
        placements.append(Placement(request=request, offset=offset))
    return AllocationPlan(placements=placements)


# Small step and size ranges make equal starts, equal ends, equal sizes
# and ``start == end`` common; sizes straddle every alignment tested.
_buffer = st.tuples(
    st.one_of(
        st.sampled_from([1, 64, 128, 4096, 5000]),
        st.integers(min_value=1, max_value=10_000),
    ),
    st.integers(min_value=0, max_value=12),  # start
    st.integers(min_value=0, max_value=4),  # extra steps: 0 is start == end
)


def _requests(buffers) -> List[BufferRequest]:
    return [
        BufferRequest(f"b{i}", size, start, start + extra)
        for i, (size, start, extra) in enumerate(buffers)
    ]


def _layout(plan: AllocationPlan):
    return [(p.request.name, p.offset) for p in plan.placements]


@settings(max_examples=300, deadline=None)
@given(
    buffers=st.lists(_buffer, max_size=40),
    alignment=st.sampled_from([1, 128, 4096]),
)
def test_sweep_places_every_buffer_like_the_pairwise_packer(buffers, alignment):
    requests = _requests(buffers)
    plan = plan_allocation(requests, alignment=alignment)
    assert _layout(plan) == _layout(
        pairwise_plan_allocation(requests, alignment=alignment)
    )
    assert_no_overlap(plan)

