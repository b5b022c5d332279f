"""Property-based tests for the fastsim substrate (repro.fastsim).

Hypothesis drives the primitives the fast engines are built on and
checks the contracts every consumer relies on:

* queue order — any interleaving of ``schedule``, ``schedule_batch``
  and ``pop`` drains in exactly the order of one plain ``heapq`` over
  ``(time_s, seq)`` entries, so staging a population as a batch never
  reorders events;
* total ordering under ties — same-timestamp events drain in tiebreak
  order regardless of push order, and the cluster tier's
  ``injection_sort_key`` is permutation-invariant (any arrangement of
  the same injections sorts to one schedule);
* vectorization identity — ``seeded_poisson_arrivals`` produces the
  same floats AND the same final generator state as the scalar
  ``t += rng.exponential(...)`` loop it replaced, so any draw made
  after the stream is also unchanged.
"""

from __future__ import annotations

import heapq

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.simulator import (
    INJECTION_KINDS,
    Injection,
    injection_sort_key,
)
from repro.fastsim import EventEngine, seeded_poisson_arrivals

# Event times including exact duplicates (drawn times are rounded to
# force collisions).
event_time = st.floats(min_value=0.0, max_value=50.0,
                       allow_nan=False, allow_infinity=False).map(
    lambda t: round(t, 1)
)
event_times = st.lists(event_time, min_size=0, max_size=120)


# One engine operation: a single ``schedule``, a ``schedule_batch`` of
# several times, or a ``pop``.
queue_ops = st.lists(
    st.one_of(
        event_times.map(lambda times: ("batch", times)),
        event_time.map(lambda t: ("schedule", t)),
        st.just(("pop", None)),
    ),
    max_size=40,
)


class TestQueueEquivalence:
    @given(ops=queue_ops)
    @settings(max_examples=80, deadline=None)
    def test_batch_interleavings_drain_in_heapq_order(self, ops):
        # The reference is one plain heap of ``(time_s, seq, payload)``
        # with ``seq`` taken in call order — what the simulators used
        # before staged batches existed.
        engine = EventEngine()
        reference = []
        seq = 0
        for op, arg in ops:
            if op == "pop":
                if reference:
                    assert engine.pop() == heapq.heappop(reference)
                continue
            times = arg if op == "batch" else [arg]
            payloads = list(range(seq, seq + len(times)))
            if op == "batch":
                engine.schedule_batch(zip(times, payloads))
            else:
                engine.schedule(times[0], payloads[0])
            for time_s, payload in zip(times, payloads):
                heapq.heappush(reference, (time_s, seq, payload))
                seq += 1
            assert len(engine) == len(reference)
        drained = [engine.pop() for _ in range(len(engine))]
        assert drained == [
            heapq.heappop(reference) for _ in range(len(reference))
        ]
        assert not engine

    @given(
        ties=st.lists(st.integers(min_value=0, max_value=10**6),
                      min_size=1, max_size=60, unique=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_same_timestamp_drains_in_tiebreak_order(self, ties):
        # Every event lands at t=1.0; the explicit tiebreak alone must
        # decide the order, whatever order the pushes arrived in.
        engine = EventEngine()
        for tiebreak in ties:
            engine.schedule(1.0, f"payload-{tiebreak}", tiebreak=tiebreak)
        popped = [engine.pop()[1] for _ in range(len(engine))]
        assert popped == sorted(ties)

    @given(times=event_times)
    @settings(max_examples=40, deadline=None)
    def test_default_tiebreak_is_fifo_at_equal_times(self, times):
        # Without explicit tiebreaks the engine falls back to insertion
        # sequence, so equal-time events drain first-scheduled-first.
        engine = EventEngine()
        for payload, time_s in enumerate(times):
            engine.schedule(time_s, payload)
        drained = [engine.pop() for _ in range(len(engine))]
        assert drained == sorted(drained, key=lambda e: (e[0], e[1]))


injections = st.lists(
    st.builds(
        Injection,
        time_s=st.floats(min_value=0.0, max_value=10.0,
                         allow_nan=False, allow_infinity=False).map(
            lambda t: round(t, 1)
        ),
        kind=st.sampled_from(INJECTION_KINDS),
        targets=st.lists(
            st.integers(min_value=0, max_value=7), max_size=3
        ).map(tuple),
        magnitude=st.floats(min_value=1.0, max_value=8.0,
                            allow_nan=False, allow_infinity=False),
    ),
    max_size=30,
)


class TestInjectionOrdering:
    @given(schedule=injections, seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_sort_is_permutation_invariant(self, schedule, seed):
        shuffled = list(schedule)
        np.random.default_rng(seed).shuffle(shuffled)
        assert (
            sorted(shuffled, key=injection_sort_key)
            == sorted(schedule, key=injection_sort_key)
        )

    @given(schedule=injections)
    @settings(max_examples=40, deadline=None)
    def test_paired_events_net_to_recovered(self, schedule):
        # At one timestamp, the harming kind of each pair sorts before
        # its recovery kind, so zero-duration pairs leave replicas up.
        ordered = sorted(schedule, key=injection_sort_key)
        for earlier, later in zip(ordered, ordered[1:]):
            if earlier.time_s == later.time_s:
                assert (
                    INJECTION_KINDS.index(earlier.kind)
                    <= INJECTION_KINDS.index(later.kind)
                )


class TestVectorizedArrivals:
    @given(
        rate=st.floats(min_value=0.5, max_value=500.0,
                       allow_nan=False, allow_infinity=False),
        horizon=st.floats(min_value=0.01, max_value=30.0,
                          allow_nan=False, allow_infinity=False),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_loop_values_and_state(self, rate, horizon, seed):
        fast_rng = np.random.default_rng(seed)
        arrivals = seeded_poisson_arrivals(fast_rng, rate, horizon)

        scalar_rng = np.random.default_rng(seed)
        expected = []
        t = 0.0
        while True:
            t += scalar_rng.exponential(1.0 / rate)
            if t >= horizon:
                break
            expected.append(t)

        assert arrivals.tolist() == expected
        # Same exponential draws consumed, in the same order: a draw
        # made after the stream must match too.
        assert fast_rng.random() == scalar_rng.random()
