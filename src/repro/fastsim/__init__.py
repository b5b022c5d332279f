"""Shared fast-simulation substrate (ROADMAP item 1).

The hot engines — ``serving.scheduler``, ``cluster.simulator`` (and
through it ``fleet_global`` and ``chaos``), ``resilience.simulator``,
the ``sdc`` campaign loop, and ``autotune`` evaluation — all run on the
pieces in this package:

- :mod:`repro.fastsim.engine`: the deterministic event queue the
  serving scheduler and the resilience simulator run on — a binary heap
  plus a staged sorted list for pre-known event populations, drained in
  one total order, ``(time_s, tiebreak)``.  The cluster tier's own loop
  (:mod:`repro.cluster.event_loop`) keeps that order with a merged
  arrival stream and one local heap.
- :mod:`repro.fastsim.memo`: memoized kernel-latency tables keyed on
  (op, shape, dtype, frequency, variant).
- :mod:`repro.fastsim.vectorize`: numpy vectorizations of per-request
  math that are *byte-identical* to the scalar loops they replace
  (same RNG draws in the same order, same float accumulation order).
- :mod:`repro.fastsim.trials`: an opt-in ``multiprocessing`` map over
  independent seeded trials, sequential by default.

Determinism is the contract: every golden in ``repro.obs.golden`` is
byte-identical on the fast paths.  The exact paths they replaced are
kept verbatim in ``tests/`` as differential-testing oracles (the
NeuroScalar-style fast-path/exact-path split: the exact model is the
verifier), and ``tests/test_fastsim_equivalence`` proves report-level
parity against them.
"""

from repro.fastsim.engine import EventEngine
from repro.fastsim.memo import KernelLatencyMemo
from repro.fastsim.trials import trial_map
from repro.fastsim.vectorize import seeded_poisson_arrivals

__all__ = [
    "EventEngine",
    "KernelLatencyMemo",
    "seeded_poisson_arrivals",
    "trial_map",
]
