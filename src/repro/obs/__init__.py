"""``repro.obs`` — the reproduction's observability layer.

Three pieces, mirroring how the paper's productionization story is
actually *evidenced* (every section 4-5 claim is a measurement):

* :mod:`repro.obs.metrics` — counters, gauges, log-scale histograms and
  best-so-far series behind :class:`MetricsRegistry`; simulators accept
  an optional registry and pay ~nothing when none is attached;
* :mod:`repro.obs.tracing` — the unified Chrome trace-event writer that
  both the executor timeline (:mod:`repro.perf.trace`) and the fleet
  incident timeline (:mod:`repro.resilience.trace`) render through;
* :mod:`repro.obs.bench` + :mod:`repro.obs.golden` — machine-readable
  benchmark scalars, the ``BENCH_results.json`` aggregate, tolerance
  diffing, and the pinned headline values ``python -m repro bench``
  enforces.
"""

from repro.obs.metrics import NULL_REGISTRY, MetricsRegistry, active
from repro.obs.tracing import TraceError, TraceWriter, trace_metadata

__all__ = [
    "MetricsRegistry",
    "NULL_REGISTRY",
    "TraceError",
    "TraceWriter",
    "active",
    "trace_metadata",
]
