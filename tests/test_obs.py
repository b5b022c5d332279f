"""Tests for the observability layer: metrics registry + trace writer.

The trace-writer half pins the refactor contract: ``perf.trace`` and
``resilience.trace`` now build their documents through
:class:`repro.obs.tracing.TraceWriter`, and a seeded run must serialise
byte-identically to what the legacy hand-rolled builders produced
(asserted via sha256 of the written file).
"""

import hashlib
import json

import pytest

from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    TraceError,
    TraceWriter,
    active,
    trace_metadata,
)
from repro.obs.metrics import (
    _NULL_COUNTER,
    _NULL_GAUGE,
    _NULL_HISTOGRAM,
    _NULL_SERIES,
)


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.counter("a").inc(2.5)
        assert registry.counter("a").value == 3.5

    def test_instruments_shared_by_name(self):
        registry = MetricsRegistry()
        assert registry.histogram("h") is registry.histogram("h")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.series("s") is registry.series("s")

    def test_gauge_last_value_wins(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(1.0)
        gauge.set(7.0)
        assert gauge.value == 7.0

    def test_series_preserves_order(self):
        series = MetricsRegistry().series("curve")
        series.append(1, 10.0)
        series.append(2, 12.0)
        assert series.points == ((1.0, 10.0), (2.0, 12.0))

    def test_disabled_registry_hands_out_shared_nulls(self):
        registry = MetricsRegistry(enabled=False)
        # Identity, not just equality: no allocation per request.
        assert registry.counter("x") is _NULL_COUNTER
        assert registry.counter("y") is _NULL_COUNTER
        assert registry.gauge("x") is _NULL_GAUGE
        assert registry.histogram("x") is _NULL_HISTOGRAM
        assert registry.series("x") is _NULL_SERIES

    def test_null_instruments_record_nothing(self):
        _NULL_COUNTER.inc(100)
        _NULL_GAUGE.set(5.0)
        _NULL_HISTOGRAM.observe(1.0)
        _NULL_SERIES.append(1, 1)
        assert _NULL_COUNTER.value == 0.0
        assert _NULL_GAUGE.value == 0.0
        assert _NULL_HISTOGRAM.count == 0
        assert _NULL_SERIES.points == ()

    def test_active_defaults_to_null_registry(self):
        assert active(None) is NULL_REGISTRY
        registry = MetricsRegistry()
        assert active(registry) is registry
        assert not NULL_REGISTRY.enabled

    def test_snapshot_is_json_able_and_sorted(self):
        registry = MetricsRegistry()
        registry.counter("b").inc()
        registry.counter("a").inc()
        registry.histogram("h").observe(2.0)
        registry.series("s").append(0, 1)
        snap = registry.snapshot()
        json.dumps(snap)  # must not raise
        assert list(snap["counters"]) == ["a", "b"]
        assert snap["histograms"]["h"]["count"] == 1


class TestHistogram:
    def test_percentiles_bracket_uniform_data(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat")
        for i in range(1, 1001):
            hist.observe(i / 1000.0)  # 1 ms .. 1 s uniform
        # Log-bucket estimates carry ~13% relative error at 10/decade.
        assert hist.p50 == pytest.approx(0.5, rel=0.20)
        assert hist.p95 == pytest.approx(0.95, rel=0.20)
        assert hist.p99 == pytest.approx(0.99, rel=0.20)
        assert hist.min == 0.001
        assert hist.max == 1.0
        assert hist.mean == pytest.approx(0.5005)

    def test_percentiles_clamped_to_observed_range(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(3.0)
        for p in (0, 50, 99, 100):
            assert hist.percentile(p) == 3.0

    def test_zeros_land_in_dedicated_bucket(self):
        hist = MetricsRegistry().histogram("h")
        for _ in range(9):
            hist.observe(0.0)
        hist.observe(10.0)
        assert hist.p50 == 0.0
        assert hist.percentile(100) == 10.0

    def test_empty_histogram_is_quiet(self):
        hist = MetricsRegistry().histogram("h")
        assert hist.p99 == 0.0
        assert hist.mean == 0.0
        assert hist.snapshot()["count"] == 0

    def test_percentile_validates_range(self):
        hist = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError):
            hist.percentile(101)


class TestTraceWriter:
    def test_events_carry_required_fields(self):
        writer = TraceWriter("proc")
        lane = writer.lane("work")
        writer.complete("op", ts=0.0, dur=5.0, tid=lane)
        writer.instant("mark", ts=1.0, tid=lane)
        writer.counter("depth", ts=2.0, values={"d": 3})
        for event in writer.events:
            assert {"ph", "ts", "pid"} <= set(event)
            if event["ph"] in ("X", "i"):
                assert "tid" in event
        instant = [e for e in writer.events if e["ph"] == "i"][0]
        assert instant["s"] in ("g", "p", "t")

    def test_lane_numbering_and_conflicts(self):
        writer = TraceWriter("proc")
        assert writer.lane("a") == 1
        assert writer.lane("b") == 2
        assert writer.lane("a") == 1  # idempotent
        assert writer.lane("pinned", tid=40) == 40
        with pytest.raises(TraceError):
            writer.lane("a", tid=9)

    def test_metadata_precedes_data_events(self):
        writer = TraceWriter("proc", pid=4)
        writer.complete("op", ts=0.0, dur=1.0, tid=writer.lane("l"))
        events = writer.document()["traceEvents"]
        phases = [e["ph"] for e in events]
        assert phases[: phases.count("M")] == ["M"] * phases.count("M")
        process = events[0]
        assert process["name"] == "process_name"
        assert process["args"]["name"] == "proc"
        assert all(e["pid"] == 4 for e in events)

    def test_other_data_round_trip(self, tmp_path):
        writer = TraceWriter("proc")
        writer.complete("op", ts=0.0, dur=1.0, tid=writer.lane("l"))
        path = tmp_path / "t.json"
        writer.write(str(path), other_data={"k": 1})
        loaded = json.loads(path.read_text())
        assert loaded["otherData"] == {"k": 1}
        assert loaded["displayTimeUnit"] == "ms"

    def test_trace_metadata_names_lanes(self):
        meta = trace_metadata("p", {"alpha": 1, "beta": 2})
        assert [m["args"]["name"] for m in meta] == ["p", "alpha", "beta"]


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestTraceByteCompatibility:
    """The unified writer serialises exactly what the legacy builders did."""

    def test_perf_trace_bytes_pinned(self, tmp_path):
        from repro.models import figure6_models
        from repro.perf import Executor, write_chrome_trace
        from repro.arch import mtia2i_spec

        model = next(m for m in figure6_models() if m.name == "LC1")
        report = Executor(mtia2i_spec()).run(
            model.graph(), model.batch, warmup_runs=0
        )
        path = tmp_path / "perf.json"
        write_chrome_trace(report, str(path))
        assert _sha256(path) == (
            "1b895ecab812ffba05de6b6345f443f80ff0575792776790351f8c029b4d96c5"
        )

    def test_resilience_trace_bytes_pinned(self, tmp_path):
        from repro.resilience import (
            fault_rates_from_reliability,
            write_resilience_trace,
        )
        from repro.resilience.simulator import ResilienceConfig, run_resilience

        report = run_resilience(ResilienceConfig(
            devices=24, offered_load=20_000.0, duration_s=7 * 86_400.0,
            seed=7,
        ), fault_rates_from_reliability(), mitigated=True)
        path = tmp_path / "resilience.json"
        write_resilience_trace(report, str(path))
        assert _sha256(path) == (
            "f91e2172281cce0e08342fce3f160beb35a5c1d1d30df42d57bfb0fd2c4929c5"
        )

    def test_registry_never_steers_the_simulation(self):
        from repro.resilience import fault_rates_from_reliability
        from repro.resilience.simulator import ResilienceConfig, run_resilience

        config = ResilienceConfig(
            devices=16, offered_load=10_000.0, duration_s=86_400.0, seed=11
        )
        rates = fault_rates_from_reliability()
        bare = run_resilience(config, rates, mitigated=True)
        registry = MetricsRegistry()
        observed = run_resilience(config, rates, mitigated=True,
                                  registry=registry)
        assert [
            (e.time_s, e.kind, e.device_id) for e in bare.events
        ] == [
            (e.time_s, e.kind, e.device_id) for e in observed.events
        ]
        counters = registry.snapshot()["counters"]
        emitted = sum(
            v for k, v in counters.items() if k.startswith("resilience.events.")
        )
        assert emitted == len(bare.events)
