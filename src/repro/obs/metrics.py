"""Lightweight metrics: counters, gauges, log-scale histograms, series.

The productionization half of the paper (sections 4-5) rests on being
able to *measure* everything — coalescing fill, rollout wave progress,
SDC catch latencies — and this module is the reproduction's equivalent
of that fleet telemetry layer.  Simulators accept an optional
:class:`MetricsRegistry`; when none is supplied they fall back to the
module-level :data:`NULL_REGISTRY`, whose instruments are shared no-op
singletons.

Zero-overhead-when-disabled contract:

* a disabled registry hands out the *same* pre-allocated null
  instrument objects on every call — no allocation, no bookkeeping;
* every null method (``inc``/``set``/``observe``/``append``) is a bare
  ``pass``, so an instrumented hot loop pays one no-op method call per
  event and nothing more;
* any instrumentation that would require extra work beyond the call
  itself (post-hoc summary loops, ``time.perf_counter`` reads) must be
  gated on ``registry.enabled``.

The simulators' *results* never depend on whether a registry is
attached: metrics observe, they do not steer (asserted by the seeded
byte-identical trace regression tests).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Series",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "active",
]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1)."""
        self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A last-value-wins instantaneous reading."""

    __slots__ = ("name", "_value", "_updates")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._updates = 0

    def set(self, value: float) -> None:
        self._value = float(value)
        self._updates += 1

    @property
    def value(self) -> float:
        return self._value

    @property
    def updates(self) -> int:
        return self._updates


class Series:
    """An append-only (x, y) curve — e.g. best-so-far during a sweep."""

    __slots__ = ("name", "_points")

    def __init__(self, name: str) -> None:
        self.name = name
        self._points: List[Tuple[float, float]] = []

    def append(self, x: float, y: float) -> None:
        self._points.append((float(x), float(y)))

    @property
    def points(self) -> Tuple[Tuple[float, float], ...]:
        return tuple(self._points)


BUCKETS_PER_DECADE = 10


class Histogram:
    """Log-scale bucketed distribution with percentile extraction.

    Buckets are geometric: ``BUCKETS_PER_DECADE`` buckets per power of
    ten (10, i.e. ~26% bucket width, so percentile estimates
    carry ~13% worst-case relative error — plenty for latency and
    occupancy telemetry).  Non-positive observations land in a dedicated
    zero bucket.  Exact min/max are tracked so percentile estimates are
    always clamped into the observed range.
    """

    __slots__ = (
        "name", "_buckets", "_zeros",
        "_count", "_sum", "_min", "_max",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self._buckets: Dict[int, int] = {}
        self._zeros = 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if value <= 0.0:
            self._zeros += 1
            return
        index = math.floor(math.log10(value) * BUCKETS_PER_DECADE)
        self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    def percentile(self, p: float) -> float:
        """Estimate the ``p``-th percentile (0-100) from the buckets."""
        if not (0.0 <= p <= 100.0):
            raise ValueError("percentile must be in [0, 100]")
        if self._count == 0:
            return 0.0
        target = max(1, math.ceil(p / 100.0 * self._count))
        seen = self._zeros
        if target <= seen:
            return self._min  # the non-positive bucket
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if target <= seen:
                # Geometric bucket midpoint, clamped to the exact range.
                mid = 10.0 ** ((index + 0.5) / BUCKETS_PER_DECADE)
                return min(self._max, max(self._min, mid))
        return self._max  # pragma: no cover - defensive

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def snapshot(self) -> Dict[str, float]:
        """Summary dict (count, sum, mean, min/max, p50/p95/p99)."""
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class _NullSeries(Series):
    __slots__ = ()

    def append(self, x: float, y: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter("null")
_NULL_GAUGE = _NullGauge("null")
_NULL_SERIES = _NullSeries("null")
_NULL_HISTOGRAM = _NullHistogram("null")


class MetricsRegistry:
    """Named instruments for one run (or one fleet of runs).

    Instruments are created on first request and shared by name
    afterwards.  A disabled registry returns the module's shared null
    instruments instead — see the module docstring for the overhead
    contract.
    """

    def __init__(self, enabled: bool = True) -> None:
        self._enabled = bool(enabled)
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, Series] = {}

    @property
    def enabled(self) -> bool:
        return self._enabled

    def counter(self, name: str) -> Counter:
        if not self._enabled:
            return _NULL_COUNTER
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self._enabled:
            return _NULL_GAUGE
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        if not self._enabled:
            return _NULL_HISTOGRAM
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def series(self, name: str) -> Series:
        if not self._enabled:
            return _NULL_SERIES
        instrument = self._series.get(name)
        if instrument is None:
            instrument = self._series[name] = Series(name)
        return instrument

    def snapshot(self) -> Dict[str, Dict]:
        """Everything recorded so far, as plain JSON-able dicts."""
        return {
            "counters": {
                name: self._counters[name].value
                for name in sorted(self._counters)
            },
            "gauges": {
                name: self._gauges[name].value for name in sorted(self._gauges)
            },
            "histograms": {
                name: self._histograms[name].snapshot()
                for name in sorted(self._histograms)
            },
            "series": {
                name: [list(point) for point in self._series[name].points]
                for name in sorted(self._series)
            },
        }


NULL_REGISTRY = MetricsRegistry(enabled=False)


def active(registry: Optional[MetricsRegistry]) -> MetricsRegistry:
    """The registry to instrument against: the caller's, else the null one."""
    return registry if registry is not None else NULL_REGISTRY
