"""Serving traffic generation: Poisson, diurnal, and replay streams.

Production recommendation traffic is bursty Poisson arrival at short
timescales riding a diurnal curve at long timescales.  The coalescing
tuner uses the short-timescale generator; the power-provisioning and
utilization studies use the diurnal one.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
from typing import List, Sequence

import numpy as np

from repro.fastsim.vectorize import seeded_poisson_arrivals


@dataclasses.dataclass(frozen=True)
class Request:
    """One inference request: arrival time and candidate count.

    ``priority`` feeds the chaos tier's brownout admission (higher =
    more important); the default 0 keeps every pre-chaos stream below
    any raised admission floor's exemption and leaves existing behaviour
    untouched.
    """

    arrival_s: float
    samples: int
    request_id: int = 0
    priority: int = 0

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ValueError("request must carry at least one sample")
        if self.arrival_s < 0:
            raise ValueError("arrival time must be non-negative")
        if self.priority < 0:
            raise ValueError("priority must be non-negative")


def with_priorities(
    requests: Sequence["Request"],
    weights: Sequence[float],
    seed: int = 0,
) -> List["Request"]:
    """Assign priority tiers to a stream by seeded weighted draw.

    ``weights[p]`` is the relative frequency of priority ``p`` — e.g.
    ``(0.2, 0.5, 0.3)`` makes 20% of traffic priority 0 (best-effort),
    50% priority 1, 30% priority 2 (critical).  The draw is seeded and
    independent of the arrival process, so re-prioritizing a stream
    never perturbs its timing.
    """
    if not weights or any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative and non-empty")
    total = float(sum(weights))
    if total <= 0:
        raise ValueError("at least one weight must be positive")
    rng = np.random.default_rng(seed)
    priorities = rng.choice(
        len(weights), size=len(requests), p=[w / total for w in weights]
    )
    return [
        Request(
            arrival_s=request.arrival_s,
            samples=request.samples,
            request_id=request.request_id,
            priority=priority,
        )
        for request, priority in zip(requests, priorities.tolist())
    ]


def poisson_stream(
    rate_per_s: float,
    duration_s: float,
    samples_per_request: int = 64,
    samples_jitter: float = 0.3,
    seed: int = 0,
) -> List[Request]:
    """Poisson arrivals with log-normal candidate-count jitter.

    Arrival times come from the vectorized
    :func:`repro.fastsim.vectorize.seeded_poisson_arrivals`, which is
    byte-identical (values and generator state) to the scalar
    ``t += rng.exponential(1/rate)`` loop this replaced.
    """
    if rate_per_s <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    rng = np.random.default_rng(seed)
    arrivals = seeded_poisson_arrivals(rng, rate_per_s, duration_s)
    sizes = np.maximum(
        1,
        np.round(
            samples_per_request * rng.lognormal(0, samples_jitter, size=len(arrivals))
        ).astype(int),
    )
    return [
        Request(arrival_s=float(t), samples=int(s), request_id=i)
        for i, (t, s) in enumerate(zip(arrivals, sizes))
    ]


def diurnal_load_curve(
    mean_rate_per_s: float,
    peak_to_mean: float = 2.2,
    num_points: int = 288,
    noise: float = 0.05,
    seed: int = 0,
) -> np.ndarray:
    """A day of 5-minute load samples with a sinusoidal diurnal swing."""
    if mean_rate_per_s <= 0 or peak_to_mean < 1:
        raise ValueError("invalid load-curve parameters")
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 2 * np.pi, num_points)
    amplitude = peak_to_mean - 1.0
    raw = np.maximum(1.0 + amplitude * np.sin(t - np.pi / 2), 0.05)
    # Renormalize so the mean is exact; clipping skews it otherwise.
    raw = raw * (peak_to_mean / raw.max())  # peak = peak_to_mean exactly
    raw = raw / raw.mean()
    curve = mean_rate_per_s * raw * rng.lognormal(0, noise, size=num_points)
    return np.maximum(curve, 0.0)


@dataclasses.dataclass(frozen=True)
class DiurnalTrafficModel:
    """The long-timescale traffic shape: a sinusoidal day.

    ``rate_at`` is the *expected* arrival rate at wall time ``t`` — the
    deterministic curve both the bursty stream generator below and the
    cluster tier's predictive autoscaler share, so a forecast made from
    the model is consistent with the traffic actually generated from it.
    """

    mean_rate_per_s: float
    peak_to_mean: float = 2.2
    day_length_s: float = 86_400.0
    phase_s: float = 0.0  # where in the day t=0 lands (0 = trough side)
    floor_fraction: float = 0.05  # overnight trough never quite hits zero
    # Timezone phase offset in *hours of the diurnal cycle* — a region 8
    # timezones east peaks 8/24 of a day earlier, whatever ``day_length_s``
    # compresses the day to.  The fleet tier threads one model per region
    # through this field; ``phase_h=0`` leaves every rate byte-identical
    # to the pre-fleet behaviour.
    phase_h: float = 0.0

    def __post_init__(self) -> None:
        if self.mean_rate_per_s <= 0 or self.day_length_s <= 0:
            raise ValueError("mean rate and day length must be positive")
        if self.peak_to_mean < 1:
            raise ValueError("peak-to-mean must be at least 1")
        if not (0 <= self.floor_fraction <= 1):
            raise ValueError("floor fraction must be in [0, 1]")

    def rate_at(self, t_s: float) -> float:
        """Expected arrival rate (requests/s) at wall time ``t_s``."""
        angle = 2.0 * math.pi * (t_s + self.phase_s) / self.day_length_s
        if self.phase_h:
            # Hours map onto the (possibly compressed) day: guarded so a
            # zero offset leaves the float math exactly as it was.
            angle += 2.0 * math.pi * self.phase_h / 24.0
        amplitude = self.peak_to_mean - 1.0
        raw = 1.0 + amplitude * math.sin(angle - math.pi / 2.0)
        return self.mean_rate_per_s * max(raw, self.floor_fraction)

    @property
    def peak_rate_per_s(self) -> float:
        """The daily-peak expected rate."""
        return self.mean_rate_per_s * self.peak_to_mean

    def shifted(self, phase_h: float) -> "DiurnalTrafficModel":
        """This curve moved ``phase_h`` hours east (peak earlier)."""
        return dataclasses.replace(self, phase_h=self.phase_h + phase_h)

    def scaled(self, factor: float) -> "DiurnalTrafficModel":
        """This curve at ``factor`` times the traffic (per-region share)."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return dataclasses.replace(
            self, mean_rate_per_s=self.mean_rate_per_s * factor
        )


def diurnal_poisson_stream(
    model: DiurnalTrafficModel,
    duration_s: float,
    samples_per_request: int = 64,
    samples_jitter: float = 0.3,
    burst_rate_per_hour: float = 0.0,
    burst_factor: float = 3.0,
    burst_duration_s: float = 30.0,
    seed: int = 0,
) -> List[Request]:
    """Seeded diurnal + bursty arrivals (sinusoid-modulated Poisson).

    A non-homogeneous Poisson process whose intensity is the diurnal
    curve, multiplied by ``burst_factor`` inside burst episodes — short
    flash-crowd windows themselves arriving as a Poisson process at
    ``burst_rate_per_hour``.  Sampling is Lewis-Shedler thinning against
    the peak intensity, with all randomness drawn from one seeded
    generator in a fixed order (episodes, then arrivals, then sizes), so
    the stream is a pure function of the seed.
    """
    if duration_s <= 0:
        raise ValueError("duration must be positive")
    if burst_rate_per_hour < 0 or burst_duration_s < 0:
        raise ValueError("burst rate and duration must be non-negative")
    if burst_factor < 1:
        raise ValueError("burst factor must be at least 1")
    rng = np.random.default_rng(seed)
    episodes: List[float] = []
    if burst_rate_per_hour > 0:
        episode_rate = burst_rate_per_hour / 3600.0
        t = 0.0
        while True:
            t += rng.exponential(1.0 / episode_rate)
            if t >= duration_s:
                break
            episodes.append(t)

    def in_burst(t: float) -> bool:
        index = bisect.bisect_right(episodes, t) - 1
        return index >= 0 and t < episodes[index] + burst_duration_s

    lam_max = model.peak_rate_per_s * (burst_factor if episodes else 1.0)
    arrivals: List[float] = []
    t = 0.0
    while True:
        t += rng.exponential(1.0 / lam_max)
        if t >= duration_s:
            break
        rate = model.rate_at(t)
        # Outside a burst the old ``rate * 1.0`` was exact, so only an
        # episode lookup that hits changes the rate.
        if episodes and in_burst(t):
            rate *= burst_factor
        if rng.random() * lam_max <= rate:
            arrivals.append(t)
    sizes = np.maximum(
        1,
        np.round(
            samples_per_request * rng.lognormal(0, samples_jitter, size=len(arrivals))
        ).astype(int),
    )
    return [
        Request(arrival_s=float(t), samples=int(s), request_id=i)
        for i, (t, s) in enumerate(zip(arrivals, sizes))
    ]


def replay_stream(
    inter_arrival_s: Sequence[float], samples: Sequence[int]
) -> List[Request]:
    """Build a request stream from recorded inter-arrival gaps — the
    'traffic-replay tests' of section 4.1."""
    if len(inter_arrival_s) != len(samples):
        raise ValueError("gap and size traces must align")
    requests = []
    t = 0.0
    for i, (gap, size) in enumerate(zip(inter_arrival_s, samples)):
        if gap < 0:
            raise ValueError("inter-arrival gaps must be non-negative")
        t += gap
        requests.append(Request(arrival_s=t, samples=int(size), request_id=i))
    return requests
