"""Server-level effects: host-DRAM contention and production utilization.

Two fleet-scale phenomena the paper reports are modelled here:

* **Host DRAM contention** (section 3.4): packing 24 accelerators per
  server makes host DRAM bandwidth the bottleneck for low-complexity
  models running on all accelerators at once.  Every batch's input
  tensors touch host DRAM multiple times (NIC receive, preprocessing,
  DMA read); Meta's optimizations (eliminating copies, offloading the
  FP32->FP16 cast) cut the amplification roughly in half.

* **Production utilization** (section 5.4): serving must reserve buffer
  capacity for peak demand, and capacity is allocated in whole-device
  quanta.  Smaller devices allocate finer, so they idle less — the
  mechanism behind the extra 5-90% Perf/TCO MTIA gained in production
  versus offline replay.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional

import numpy as np

from repro.arch.server import ServerSpec

# Host-DRAM touches per payload byte after Meta's copy-elimination work
# (receive + single staging pass + DMA read).
HOST_DRAM_AMPLIFICATION_OPTIMIZED = 2.0
# Before optimization: extra memcpys and an FP32 input representation.
HOST_DRAM_AMPLIFICATION_NAIVE = 5.0
# Host DRAM bandwidth reserved for the OS, the serving tier, and feature
# preprocessing.
HOST_BASELINE_FRACTION = 0.2


@dataclasses.dataclass(frozen=True)
class HostContentionResult:
    """Outcome of the host-DRAM contention check for one socket."""

    demand_bytes_per_s: float
    capacity_bytes_per_s: float
    throughput_scale: float  # <= 1; multiply per-chip throughput by this

    @property
    def host_bound(self) -> bool:
        """Whether host DRAM limits the accelerators."""
        return self.throughput_scale < 1.0


def host_dram_contention(
    host_bytes_per_batch: float,
    batches_per_s_per_chip: float,
    server: ServerSpec,
    amplification: float = HOST_DRAM_AMPLIFICATION_OPTIMIZED,
) -> HostContentionResult:
    """Scale factor when every accelerator on a socket runs this model,
    after ``HOST_BASELINE_FRACTION`` of host bandwidth is reserved."""
    if host_bytes_per_batch < 0 or batches_per_s_per_chip < 0:
        raise ValueError("inputs must be non-negative")
    chips = server.accelerators_per_socket
    capacity = server.sockets[0].dram_bandwidth_bytes_per_s * (1 - HOST_BASELINE_FRACTION)
    demand = chips * batches_per_s_per_chip * host_bytes_per_batch * amplification
    scale = 1.0 if demand <= capacity else capacity / demand
    return HostContentionResult(
        demand_bytes_per_s=demand,
        capacity_bytes_per_s=capacity,
        throughput_scale=scale,
    )


@dataclasses.dataclass(frozen=True)
class UtilizationResult:
    """Production utilization derived from peak-provisioned allocation."""

    mean_utilization: float
    devices_provisioned: int
    peak_load_fraction: float


def production_utilization(
    device_throughput: float,
    mean_load: float,
    peak_to_mean: float = 2.2,
    rng: Optional[np.random.Generator] = None,
    seed: int = 42,
) -> UtilizationResult:
    """Average device utilization when capacity is provisioned for peak.

    A service with diurnal load (mean ``mean_load`` samples/s, peak
    ``peak_to_mean`` times that) must provision
    ``ceil(peak / device_throughput)`` devices.  Average utilization is
    mean load over provisioned capacity — so the *larger* the device
    quantum relative to the load, the worse the rounding and buffering
    waste.  This is section 5.4's 'smaller chips' argument made
    quantitative.

    Randomness is reproducible: pass either a ``seed`` or an explicit
    ``rng`` (which wins when both are given); the default matches the
    historical behaviour (``default_rng(42)``).
    """
    if device_throughput <= 0 or mean_load <= 0 or peak_to_mean < 1:
        raise ValueError("invalid utilization inputs")
    if rng is None:
        rng = np.random.default_rng(seed)
    # Diurnal load curve with noise.
    num_intervals = 2000
    t = np.linspace(0, 2 * np.pi, num_intervals)
    swing = (peak_to_mean - 1.0) / (peak_to_mean + 1.0)
    load = mean_load * (1 + swing * np.sin(t)) / (1 - swing * 0)
    load = load * rng.lognormal(0, 0.08, size=num_intervals)
    peak = np.quantile(load, 0.999)
    devices = max(1, math.ceil(peak / device_throughput))
    utilization = float(np.mean(load) / (devices * device_throughput))
    return UtilizationResult(
        mean_utilization=min(1.0, utilization),
        devices_provisioned=devices,
        peak_load_fraction=float(peak / (devices * device_throughput)),
    )


def production_gain(
    mtia_chip_throughput: float,
    gpu_chip_throughput: float,
    mean_load: float,
    seed: int = 42,
) -> float:
    """Extra MTIA-vs-GPU efficiency in production versus replay.

    Both platforms serve the same load; the one with the smaller device
    quantum wastes less provisioned capacity (load peaks at 2.2x its
    mean).  Returns the ratio of mean
    utilizations (MTIA / GPU) — the paper observed 1.05x to 1.9x.  Both
    platforms see the same ``seed``-derived load curve.
    """
    mtia = production_utilization(mtia_chip_throughput, mean_load, seed=seed)
    gpu = production_utilization(gpu_chip_throughput, mean_load, seed=seed)
    if gpu.mean_utilization == 0:
        return 1.0
    return mtia.mean_utilization / gpu.mean_utilization
