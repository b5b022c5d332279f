"""Fleet-level models: server contention, allocation, A/B testing."""

from repro.fleet.abtest import SyntheticCtrModel, normalized_entropy, run_ab_test
from repro.fleet.allocator import AllocationError, NumaAllocator
from repro.fleet.colocation import ColocationRequest, colocate
from repro.fleet.server_sim import (
    HOST_DRAM_AMPLIFICATION_NAIVE,
    HOST_DRAM_AMPLIFICATION_OPTIMIZED,
    host_dram_contention,
    production_gain,
    production_utilization,
)

__all__ = [
    "AllocationError",
    "ColocationRequest",
    "colocate",
    "HOST_DRAM_AMPLIFICATION_NAIVE",
    "HOST_DRAM_AMPLIFICATION_OPTIMIZED",
    "NumaAllocator",
    "SyntheticCtrModel",
    "host_dram_contention",
    "normalized_entropy",
    "production_gain",
    "production_utilization",
    "run_ab_test",
]
