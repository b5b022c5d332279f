"""Total Cost of Ownership accounting (the paper's headline metric)."""

from repro.tco.model import (
    GPU_COST,
    MTIA2I_COST,
    CostInputs,
    compare_platforms,
    measured_server_power_watts,
    perf_per_tco,
    perf_per_watt,
    server_tco,
)

__all__ = [
    "CostInputs",
    "GPU_COST",
    "MTIA2I_COST",
    "compare_platforms",
    "measured_server_power_watts",
    "perf_per_tco",
    "perf_per_watt",
    "server_tco",
]
