"""Model-level efficiency metrics built on execution reports."""

from __future__ import annotations

from repro.arch.server import gpu_server, mtia2i_server
from repro.perf.executor import ExecutionReport
from repro.tco.model import GPU_COST, MTIA2I_COST, PlatformComparison, compare_platforms


def compare_reports(
    mtia_report: ExecutionReport,
    gpu_report: ExecutionReport,
) -> PlatformComparison:
    """Server-level Perf/TCO and Perf/Watt comparison from two per-chip
    execution reports of the same model, one accelerator per model on
    the production servers."""
    return compare_platforms(
        model_name=mtia_report.model_name,
        mtia_chip_throughput=mtia_report.throughput_samples_per_s,
        gpu_chip_throughput=gpu_report.throughput_samples_per_s,
        mtia_chip_power_w=mtia_report.avg_power_w,
        gpu_chip_power_w=gpu_report.avg_power_w,
        mtia_srv=mtia2i_server(),
        gpu_srv=gpu_server(),
        mtia_costs=MTIA2I_COST,
        gpu_costs=GPU_COST,
        mtia_accelerators_per_model=1,
        gpu_accelerators_per_model=1,
    )
