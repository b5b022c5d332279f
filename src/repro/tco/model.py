"""Total Cost of Ownership model.

The paper's headline result is a 44% average TCO reduction versus GPUs —
equivalently, ~1.8x performance per TCO dollar.  TCO here follows the
standard datacenter accounting: amortized capital expense (server cost
over a depreciation period) plus operating expense (power at datacenter
PUE and electricity price, plus per-kW provisioning overhead).

Cost inputs are estimates from public sources (GPU street prices, typical
hyperscaler PUE/electricity figures) and the structural fact the paper
leans on: an in-house 100 mm^2-class ASIC without HBM costs a small
fraction of a flagship GPU, and 24 of them share one host platform.
"""

from __future__ import annotations

import dataclasses

from repro.arch.server import ServerSpec, gpu_server, mtia2i_server


ELECTRICITY_USD_PER_KWH = 0.08
# Datacenter power usage effectiveness, and the server depreciation
# period capital expense is amortized over.
PUE = 1.1
DEPRECIATION_YEARS = 4.0
# Amortized datacenter provisioning cost per watt-year (power delivery +
# cooling infrastructure).
PROVISIONING_USD_PER_WATT_YEAR = 2.0


@dataclasses.dataclass(frozen=True)
class CostInputs:
    """Build costs of one server design."""

    accelerator_cost_usd: float
    platform_cost_usd: float  # CPUs, DRAM, NIC, chassis, switches


# Estimated build costs.  The GPU figure reflects an H100-80GB-class
# accelerator at hyperscaler volume pricing; the MTIA figure reflects an
# in-house 5 nm ~420 mm^2 die with LPDDR (no HBM, no interposer) at
# production volume, including module/packaging.
MTIA2I_COST = CostInputs(accelerator_cost_usd=2200.0, platform_cost_usd=40_000.0)
GPU_COST = CostInputs(accelerator_cost_usd=24_000.0, platform_cost_usd=50_000.0)

# Cost-structure constants for chips *derived* from the MTIA 2i spec
# (``repro.codesign``).  The module cost splits into silicon (scales
# super-linearly with die area: candidate dice per wafer fall linearly
# while defect-limited yield falls on top — area^1.25 captures both to
# first order), memory (LPDDR at commodity $/GiB), and a fixed share
# (substrate, passives, test, assembly) that does not scale with the
# design.  ``derived_cost_inputs`` calibrates the silicon term so the
# reference chip reproduces ``MTIA2I_COST`` exactly.
DERIVED_COST_FIXED_USD = 300.0
DERIVED_COST_LPDDR_USD_PER_GIB = 3.5
DERIVED_COST_AREA_EXPONENT = 1.25


def derived_cost_inputs(chip) -> CostInputs:
    """Cost inputs for a chip derived from the MTIA 2i reference design.

    The TCO of a codesign candidate must not silently reuse the base
    chip's build cost: a 144-PE, 512 MiB-SRAM candidate is a much
    bigger die and more LPDDR stacks than MTIA 2i.  This scales the
    accelerator cost from ``chip.die_area_mm2`` and
    ``chip.dram.capacity_bytes``; the platform (host CPUs, NIC,
    chassis) is shared across candidates and carries over unchanged.

    Calling this with MTIA 2i itself returns ``MTIA2I_COST`` exactly
    (the silicon coefficient is calibrated against it), so existing
    MTIA 2i results are unaffected.
    """
    from repro.arch.mtia import mtia2i_spec

    reference = mtia2i_spec()
    gib = 1024.0**3
    ref_memory = DERIVED_COST_LPDDR_USD_PER_GIB * (
        reference.dram.capacity_bytes / gib
    )
    ref_silicon = (
        MTIA2I_COST.accelerator_cost_usd
        - DERIVED_COST_FIXED_USD
        - ref_memory
    )
    area_ratio = chip.die_area_mm2 / reference.die_area_mm2
    silicon = ref_silicon * area_ratio**DERIVED_COST_AREA_EXPONENT
    memory = DERIVED_COST_LPDDR_USD_PER_GIB * (chip.dram.capacity_bytes / gib)
    return dataclasses.replace(
        MTIA2I_COST,
        accelerator_cost_usd=silicon + memory + DERIVED_COST_FIXED_USD,
    )


@dataclasses.dataclass(frozen=True)
class TcoBreakdown:
    """Annualized TCO of one server."""

    capex_per_year: float
    energy_per_year: float
    provisioning_per_year: float

    @property
    def total_per_year(self) -> float:
        """Total annual cost of owning and running the server."""
        return self.capex_per_year + self.energy_per_year + self.provisioning_per_year


def measured_server_power_watts(server: ServerSpec, report) -> float:
    """Average server draw from a measured execution.

    ``report`` is anything exposing ``avg_power_w`` per accelerator —
    in practice an :class:`~repro.perf.executor.ExecutionReport`.  The
    platform share matches the convention of
    :func:`~repro.arch.server.ServerSpec.typical_power_watts`.
    """
    return (
        server.platform_power_watts * 0.8
        + server.accelerators_per_server * report.avg_power_w
    )


def server_tco(
    server: ServerSpec,
    costs: CostInputs,
    avg_power_watts: float = None,
    report=None,
) -> TcoBreakdown:
    """Annualized TCO for one server at a given average draw.

    The energy term uses, in order of preference: an explicit
    ``avg_power_watts``, the measured draw of an execution ``report``
    (via :func:`measured_server_power_watts`), or the server's nameplate
    typical power.  Passing the report matters: a memory-bound model
    leaves the compute array idle and draws well under typical, which
    the nameplate default silently overstates.  The provisioning term
    always uses nameplate (rack budgets are provisioned for peak — the
    subject of section 5.3).
    """
    if avg_power_watts is None:
        if report is not None:
            avg_power_watts = measured_server_power_watts(server, report)
        else:
            avg_power_watts = server.typical_power_watts
    capex = (
        costs.platform_cost_usd
        + server.accelerators_per_server * costs.accelerator_cost_usd
    ) / DEPRECIATION_YEARS
    hours_per_year = 8760.0
    energy = avg_power_watts / 1000.0 * PUE * hours_per_year * ELECTRICITY_USD_PER_KWH
    provisioning = server.max_power_watts * PROVISIONING_USD_PER_WATT_YEAR
    return TcoBreakdown(
        capex_per_year=capex,
        energy_per_year=energy,
        provisioning_per_year=provisioning,
    )


def perf_per_tco(
    server_throughput: float, server: ServerSpec, costs: CostInputs,
    avg_power_watts: float = None,
) -> float:
    """Samples/s per annual TCO dollar."""
    breakdown = server_tco(server, costs, avg_power_watts)
    return server_throughput / breakdown.total_per_year


def perf_per_watt(
    server_throughput: float,
    avg_power_watts: float = None,
    server: ServerSpec = None,
    report=None,
) -> float:
    """Samples/s per watt of average server draw.

    Either pass ``avg_power_watts`` directly, or pass ``server`` and a
    measured execution ``report`` to use the measured draw.
    """
    if avg_power_watts is None:
        if server is None or report is None:
            raise ValueError(
                "pass avg_power_watts, or both server and report"
            )
        avg_power_watts = measured_server_power_watts(server, report)
    if avg_power_watts <= 0:
        raise ValueError("power must be positive")
    return server_throughput / avg_power_watts


@dataclasses.dataclass(frozen=True)
class PlatformComparison:
    """MTIA-vs-GPU efficiency ratios for one model."""

    model_name: str
    mtia_server_throughput: float
    gpu_server_throughput: float
    mtia_power_w: float
    gpu_power_w: float
    perf_per_tco_ratio: float
    perf_per_watt_ratio: float

    @property
    def tco_reduction(self) -> float:
        """Fractional TCO reduction at iso-performance (the paper's 44%)."""
        return 1.0 - 1.0 / self.perf_per_tco_ratio if self.perf_per_tco_ratio else 0.0


def compare_platforms(
    model_name: str,
    mtia_chip_throughput: float,
    gpu_chip_throughput: float,
    mtia_chip_power_w: float,
    gpu_chip_power_w: float,
    mtia_srv: ServerSpec = None,
    gpu_srv: ServerSpec = None,
    mtia_costs: CostInputs = MTIA2I_COST,
    gpu_costs: CostInputs = GPU_COST,
    mtia_accelerators_per_model: int = 1,
    gpu_accelerators_per_model: int = 1,
) -> PlatformComparison:
    """Server-level Perf/TCO and Perf/Watt ratios from per-chip numbers.

    ``*_accelerators_per_model`` captures sharding.  Sharding distributes
    *capacity* (embedding tables that exceed one device's DRAM), not
    serving: every accelerator still executes merge/remote jobs, so
    server throughput stays chips x per-chip throughput.  What sharding
    does cost is cross-device transfers of pooled embeddings, modelled as
    a small per-extra-shard throughput tax.
    """
    from repro.autotune.sharding import shard_throughput_tax

    mtia_srv = mtia_srv or mtia2i_server()
    gpu_srv = gpu_srv or gpu_server()
    mtia_server_tp = (
        mtia_chip_throughput * mtia_srv.accelerators_per_server
        * shard_throughput_tax(mtia_accelerators_per_model)
    )
    gpu_server_tp = (
        gpu_chip_throughput * gpu_srv.accelerators_per_server
        * shard_throughput_tax(gpu_accelerators_per_model)
    )
    mtia_power = (
        mtia_srv.platform_power_watts * 0.8
        + mtia_srv.accelerators_per_server * mtia_chip_power_w
    )
    gpu_power = (
        gpu_srv.platform_power_watts * 0.8
        + gpu_srv.accelerators_per_server * gpu_chip_power_w
    )
    mtia_ppt = perf_per_tco(mtia_server_tp, mtia_srv, mtia_costs, mtia_power)
    gpu_ppt = perf_per_tco(gpu_server_tp, gpu_srv, gpu_costs, gpu_power)
    return PlatformComparison(
        model_name=model_name,
        mtia_server_throughput=mtia_server_tp,
        gpu_server_throughput=gpu_server_tp,
        mtia_power_w=mtia_power,
        gpu_power_w=gpu_power,
        perf_per_tco_ratio=mtia_ppt / gpu_ppt if gpu_ppt else 0.0,
        perf_per_watt_ratio=(
            perf_per_watt(mtia_server_tp, mtia_power)
            / perf_per_watt(gpu_server_tp, gpu_power)
        ),
    )
