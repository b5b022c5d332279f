"""Tests for the TCO model."""

import pytest

from repro.arch import gpu_server, mtia2i_server
from repro.tco import model as tco_model
from repro.tco import (
    GPU_COST,
    MTIA2I_COST,
    compare_platforms,
    measured_server_power_watts,
    perf_per_tco,
    perf_per_watt,
    server_tco,
)


class TestServerTco:
    def test_breakdown_components_positive(self):
        breakdown = server_tco(mtia2i_server(), MTIA2I_COST)
        assert breakdown.capex_per_year > 0
        assert breakdown.energy_per_year > 0
        assert breakdown.provisioning_per_year > 0
        assert breakdown.total_per_year == pytest.approx(
            breakdown.capex_per_year
            + breakdown.energy_per_year
            + breakdown.provisioning_per_year
        )

    def test_mtia_server_much_cheaper(self):
        """The structural fact behind the 44%: an MTIA server costs a
        fraction of a GPU server."""
        mtia = server_tco(mtia2i_server(), MTIA2I_COST)
        gpu = server_tco(gpu_server(), GPU_COST)
        assert gpu.total_per_year > 2 * mtia.total_per_year

    def test_capex_dominates_gpu_tco(self):
        gpu = server_tco(gpu_server(), GPU_COST)
        assert gpu.capex_per_year > gpu.energy_per_year

    def test_custom_power_input(self):
        low = server_tco(mtia2i_server(), MTIA2I_COST, avg_power_watts=1000)
        high = server_tco(mtia2i_server(), MTIA2I_COST, avg_power_watts=3000)
        assert high.energy_per_year > low.energy_per_year
        # Provisioning is nameplate-based, unchanged.
        assert high.provisioning_per_year == low.provisioning_per_year

    def test_cost_inputs_validation(self):
        """The facility constants are physical: a positive depreciation
        period and a PUE of at least 1."""
        assert tco_model.DEPRECIATION_YEARS > 0
        assert tco_model.PUE >= 1.0

    def test_higher_pue_raises_tco(self, monkeypatch):
        base = server_tco(mtia2i_server(), MTIA2I_COST)
        monkeypatch.setattr(tco_model, "PUE", 1.5)
        worse = server_tco(mtia2i_server(), MTIA2I_COST)
        assert worse.energy_per_year > base.energy_per_year
        assert worse.capex_per_year == base.capex_per_year


class TestMeasuredPower:
    """Threading measured execution power through the TCO model."""

    def _report(self):
        from repro.arch.mtia import mtia2i_spec
        from repro.models.zoo import hc1
        from repro.perf.executor import Executor

        model = hc1()
        return Executor(mtia2i_spec()).run(
            model.graph(), model.batch, warmup_runs=1
        )

    def test_measured_server_power_between_idle_and_nameplate(self):
        server = mtia2i_server()
        report = self._report()
        measured = measured_server_power_watts(server, report)
        assert measured < server.typical_power_watts
        assert measured > server.platform_power_watts * 0.8

    def test_report_lowers_energy_term_for_memory_bound_model(self):
        """A ranking model leaves the compute array partly idle, so its
        measured draw sits below nameplate typical — and the nameplate
        default silently overstates the energy bill."""
        server = mtia2i_server()
        report = self._report()
        nameplate = server_tco(server, MTIA2I_COST)
        measured = server_tco(server, MTIA2I_COST, report=report)
        assert measured.energy_per_year < nameplate.energy_per_year
        # Provisioning stays nameplate-based: racks are built for peak.
        assert measured.provisioning_per_year == nameplate.provisioning_per_year

    def test_measured_perf_per_watt_beats_nameplate(self):
        server = mtia2i_server()
        report = self._report()
        throughput = report.throughput_samples_per_s * server.accelerators_per_server
        measured = perf_per_watt(throughput, server=server, report=report)
        nameplate = perf_per_watt(throughput, server.typical_power_watts)
        assert measured > nameplate

    def test_perf_per_watt_requires_a_power_source(self):
        with pytest.raises(ValueError):
            perf_per_watt(1000.0)
        with pytest.raises(ValueError):
            perf_per_watt(1000.0, server=mtia2i_server())

    def test_explicit_power_wins_over_report(self):
        server = mtia2i_server()
        report = self._report()
        explicit = server_tco(
            server, MTIA2I_COST, avg_power_watts=1234.0, report=report
        )
        direct = server_tco(server, MTIA2I_COST, avg_power_watts=1234.0)
        assert explicit.energy_per_year == direct.energy_per_year


class TestComparison:
    def test_equal_perf_reflects_tco_gap(self):
        """If a chip-for-chip-weaker MTIA still matches the GPU server's
        total throughput, Perf/TCO tracks the cost ratio."""
        comparison = compare_platforms(
            "iso-perf",
            mtia_chip_throughput=1000,  # 24 chips -> 24k
            gpu_chip_throughput=3000,  # 8 GPUs -> 24k
            mtia_chip_power_w=65,
            gpu_chip_power_w=450,
        )
        assert comparison.mtia_server_throughput == pytest.approx(
            comparison.gpu_server_throughput
        )
        assert comparison.perf_per_tco_ratio > 2

    def test_tco_reduction_arithmetic(self):
        comparison = compare_platforms(
            "x", mtia_chip_throughput=1000, gpu_chip_throughput=3000,
            mtia_chip_power_w=65, gpu_chip_power_w=450,
        )
        expected = 1.0 - 1.0 / comparison.perf_per_tco_ratio
        assert comparison.tco_reduction == pytest.approx(expected)

    def test_sharding_costs_a_small_tax(self):
        base = compare_platforms(
            "x", 1000, 3000, 65, 450, mtia_accelerators_per_model=1
        )
        sharded = compare_platforms(
            "x", 1000, 3000, 65, 450, mtia_accelerators_per_model=2
        )
        assert sharded.mtia_server_throughput < base.mtia_server_throughput
        assert sharded.mtia_server_throughput > 0.9 * base.mtia_server_throughput

    def test_perf_per_watt_helper(self):
        assert perf_per_watt(1000, 500) == 2.0
        with pytest.raises(ValueError):
            perf_per_watt(1000, 0)

    def test_perf_per_tco_helper(self):
        value = perf_per_tco(1_000_000, mtia2i_server(), MTIA2I_COST)
        assert value > 0
