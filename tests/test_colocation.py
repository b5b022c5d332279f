"""Tests for multi-model server co-location (paper section 3.4)."""

import pytest

from repro.arch import mtia2i_server, mtia2i_spec
from repro.fleet import (
    AllocationError,
    ColocationRequest,
    HOST_DRAM_AMPLIFICATION_NAIVE,
    HOST_DRAM_AMPLIFICATION_OPTIMIZED,
    colocate,
)
from repro.models import lc1, hc3
from repro.perf import Executor


@pytest.fixture(scope="module")
def lc1_report():
    model = lc1()
    return Executor(mtia2i_spec()).run(model.graph(), model.batch, warmup_runs=1)


@pytest.fixture(scope="module")
def hc3_report():
    model = hc3()
    return Executor(mtia2i_spec()).run(model.graph(), model.batch, warmup_runs=1)


class TestColocation:
    def test_placements_cover_all_instances(self, lc1_report, hc3_report):
        result = colocate(
            mtia2i_server(),
            [
                ColocationRequest("LC1", lc1_report, instances=20),
                ColocationRequest("HC3", hc3_report, instances=2,
                                  accelerators_per_instance=2),
            ],
        )
        assert len(result.placements) == 22
        used = [a for p in result.placements for a in p.accelerator_ids]
        assert len(used) == len(set(used)) == 24

    def test_sharded_instances_stay_on_one_socket(self, hc3_report):
        result = colocate(
            mtia2i_server(),
            [ColocationRequest("HC3", hc3_report, instances=4,
                               accelerators_per_instance=2)],
        )
        per_socket = mtia2i_server().accelerators_per_socket
        for placement in result.placements:
            sockets = {a // per_socket for a in placement.accelerator_ids}
            assert len(sockets) == 1

    def test_optimized_copies_avoid_host_bound(self, lc1_report):
        """After Meta's copy-elimination work, a full server of LC1 fits
        within host DRAM bandwidth."""
        result = colocate(
            mtia2i_server(),
            [ColocationRequest("LC1", lc1_report, instances=24)],
            amplification=HOST_DRAM_AMPLIFICATION_OPTIMIZED,
        )
        assert result.host_bound_sockets == []
        assert all(p.derate == 1.0 for p in result.placements)

    def test_naive_copies_make_host_the_bottleneck(self, lc1_report):
        """Section 3.4: before the optimizations, host DRAM bandwidth is
        the bottleneck for low-complexity models on all 24 accelerators."""
        result = colocate(
            mtia2i_server(),
            [ColocationRequest("LC1", lc1_report, instances=24)],
            amplification=HOST_DRAM_AMPLIFICATION_NAIVE,
        )
        assert len(result.host_bound_sockets) == 2
        assert all(p.derate < 1.0 for p in result.placements)

    def test_high_complexity_models_do_not_contend(self, hc3_report):
        """HC models move few host bytes per second — no contention."""
        result = colocate(
            mtia2i_server(),
            [ColocationRequest("HC3", hc3_report, instances=12,
                               accelerators_per_instance=2)],
            amplification=HOST_DRAM_AMPLIFICATION_NAIVE,
        )
        assert result.host_bound_sockets == []

    def test_total_throughput_aggregates(self, lc1_report):
        result = colocate(
            mtia2i_server(),
            [ColocationRequest("LC1", lc1_report, instances=6)],
        )
        total = sum(
            p.effective_throughput for p in result.placements if p.name == "LC1"
        )
        assert total == pytest.approx(
            6 * lc1_report.throughput_samples_per_s, rel=0.01
        )

    def test_over_capacity_rejected(self, lc1_report):
        with pytest.raises(AllocationError):
            colocate(
                mtia2i_server(),
                [ColocationRequest("LC1", lc1_report, instances=25)],
            )

    def test_request_validation(self, lc1_report):
        with pytest.raises(ValueError):
            ColocationRequest("x", lc1_report, instances=0)
