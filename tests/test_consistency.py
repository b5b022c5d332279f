"""Cross-package consistency checks: the model's internal bookkeeping
agrees with itself wherever two paths compute the same quantity."""

import dataclasses

import pytest

from repro.arch import gpu_spec, mtia1_spec, mtia2i_spec, mtia_nextgen_spec, spec_ratio
from repro.graph import OpGraph, fc, transpose
from repro.kernels import estimate_op
from repro.models.dlrm import build_dlrm, small_dlrm
from repro.perf import Executor
from repro.tco import GPU_COST, MTIA2I_COST, server_tco
from repro.tensors import DType, model_input, weight


class TestSpecConsistency:
    def test_dpe_config_reproduces_every_chip_peak(self):
        """The DPE geometry inferred from any chip's aggregate peak must
        reproduce that peak when multiplied back out."""
        from repro.kernels.gemm import _dpe_config_for

        for spec in (mtia2i_spec(), mtia1_spec(), gpu_spec(), mtia_nextgen_spec()):
            config = _dpe_config_for(spec)
            dtype = DType.FP16 if DType.FP16 in spec.gemm.peak_flops else DType.INT8
            reproduced = config.peak_flops(dtype) * spec.num_pes
            assert reproduced == pytest.approx(
                spec.peak_gemm_flops(dtype), rel=0.10  # tile-count rounding
            ), spec.name

    def test_spec_ratio_symmetry(self):
        forward = spec_ratio(mtia2i_spec(ecc_enabled=False), mtia1_spec())
        backward = spec_ratio(mtia1_spec(), mtia2i_spec(ecc_enabled=False))
        for key, value in forward.items():
            assert backward[key] == pytest.approx(1.0 / value)

    def test_int8_always_double_fp16(self):
        for spec in (mtia2i_spec(), mtia1_spec(), gpu_spec()):
            if DType.FP16 in spec.gemm.peak_flops and DType.INT8 in spec.gemm.peak_flops:
                ratio = spec.peak_gemm_flops(DType.INT8) / spec.peak_gemm_flops(DType.FP16)
                assert ratio == pytest.approx(2.0, rel=0.01), spec.name


class TestGraphExecutorConsistency:
    def test_report_flops_match_graph_flops(self):
        graph = build_dlrm(dataclasses.replace(small_dlrm(), batch=512))
        report = Executor(mtia2i_spec()).run(graph, 512)
        assert report.total_flops == pytest.approx(graph.total_flops())

    def test_latency_is_sum_of_profiles(self):
        graph = build_dlrm(dataclasses.replace(small_dlrm(), batch=512))
        report = Executor(mtia2i_spec()).run(graph, 512)
        assert report.latency_s == pytest.approx(
            sum(p.time_s for p in report.op_profiles)
        )

    def test_op_time_at_least_bottleneck(self):
        graph = build_dlrm(dataclasses.replace(small_dlrm(), batch=512))
        report = Executor(mtia2i_spec()).run(graph, 512)
        for profile in report.op_profiles:
            floor = max(
                profile.compute_s, profile.issue_s, profile.dram_s,
                profile.sram_s, profile.noc_s, profile.host_s,
            )
            assert profile.time_s >= floor

    def test_kernel_estimate_matches_profile_compute(self):
        """The executor's per-op compute time is the kernel estimate
        divided by the chip's sustained fraction."""
        chip = mtia2i_spec()
        graph = OpGraph(name="one_fc")
        x = model_input(1024, 1024, name="x")
        op = graph.add(fc(x, weight(1024, 1024, name="w"), name="fc"))
        report = Executor(chip).run(graph, 1024)
        estimate = estimate_op(op, chip)
        assert report.op_profiles[0].compute_s == pytest.approx(
            estimate.compute_s / chip.sustained_gemm_fraction
        )


class TestFusionConsistency:
    def test_fused_sub_ops_preserved(self):
        x = model_input(64, 64, name="x")
        graph = OpGraph(name="t")
        t = graph.add(transpose(x, name="t"))
        for i in range(2):
            graph.add(fc(t.output, weight(64, 32, name=f"w{i}"), name=f"fc{i}"))
        from repro.graph.passes import fuse_sibling_transpose_fc

        fused_graph = fuse_sibling_transpose_fc(graph)
        sub_ops = fused_graph.ops[0].attrs["sub_ops"]
        assert len(sub_ops) == 3


class TestTcoConsistency:
    def test_per_server_costs_scale_with_accelerator_price(self):
        from repro.arch import mtia2i_server

        cheap = dataclasses.replace(MTIA2I_COST, accelerator_cost_usd=1000)
        pricey = dataclasses.replace(MTIA2I_COST, accelerator_cost_usd=5000)
        delta = (
            server_tco(mtia2i_server(), pricey).capex_per_year
            - server_tco(mtia2i_server(), cheap).capex_per_year
        )
        assert delta == pytest.approx(24 * 4000 / MTIA2I_COST.depreciation_years)

    def test_gpu_accelerators_dominate_gpu_capex(self):
        from repro.arch import gpu_server

        breakdown = server_tco(gpu_server(), GPU_COST)
        accelerator_share = (
            8 * GPU_COST.accelerator_cost_usd
            / (8 * GPU_COST.accelerator_cost_usd + GPU_COST.platform_cost_usd)
        )
        assert accelerator_share > 0.75
        assert breakdown.capex_per_year > breakdown.provisioning_per_year
