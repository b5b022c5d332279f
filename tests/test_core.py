"""Tests for the core facade, evaluation pipeline, and case study."""

import dataclasses

import pytest

from repro.core import (
    CaseStudyModelConfig,
    Mtia2iSystem,
    build_case_study_model,
    evaluate_model,
    gpu_shards_for,
    optimize_graph,
)
from repro.graph import OpType
from repro.models import lc1, hc3, small_dlrm
from repro.models.dlrm import build_dlrm


def _builder():
    config = small_dlrm()
    return lambda batch: build_dlrm(dataclasses.replace(config, batch=batch))


class TestOptimizeGraph:
    def test_passes_reduce_launches_and_keep_flops(self):
        graph = _builder()(512)
        optimized = optimize_graph(graph)
        optimized.validate_schedule()
        assert len(optimized.ops) <= len(graph.ops)
        assert optimized.total_flops() == pytest.approx(graph.total_flops(), rel=0.01)


class TestMtia2iSystem:
    def test_deploy_end_to_end(self):
        system = Mtia2iSystem()
        result = system.deploy(_builder(), model_name="small")
        assert result.report.throughput_samples_per_s > 0
        assert result.autotune.shard_plan.num_shards == 1
        assert result.report.activations_in_lls

    def test_kernel_database_persists(self):
        system = Mtia2iSystem()
        system.deploy(_builder(), model_name="first")
        assert len(system.kernel_database) > 0

    def test_gpu_baseline_report(self):
        system = Mtia2iSystem()
        report = system.baseline_gpu_report(_builder(), batch=512)
        assert report.chip_name.startswith("H100")


class TestEvaluationPipeline:
    def test_lc1_mtia_wins(self):
        evaluation = evaluate_model(lc1())
        assert evaluation.production_perf_per_tco > 1.5
        assert evaluation.production_perf_per_watt > 1.0
        assert evaluation.replay.perf_per_tco_ratio > 1.0

    def test_hc3_shape(self):
        """HC3: MTIA wins on Perf/TCO, roughly parity on Perf/Watt."""
        evaluation = evaluate_model(hc3())
        assert evaluation.production_perf_per_tco > 1.0
        assert 0.7 <= evaluation.production_perf_per_watt <= 1.6

    def test_production_gain_in_band(self):
        evaluation = evaluate_model(lc1())
        assert 0.95 <= evaluation.production_gain <= 1.9

    def test_tco_reduction_definition(self):
        evaluation = evaluate_model(lc1())
        expected = 1.0 - 1.0 / evaluation.production_perf_per_tco
        assert evaluation.production_tco_reduction == pytest.approx(expected)

    def test_gpu_sharding_by_capacity(self):
        assert gpu_shards_for(lc1(), evaluate_model.__globals__["default_gpu_spec"]()) == 1
        assert gpu_shards_for(hc3(), evaluate_model.__globals__["default_gpu_spec"]()) >= 2


class TestCaseStudyModel:
    def test_early_variant_around_140mf(self):
        graph = build_case_study_model(
            CaseStudyModelConfig(batch=256, early_stage_version=True)
        )
        mf = graph.flops_per_sample(256) / 1e6
        assert 90 <= mf <= 220

    def test_final_variant_around_940mf(self):
        graph = build_case_study_model(CaseStudyModelConfig(batch=512))
        mf = graph.flops_per_sample(512) / 1e6
        assert 700 <= mf <= 1200

    def test_complexity_grew_about_6_7x(self):
        early = build_case_study_model(
            CaseStudyModelConfig(batch=512, early_stage_version=True)
        ).flops_per_sample(512)
        final = build_case_study_model(CaseStudyModelConfig(batch=512)).flops_per_sample(512)
        assert 4 <= final / early <= 9

    def test_has_ibb_and_mha(self):
        graph = build_case_study_model(CaseStudyModelConfig(batch=512))
        kinds = {op.op_type for op in graph.ops}
        assert OpType.BROADCAST in kinds
        assert OpType.MHA in kinds

    def test_deferred_ibb_reduces_flops(self):
        config = CaseStudyModelConfig(batch=512)
        eager = build_case_study_model(config)
        deferred = build_case_study_model(config, deferred_ibb=True)
        assert deferred.total_flops() < eager.total_flops()

    def test_rejected_change_grows_activations(self):
        base = build_case_study_model(CaseStudyModelConfig(batch=512))
        rejected = build_case_study_model(
            CaseStudyModelConfig(batch=512, remote_input_scale=3.0)
        )
        assert rejected.peak_activation_bytes() > base.peak_activation_bytes()
