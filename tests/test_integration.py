"""Cross-module integration tests: the paper's end-to-end stories."""

import dataclasses

import pytest

from repro.arch import gpu_spec, mtia1_spec, mtia2i_spec
from repro.core import optimize_graph
from repro.models import figure6_models, lc1
from repro.models.dlrm import build_dlrm, small_dlrm
from repro.perf import Executor


def _graph(batch=512):
    return build_dlrm(dataclasses.replace(small_dlrm(), batch=batch))


class TestGenerationalUplift:
    def test_mtia2i_speedup_over_mtia1_consistent_with_specs(self):
        """MTIA 2i triples overall performance versus MTIA 1 (section 3.1).
        End to end the uplift can exceed the raw FLOPS ratio (~3.5x)
        because MTIA 1 is also issue-bound (no multi-context instructions,
        32-row accumulates, slower launches)."""
        new = Executor(mtia2i_spec()).run(_graph(1024), 1024, warmup_runs=2)
        old = Executor(mtia1_spec()).run(_graph(1024), 1024, warmup_runs=2)
        speedup = new.throughput_samples_per_s / old.throughput_samples_per_s
        assert 2.0 <= speedup <= 8.0


class TestOptimizationStack:
    def test_graph_passes_do_not_hurt_throughput(self):
        chip = mtia2i_spec()
        plain = Executor(chip).run(_graph(1024), 1024, warmup_runs=2)
        optimized_graph = optimize_graph(_graph(1024))
        optimized = Executor(chip).run(optimized_graph, 1024, warmup_runs=2)
        assert optimized.throughput_samples_per_s >= plain.throughput_samples_per_s * 0.95

    def test_fusion_reduces_launches_end_to_end(self):
        graph = _graph(1024)
        assert len(optimize_graph(graph).ops) < len(graph.ops)


class TestCrossPlatformSanity:
    def test_gpu_chip_faster_than_mtia_chip(self):
        """One H100-class GPU outruns one 85 W MTIA chip; MTIA wins at the
        server/TCO level, not chip versus chip."""
        mtia = Executor(mtia2i_spec()).run(_graph(2048), 2048, warmup_runs=2)
        gpu = Executor(gpu_spec()).run(_graph(2048), 2048, warmup_runs=2)
        assert gpu.throughput_samples_per_s > mtia.throughput_samples_per_s

    def test_24_mtia_comparable_to_8_gpus(self):
        """Section 3.1: the 24-chip MTIA server's total performance rivals
        the 8-GPU server (within ~2x either way across models)."""
        from repro.core import evaluate_model

        evaluation = evaluate_model(lc1())
        server_ratio = (
            evaluation.mtia_chip_throughput * 24
        ) / (evaluation.gpu_chip_throughput * 8)
        assert 0.4 <= server_ratio <= 2.5


class TestFigure6Shape:
    """The qualitative claims of section 7, measured end to end."""

    @pytest.fixture(scope="class")
    def evaluations(self):
        from repro.core import evaluate_model

        return {m.name: evaluate_model(m) for m in figure6_models()}

    def test_all_models_beat_gpu_on_perf_per_tco(self, evaluations):
        for name, evaluation in evaluations.items():
            assert evaluation.production_perf_per_tco > 0.9, name

    def test_lc1_leads(self, evaluations):
        ppt = {n: e.production_perf_per_tco for n, e in evaluations.items()}
        lc_ranked = sorted(
            [n for n in ppt if n.startswith("LC")], key=ppt.get, reverse=True
        )
        assert set(lc_ranked[:2]) == {"LC1", "LC5"}
        assert max(ppt.values()) <= ppt["LC1"] * 1.05

    def test_hc_models_are_the_worst(self, evaluations):
        """Lowest efficiency on HC2 and HC4 (section 7)."""
        ranked = sorted(
            evaluations, key=lambda n: evaluations[n].production_perf_per_tco
        )
        assert set(ranked[:2]) <= {"HC2", "HC3", "HC4"}
        assert "HC4" in ranked[:2]

    def test_average_tco_reduction_near_44_percent(self, evaluations):
        import numpy as np

        mean_ppt = np.mean(
            [e.production_perf_per_tco for e in evaluations.values()]
        )
        reduction = 1.0 - 1.0 / mean_ppt
        assert 0.35 <= reduction <= 0.55

    def test_perf_per_watt_near_parity_for_hc(self, evaluations):
        """Perf/Watt is the harder metric (section 7): HC models hover
        near parity with the GPU."""
        for name in ("HC2", "HC3", "HC4"):
            assert 0.7 <= evaluations[name].production_perf_per_watt <= 1.6, name
