"""Tests for the executor, the SRAM/LPDDR bandwidth gap, the LLM model,
and metrics."""

import dataclasses
import hashlib
import json

import pytest

from repro.arch import gpu_spec, mtia1_spec, mtia2i_spec
from repro.codesign.space import derive_chip
from repro.models.dlrm import build_dlrm, small_dlrm
from repro.models.zoo import figure6_models
from repro.perf import (
    DECODE_REQUIREMENT_S,
    TTFT_REQUIREMENT_S,
    Executor,
    compare_reports,
    decode_report,
    evaluate_llm,
    llama2_7b,
    llama3_70b,
    llama3_8b,
    prefill_report,
)
from repro.tensors.tensor import stable_uid_scope
from repro.units import MiB


def _small_graph(batch=256):
    return build_dlrm(dataclasses.replace(small_dlrm(), batch=batch))


class TestExecutor:
    def test_report_basics(self):
        report = Executor(mtia2i_spec()).run(_small_graph(), 256)
        assert report.latency_s > 0
        assert report.throughput_samples_per_s == pytest.approx(256 / report.latency_s)
        assert report.total_flops > 0
        assert report.avg_power_w > 0
        assert len(report.op_profiles) > 5

    def test_warmup_improves_dense_hit_rate(self):
        chip = mtia2i_spec()
        cold = Executor(chip).run(_small_graph(), 256, warmup_runs=0)
        warm = Executor(chip).run(_small_graph(), 256, warmup_runs=2)
        assert warm.dense_hit_rate >= cold.dense_hit_rate
        assert warm.dense_hit_rate > 0.9  # small model: weights resident

    def test_warm_latency_not_worse(self):
        chip = mtia2i_spec()
        cold = Executor(chip).run(_small_graph(), 256, warmup_runs=0)
        warm = Executor(chip).run(_small_graph(), 256, warmup_runs=2)
        assert warm.latency_s <= cold.latency_s * 1.01

    def test_activations_pinned_in_lls_for_small_model(self):
        report = Executor(mtia2i_spec()).run(_small_graph(), 256)
        assert report.activations_in_lls
        assert report.lls_bytes + report.llc_bytes == mtia2i_spec().sram.capacity_bytes

    def test_sparse_hit_rate_in_band(self):
        """Section 4.2: 40-60% of sparse accesses stay in SRAM."""
        report = Executor(mtia2i_spec()).run(_small_graph(1024), 1024, warmup_runs=2)
        assert 0.35 <= report.sparse_hit_rate <= 0.95

    def test_bigger_batch_higher_throughput(self):
        chip = mtia2i_spec()
        small = Executor(chip).run(_small_graph(128), 128)
        large = Executor(chip).run(_small_graph(2048), 2048)
        assert large.throughput_samples_per_s > small.throughput_samples_per_s

    def test_mtia2i_beats_mtia1(self):
        new = Executor(mtia2i_spec()).run(_small_graph(512), 512)
        old = Executor(mtia1_spec()).run(_small_graph(512), 512)
        assert new.throughput_samples_per_s > 1.5 * old.throughput_samples_per_s

    def test_bottleneck_histogram_sums_to_one(self):
        report = Executor(mtia2i_spec()).run(_small_graph(), 256)
        assert sum(report.bottleneck_histogram().values()) == pytest.approx(1.0)

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            Executor(mtia2i_spec()).run(_small_graph(), 0)

    @pytest.mark.parametrize(
        "option",
        [
            {"host_input_fraction": -0.5},
            {"host_input_fraction": 1.5},
            {"host_input_fraction": float("nan")},
            {"host_input_fraction": float("inf")},
            {"zipf_exponent": -0.1},
            {"zipf_exponent": float("nan")},
            {"zipf_exponent": float("inf")},
            {"temperature_c": float("nan")},
            {"temperature_c": float("-inf")},
        ],
        ids=lambda option: "{}={}".format(*next(iter(option.items()))),
    )
    def test_rejects_bad_configuration(self, option):
        with pytest.raises(ValueError):
            Executor(mtia2i_spec(), **option)

    def test_deterministic(self):
        chip = mtia2i_spec()
        a = Executor(chip, seed=3).run(_small_graph(256), 256)
        b = Executor(chip, seed=3).run(_small_graph(256), 256)
        assert a.latency_s == pytest.approx(b.latency_s)

    def test_energy_consistent_with_power(self):
        report = Executor(mtia2i_spec()).run(_small_graph(), 256)
        assert report.energy_j == pytest.approx(report.avg_power_w * report.latency_s)
        assert report.avg_power_w <= mtia2i_spec().typical_watts * 1.01


class TestRoofline:
    def test_sram_13x_bandwidth_gap(self):
        """Section 3.6: SRAM offers ~13x LPDDR's bandwidth."""
        chip = mtia2i_spec(ecc_enabled=False)
        gap = chip.sram.bandwidth_bytes_per_s / chip.dram.bandwidth_bytes_per_s
        assert gap == pytest.approx(13.2, rel=0.05)


class TestLlm:
    def test_llama2_7b_params_about_7b(self):
        assert llama2_7b().num_params == pytest.approx(7e9, rel=0.1)

    def test_llama3_8b_params_about_8b(self):
        assert llama3_8b().num_params == pytest.approx(8e9, rel=0.1)

    def test_llama2_7b_on_mtia_matches_paper(self):
        """Section 3.6: prefill meets 600 ms TTFT; decode misses 60 ms."""
        verdict = evaluate_llm(llama2_7b(), mtia2i_spec())
        assert verdict.prefill_meets_ttft
        assert not verdict.decode_meets_latency
        assert not verdict.viable

    def test_llama3_8b_on_mtia_same_shape(self):
        """Section 8 repeats the finding for Llama3-8B."""
        verdict = evaluate_llm(llama3_8b(), mtia2i_spec())
        assert verdict.prefill_meets_ttft
        assert not verdict.decode_meets_latency

    def test_llama_on_gpu_is_viable(self):
        verdict = evaluate_llm(llama2_7b(), gpu_spec())
        assert verdict.viable

    def test_llama3_70b_unsuitable(self):
        """Section 8: 70B-class models are out of reach for MTIA 2i."""
        verdict = evaluate_llm(llama3_70b(), mtia2i_spec())
        assert not verdict.viable

    def test_decode_memory_bound_on_mtia(self):
        report = decode_report(llama2_7b(), mtia2i_spec())
        assert report.memory_bound
        # The weight stream alone exceeds the decode budget.
        assert report.weight_stream_s > DECODE_REQUIREMENT_S

    def test_prefill_compute_bound_on_mtia(self):
        report = prefill_report(llama2_7b(), mtia2i_spec())
        assert not report.memory_bound
        assert report.latency_s < TTFT_REQUIREMENT_S

    def test_decode_kv_traffic_grows_with_context(self):
        short = decode_report(llama2_7b(), mtia2i_spec(), context_tokens=512)
        long = decode_report(llama2_7b(), mtia2i_spec(), context_tokens=8192)
        assert long.kv_stream_s > short.kv_stream_s


class TestMetrics:
    def test_compare_reports_produces_ratios(self):
        mtia_rep = Executor(mtia2i_spec()).run(_small_graph(512), 512)
        gpu_rep = Executor(gpu_spec()).run(_small_graph(512), 512)
        comparison = compare_reports(mtia_rep, gpu_rep)
        assert comparison.perf_per_tco_ratio > 0
        assert comparison.perf_per_watt_ratio > 0
        assert -1 < comparison.tco_reduction < 1


# The executor's full report for every Figure 6 model on two chips —
# one whose LLC fits the dense weights and one (128 MiB SRAM) where they
# partly fit or stream.  Dense LLC hit rates across the set are 1.0,
# 0.976, 0.433 and 0.0, so every cache regime is covered.  Any change to
# the LLC model, the memory hierarchy or the TBE hit-rate solve must
# keep this digest.
EXECUTOR_REPORTS_SHA256 = "5011b1a7fda32be9187828e2f3b1c4d30d52f810a8e5fecf5cbb633e181be606"


def test_executor_reports_match_pinned_digest():
    base = mtia2i_spec()
    chips = [base, derive_chip(base, sram_capacity_bytes=128 * MiB)]
    reports = []
    for chip in chips:
        for model in figure6_models():
            with stable_uid_scope():
                graph = model.build_at(model.batch)
            reports.append(Executor(chip).run(graph, model.batch, warmup_runs=1))
    payload = json.dumps([dataclasses.asdict(r) for r in reports], sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == EXECUTOR_REPORTS_SHA256
