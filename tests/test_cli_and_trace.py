"""Tests for the CLI and the Chrome-trace exporter."""

import dataclasses
import json

import pytest

from repro.arch import mtia2i_spec
from repro.cli import build_parser, main
from repro.models.dlrm import build_dlrm, small_dlrm
from repro.perf import Executor, summarize_trace, to_chrome_trace, write_chrome_trace


@pytest.fixture()
def report():
    graph = build_dlrm(dataclasses.replace(small_dlrm(), batch=256))
    return Executor(mtia2i_spec()).run(graph, 256, warmup_runs=1)


class TestTrace:
    def test_events_cover_all_ops(self, report):
        trace = to_chrome_trace(report)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(events) == len(report.op_profiles)

    def test_durations_sum_to_latency(self, report):
        trace = to_chrome_trace(report)
        total_us = sum(e["dur"] for e in trace["traceEvents"] if e["ph"] == "X")
        assert total_us == pytest.approx(report.latency_s * 1e6, rel=0.001)

    def test_events_back_to_back(self, report):
        events = [e for e in to_chrome_trace(report)["traceEvents"] if e["ph"] == "X"]
        cursor = 0.0
        for event in events:
            assert event["ts"] == pytest.approx(cursor, abs=0.01)
            cursor += event["dur"]

    def test_metadata_present(self, report):
        trace = to_chrome_trace(report)
        assert trace["otherData"]["batch"] == 256
        names = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert any(e["name"] == "process_name" for e in names)

    def test_write_round_trips_as_json(self, report, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(report, str(path))
        loaded = json.loads(path.read_text())
        assert "traceEvents" in loaded

    def test_summary_mentions_top_op(self, report):
        text = summarize_trace(report, top=3)
        slowest = max(report.op_profiles, key=lambda p: p.time_s)
        assert slowest.op_name in text


class TestCli:
    def test_parser_builds(self):
        parser = build_parser()
        args = parser.parse_args(["specs", "--chip", "mtia1"])
        assert args.chip == "mtia1"

    def test_specs_command(self, capsys):
        assert main(["specs", "--chip", "mtia2i"]) == 0
        out = capsys.readouterr().out
        assert "MTIA 2i" in out and "Dot Product Engine" in out

    def test_llm_command_exit_codes(self, capsys):
        # Viable serving exits 0; infeasible exits 1.
        assert main(["llm", "--model", "llama2-7b", "--chip", "gpu"]) == 0
        assert main(["llm", "--model", "llama2-7b", "--chip", "mtia2i"]) == 1

    def test_evaluate_command(self, capsys):
        assert main(["evaluate", "--model", "LC1"]) == 0
        out = capsys.readouterr().out
        assert "Perf/TCO" in out

    def test_chaos_single_scenario_without_the_storm(self, capsys):
        # The storm headline is printed only when the storm ran.
        assert main(["chaos", "--smoke", "--scenario", "thermal"]) == 0
        out = capsys.readouterr().out
        assert "thermal" in out and "headline" not in out

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["evaluate", "--model", "LC99"])

    def test_trace_command(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        assert main(["trace", "--model", "LC2", "--out", str(out_path)]) == 0
        assert out_path.exists()
