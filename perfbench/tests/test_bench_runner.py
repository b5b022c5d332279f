"""Runner aggregation, failure accounting and the command line.

The tests that start workers run real (small) iterations, so they take
a few seconds each.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import reference, runner
from perfbench.workloads import WORKLOADS

SPEC = runner.load_spec()
# Records made on a host running at half the reference speed.
SLOW_REF_S = 2 * reference.NOMINAL_REF_S


def _record(wall=1.0, digest="d", traced=False, failures=(), calls=5,
            ref=SLOW_REF_S, setup=0.4):
    record = {"workload": "zoo_sweep", "seed": 0, "traced": traced,
              "wall_s": wall, "ref_s": ref, "setup_s": setup,
              "peak_rss_mb": 90.0, "digest": digest,
              "failures": list(failures)}
    if traced:
        record["ledger"] = {
            m["name"]: (calls if m["unit"] in runner.COUNT_UNITS else wall)
            for m in SPEC["per_layer"] if m["name"] != "trace.overhead"
        }
    return record


def test_summary_statistics_and_overhead():
    records = [_record(1.2, setup=0.5), _record(1.0, setup=0.4),
               _record(1.1, setup=0.6)]
    records += [_record(1.25, traced=True), _record(1.3, traced=True)]
    row = runner.summarize(records, SPEC)
    assert (row["attempted"], row["failed"], row["error_rate"]) == (5, 0, 0.0)
    wall, setup = row["metrics"]["wall_s"], row["metrics"]["setup_s"]
    # Host times are rescaled to the reference speed: halved here.
    assert wall["value"] == pytest.approx(0.5)
    assert wall["raw"]["min"] == 1.0 and wall["raw"]["median"] == 1.1
    assert setup["value"] == pytest.approx(0.25)
    assert row["metrics"]["peak_rss_mb"]["value"] == 90.0
    assert row["metrics"]["ref_s"]["value"] == SLOW_REF_S
    assert row["layers"]["executor.calls"]["value"] == 5
    assert row["layers"]["executor.self_s"]["value"] == 1.25
    assert row["layers"]["trace.overhead"]["value"] == pytest.approx(0.25)
    assert row["samples"]["traced_wall_s"] == [1.25, 1.3]


def test_fastest_answer_pairs_with_fastest_reference():
    # A slow reference timing must not make an answer look fast.
    records = [_record(1.0, ref=reference.NOMINAL_REF_S),
               _record(1.1, ref=3 * reference.NOMINAL_REF_S)]
    row = runner.summarize(records, SPEC)
    assert row["metrics"]["wall_s"]["value"] == pytest.approx(1.0)


def test_failed_check_counts_in_error_rate():
    records = [_record(), _record(failures=["po2 P99 is not below"]),
               _record(), _record()]
    row = runner.summarize(records, SPEC)
    assert row["failed"] == 1
    assert row["error_rate"] == 0.25
    assert "iteration 1: po2 P99 is not below" in row["failures"]
    assert row["metrics"]["wall_s"]["raw"]["n"] == 3


def test_digest_and_layer_count_mismatches_fail():
    records = [_record(), _record(digest="other"), _record(),
               _record(traced=True), _record(traced=True, calls=6),
               _record(traced=True)]
    row = runner.summarize(records, SPEC)
    assert row["failed"] == 2
    assert row["digest"] == "d"
    assert any("output digest other differs" in f for f in row["failures"])
    assert any("layer counts differ" in f for f in row["failures"])


def test_raising_worker_is_a_failed_attempt():
    record = runner.run_worker(runner.ROOT, "no_such_workload", 0, False)
    assert "KeyError" in record["failures"][0]
    row = runner.summarize([record], SPEC)
    assert (row["attempted"], row["failed"], row["error_rate"]) == (1, 1, 1.0)
    line = runner.result_line(
        {"protocol": {"trace": 0}, "workloads": {"x": row}}, SPEC)
    assert line["correct"] is False


def test_traced_and_untraced_digests_agree(tmp_path):
    records = runner.collect(runner.ROOT, ["zoo_sweep", "fleet_outage"],
                             seed=0, untraced=1, traced=1,
                             trace_dir=tmp_path)
    for name, runs in records.items():
        assert [r["traced"] for r in runs] == [False, True]
        assert all(not r["failures"] for r in runs), runs
        assert runs[0]["digest"] == runs[1]["digest"]
        assert all(r["ref_s"] > 0 for r in runs)
        trace = json.loads((tmp_path / f"{name}.trace.json").read_text())
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert spans[0]["name"] == "answer"
    zoo = records["zoo_sweep"][1]["ledger"]
    assert zoo["executor.calls"] == 72 and zoo["memory.calls"] > 0
    assert zoo["cluster.runs"] == 0


def _command(*extra):
    return [sys.executable, "-m", "perfbench", "run",
            "--workload", "resilience_drill", "--seed", "0", *extra]


def test_printed_metric_names_equal_the_declaration(tmp_path):
    for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
        proc = subprocess.run(
            _command("--seconds", "1", "--trace", trace,
                     "--out", str(tmp_path / "results.json")),
            cwd=runner.ROOT, capture_output=True, text=True, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        declared = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in line["metrics"].items()} == declared
        for name in declared:
            assert f"  {name} " in proc.stdout


def test_refuses_to_run_without_a_checkout(tmp_path):
    shutil.copy(runner.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(runner.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        _command("--seconds", "20", "--trace", "0"), cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "no repro package" in proc.stderr


def test_reference_kernel_is_fixed_work():
    assert reference.kernel() == reference.kernel()
    assert 0 < reference.reference_s(repeats=1) < 10


def test_declaration_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[group]]
    assert len(names) == len(set(names))
