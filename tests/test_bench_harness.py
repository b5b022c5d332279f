"""Tests for the benchmark-regression harness (repro.obs.bench + CLI)."""

import json

import pytest

from repro.cli import main
from repro.obs.bench import (
    RUNTIME_GUARD_FLOOR_S,
    RUNTIME_REGRESSION_RATIO,
    aggregate,
    diff_results,
    dump_json,
    golden_violations,
    load_results,
    load_scalar_documents,
    normalize_text,
    runtime_comparison,
    runtime_regressions,
    write_results,
    write_scalars,
)


class TestNormalizeText:
    @pytest.mark.parametrize("raw,expected", [
        ("a", "a\n"),
        ("a\n", "a\n"),
        ("a\n\n\n", "a\n"),
        ("a\nb", "a\nb\n"),
        ("", "\n"),
    ])
    def test_exactly_one_trailing_newline(self, raw, expected):
        assert normalize_text(raw) == expected


class TestWriteScalars:
    def test_document_shape(self, tmp_path):
        path = write_scalars(tmp_path, "bench", {"x": 1, "y": 2.5})
        document = json.loads(path.read_text())
        assert document == {
            "name": "bench", "schema": 1, "scalars": {"x": 1, "y": 2.5}
        }

    def test_bytes_stable_across_key_order(self, tmp_path):
        a = write_scalars(tmp_path / "a", "b", {"x": 1.0, "y": 2.0})
        b = write_scalars(tmp_path / "b", "b", {"y": 2.0, "x": 1.0})
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().endswith("}\n")
        assert not a.read_text().endswith("\n\n")

    @pytest.mark.parametrize("bad", [
        {"x": float("nan")},
        {"x": float("inf")},
        {"x": "str"},
        {"x": True},
    ])
    def test_rejects_non_finite_and_non_numeric(self, tmp_path, bad):
        with pytest.raises((TypeError, ValueError)):
            write_scalars(tmp_path, "b", bad)

    def test_rejects_empty_scalars(self, tmp_path):
        with pytest.raises(ValueError):
            write_scalars(tmp_path, "b", {})

    def test_loader_skips_foreign_json(self, tmp_path):
        write_scalars(tmp_path, "mine", {"x": 1})
        (tmp_path / "foreign.json").write_text('{"not": "ours"}\n')
        assert list(load_scalar_documents(tmp_path)) == ["mine"]


class TestAggregate:
    def test_runtimes_attached_by_name(self, tmp_path):
        write_scalars(tmp_path, "a", {"x": 1})
        write_scalars(tmp_path, "b", {"y": 2})
        results = aggregate(tmp_path, runtimes={"a": 1.23456})
        assert results["schema"] == 1
        assert results["benchmarks"]["a"]["runtime_s"] == 1.235
        assert "runtime_s" not in results["benchmarks"]["b"]

    def test_round_trip(self, tmp_path):
        write_scalars(tmp_path, "a", {"x": 1})
        results = aggregate(tmp_path)
        path = write_results(results, tmp_path / "BENCH_results.json")
        assert load_results(path) == results
        assert load_results(tmp_path / "missing.json") is None
        # Deterministic serialization.
        assert path.read_text() == dump_json(results)


def _results(**benchmarks):
    return {
        "schema": 1,
        "benchmarks": {
            name: {"scalars": scalars} for name, scalars in benchmarks.items()
        },
    }


class TestDiff:
    def test_within_tolerance_is_clean(self):
        diff = diff_results(
            _results(a={"x": 100.0}), _results(a={"x": 104.0}), rel_tol=0.05
        )
        assert diff.clean
        assert "drift (ok)" in diff.report()

    def test_regression_flagged_both_directions(self):
        base = _results(a={"x": 100.0})
        for moved in (90.0, 110.0):  # unexplained speedups count too
            diff = diff_results(base, _results(a={"x": moved}), rel_tol=0.05)
            assert not diff.clean
            assert "REGRESSION" in diff.report()
            assert diff.regressions[0].rel_change == pytest.approx(
                (moved - 100.0) / 100.0
            )

    def test_volatile_keys_never_fail(self):
        base = {"schema": 1, "benchmarks": {
            "a": {"scalars": {"x": 1.0, "runtime_s": 10.0}}}}
        cur = {"schema": 1, "benchmarks": {
            "a": {"scalars": {"x": 1.0, "runtime_s": 99.0}}}}
        assert diff_results(base, cur).clean

    def test_subset_run_is_informational_not_failing(self):
        # A --smoke run covering fewer benchmarks must diff clean.
        base = _results(a={"x": 1.0}, b={"y": 2.0})
        diff = diff_results(base, _results(a={"x": 1.0}))
        assert diff.clean
        assert diff.missing_benchmarks == ["b"]
        diff = diff_results(_results(a={"x": 1.0}), base)
        assert diff.clean
        assert diff.added_benchmarks == ["b"]

    def test_negative_tolerance_rejected(self):
        with pytest.raises(ValueError):
            diff_results(_results(), _results(), rel_tol=-0.1)


def _timed(**runtimes):
    return {
        "schema": 1,
        "benchmarks": {
            name: {"scalars": {"x": 1.0}, "runtime_s": runtime}
            for name, runtime in runtimes.items()
        },
    }


class TestRuntimeGuard:
    def test_within_budget_is_clean(self):
        # 1.4x on a multi-second benchmark is inside the 1.5x budget.
        base, cur = _timed(a=10.0, b=2.0), _timed(a=14.0, b=2.1)
        assert runtime_regressions(base, cur) == []
        table = runtime_comparison(base, cur)
        assert table["a"]["ok"] and table["b"]["ok"]
        assert table["a"]["budget_s"] == pytest.approx(15.0)

    def test_slowdown_past_ratio_fires(self):
        offenders = runtime_regressions(_timed(a=10.0), _timed(a=16.0))
        assert len(offenders) == 1
        assert offenders[0].benchmark == "a"
        assert offenders[0].ratio == pytest.approx(1.6)
        assert "re-baseline" in str(offenders[0])

    def test_sub_second_benchmarks_get_absolute_floor(self):
        # 2.7x on a 0.3 s baseline stays under the 1 s floor: noise,
        # not a regression.  Past the floor the guard fires.
        assert RUNTIME_GUARD_FLOOR_S == 1.0
        assert runtime_regressions(_timed(a=0.3), _timed(a=0.8)) == []
        offenders = runtime_regressions(_timed(a=0.3), _timed(a=1.1))
        assert [r.benchmark for r in offenders] == ["a"]

    def test_worst_offender_first(self):
        offenders = runtime_regressions(
            _timed(a=10.0, b=10.0), _timed(a=20.0, b=40.0)
        )
        assert [r.benchmark for r in offenders] == ["b", "a"]

    def test_missing_runtime_skipped(self):
        # --no-run snapshots carry no runtime_s; nothing to guard.
        base = _timed(a=10.0)
        cur = _results(a={"x": 1.0})
        assert runtime_comparison(base, cur) == {}
        assert runtime_regressions(base, cur) == []

    def test_ratio_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            runtime_comparison(_timed(), _timed(), ratio=1.0)

    def test_speedups_recorded_not_failed(self):
        # The fast-engine direction: large speedups are the point.
        assert RUNTIME_REGRESSION_RATIO == 1.5
        table = runtime_comparison(_timed(a=30.0), _timed(a=3.0))
        assert table["a"]["ok"]
        assert table["a"]["speedup"] == pytest.approx(10.0)


class TestGoldenViolations:
    GOLDENS = {"a": {"x": (100.0, 0.05)}}

    def test_within_band_passes(self):
        assert golden_violations(_results(a={"x": 103.0}), self.GOLDENS) == []

    def test_outside_band_violates(self):
        violations = golden_violations(_results(a={"x": 90.0}), self.GOLDENS)
        assert len(violations) == 1 and "a.x" in violations[0]

    def test_missing_pinned_scalar_violates(self):
        violations = golden_violations(_results(a={"other": 1.0}), self.GOLDENS)
        assert violations == ["a.x: pinned scalar missing"]

    def test_uncovered_benchmark_skipped(self):
        assert golden_violations(_results(b={"y": 1.0}), self.GOLDENS) == []

    def test_default_goldens_pass_against_committed_snapshot(self):
        # The repository's own BENCH_results.json must satisfy the
        # pinned goldens it ships with.
        results = load_results("BENCH_results.json")
        if results is None:
            pytest.skip("no committed BENCH_results.json")
        assert golden_violations(results) == []


class TestBenchCli:
    def _seed_out(self, bench_dir, value=1.0):
        (bench_dir / "test_demo.py").write_text("def test_demo():\n    pass\n")
        write_scalars(bench_dir / "out", "demo", {"x": value})

    def test_no_run_aggregates_and_writes(self, tmp_path, capsys):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        self._seed_out(bench_dir)
        out = tmp_path / "BENCH_results.json"
        assert main([
            "bench", "--no-run", "--dir", str(bench_dir),
            "--out", str(out), "--baseline", str(out),
        ]) == 0
        results = load_results(out)
        assert results["benchmarks"]["demo"]["scalars"] == {"x": 1.0}
        assert "no baseline" in capsys.readouterr().out

    def test_default_out_leaves_the_baseline_untouched(self, tmp_path):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        self._seed_out(bench_dir)
        baseline = tmp_path / "BENCH_results.json"
        write_results(_results(demo={"x": 1.0}, other={"y": 2.0}), baseline)
        before = baseline.read_bytes()
        for _ in range(2):  # a second run must not read the first's output
            assert main([
                "bench", "--no-run", "--dir", str(bench_dir),
                "--baseline", str(baseline),
            ]) == 0
        assert baseline.read_bytes() == before
        written = load_results(bench_dir / "out" / "bench_results.json")
        assert written["benchmarks"] == {"demo": {"scalars": {"x": 1.0}}}

    def test_regression_against_baseline_fails(self, tmp_path, capsys):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        self._seed_out(bench_dir)
        out = tmp_path / "BENCH_results.json"
        write_results(_results(demo={"x": 2.0}), out)
        assert main([
            "bench", "--no-run", "--dir", str(bench_dir),
            "--out", str(out), "--baseline", str(out),
        ]) == 1
        assert "REGRESSION" in capsys.readouterr().out
        # The new snapshot still gets written for inspection.
        assert load_results(out)["benchmarks"]["demo"]["scalars"]["x"] == 1.0

    def test_runtime_regression_fails_run(self, tmp_path, capsys):
        # A benchmark 1.5x+ over its baseline runtime (and past the 1 s
        # noise floor) must fail the run with the re-baseline hint, and
        # the runtime-comparison artifact must land for CI to upload.
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "test_demo.py").write_text(
            "import time\n"
            "from repro.obs.bench import write_scalars\n"
            "def test_demo():\n"
            "    time.sleep(1.1)\n"
            f"    write_scalars({str(bench_dir / 'out')!r}, "
            "'demo', {'x': 1.0})\n"
        )
        out = tmp_path / "BENCH_results.json"
        baseline = _timed(demo=0.2)
        baseline["benchmarks"]["demo"]["scalars"] = {"x": 1.0}
        write_results(baseline, tmp_path / "baseline.json")
        assert main([
            "bench", "--dir", str(bench_dir), "--out", str(out),
            "--baseline", str(tmp_path / "baseline.json"),
        ]) == 1
        captured = capsys.readouterr().out
        assert "RUNTIME REGRESSION" in captured
        assert "re-baseline" in captured
        artifact = json.loads(
            (bench_dir / "out" / "runtime_comparison.json").read_text()
        )
        assert artifact["demo"]["ok"] is False

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["bench", "--no-run", "--dir", str(tmp_path / "nope")])

    def test_empty_out_dir_rejected(self, tmp_path):
        bench_dir = tmp_path / "benchmarks"
        bench_dir.mkdir()
        (bench_dir / "test_demo.py").write_text("def test_demo():\n    pass\n")
        with pytest.raises(SystemExit, match="no scalar artifacts"):
            main([
                "bench", "--no-run", "--dir", str(bench_dir),
                "--out", str(tmp_path / "o.json"),
                "--baseline", str(tmp_path / "o.json"),
            ])
