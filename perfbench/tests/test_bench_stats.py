"""Sample helpers and the comparison rules, on synthetic samples."""

import copy

import pytest

from perfbench import compare, stats
from perfbench.runner import load_spec


def test_quartiles_follow_statistics_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert stats.quartiles(values) == (1.5, 3.0, 4.5)
    summary = stats.summary(values)
    assert summary == {"min": 1.0, "q1": 1.5, "median": 3.0, "q3": 4.5,
                       "n": 5}
    assert stats.spread(values) == pytest.approx(1.0)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    with pytest.raises(ValueError):
        stats.quartiles([])


def _parent():
    return [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.03, 9.97, 10.0]


def test_gain_needs_nine_tenths_of_the_pairs():
    parent = _parent()
    change = [p - 1.0 for p in parent]
    result = stats.verdict(parent, change, bound=0.25, better="lower")
    assert (result.label, result.wins, result.pairs) == ("gain", 10, 10)

    change[0] = parent[0] + 0.01  # 9/10 wins is still a gain
    assert stats.verdict(parent, change, 0.25, "lower").label == "gain"
    change[1] = parent[1]  # a tie counts for neither side: 8/10
    result = stats.verdict(parent, change, 0.25, "lower")
    assert result.wins == 8
    assert result.label == "within bound"


def test_gain_needs_medians_apart_by_more_than_parent_iqr():
    parent = _parent()
    change = [p - 0.01 for p in parent]  # wins every pair, tiny shift
    result = stats.verdict(parent, change, 0.1, "lower")
    assert result.wins == 10
    assert result.label == "within bound"


def test_regression_and_direction():
    parent = _parent()
    slower = [p * 1.2 for p in parent]
    assert stats.verdict(parent, slower, 0.1, "lower").label == "regression"
    assert stats.verdict(parent, slower, 0.25, "lower").label == (
        "within bound")
    # For a higher-is-better metric the same numbers are a gain.
    assert stats.verdict(parent, slower, 0.1, "higher").label == "gain"


def test_unresolved_when_spread_exceeds_bound():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0, 1.5, 2.5, 3.5, 4.5, 3.0]
    change = [v * 0.95 for v in parent]
    assert stats.spread(parent) > 0.1
    assert stats.verdict(parent, change, 0.1, "lower").label == "unresolved"
    # Unless every change run is better than every parent run.
    change = [v / 10 for v in parent]
    assert stats.verdict(parent, change, 0.1, "lower").label == "better"


def _run(wall, digest="d", failed=0, counts=3):
    return {"workloads": {"zoo_sweep": {
        "attempted": 9, "failed": failed, "digest": digest,
        "metrics": {
            "wall_s": {"value": wall, "unit": "s"},
            "setup_s": {"value": 0.5, "unit": "s"},
            "peak_rss_mb": {"value": 100.0, "unit": "MiB"},
        },
        "layers": {"executor.calls": {"value": counts, "unit": "count"},
                   "executor.self_s": {"value": wall / 2, "unit": "s"}},
    }}}


def test_compare_rows_and_landing_rule():
    spec = load_spec()
    parent = [_run(2.0 + 0.001 * i) for i in range(10)]
    faster = [_run(1.5 + 0.001 * i) for i in range(10)]
    text, ok = compare.compare(parent, faster, spec)
    assert ok
    rows = [line.split() for line in text.splitlines()]
    assert any(row[:2] == ["zoo_sweep", "wall_s"] and "gain" in row
               for row in rows)
    assert "digest identical: yes" in text

    slower = [_run(2.5 + 0.001 * i) for i in range(10)]
    text, ok = compare.compare(parent, slower, spec)
    assert not ok and "regression" in text

    other_digest = [_run(1.5, digest="e") for _ in range(10)]
    assert not compare.compare(parent, other_digest, spec)[1]

    more_errors = [_run(1.5, failed=1) for _ in range(10)]
    text, ok = compare.compare(parent, more_errors, spec)
    assert not ok and "INCREASED" in text

    text, _ = compare.compare(parent[:3], faster[:3], spec)
    assert "no gain can be claimed" in text and "gain (" not in text


def test_agree_checks_bounds_digests_failures_and_counts():
    spec = load_spec()
    first = [_run(2.0), _run(2.05)]
    second = [_run(2.1), _run(2.02)]
    assert compare.agree(first, second, spec)[1]
    assert not compare.agree(first, [_run(3.0)], spec)[1]
    assert not compare.agree(first, [_run(2.0, digest="e")], spec)[1]
    assert not compare.agree(first, [_run(2.0, failed=1)], spec)[1]
    assert not compare.agree(first, [_run(2.0, counts=4)], spec)[1]
    # Time-derived layer metrics may differ between sets.
    moved = copy.deepcopy(second)
    moved[0]["workloads"]["zoo_sweep"]["layers"]["executor.self_s"]["value"] = 9
    assert compare.agree(first, moved, spec)[1]
