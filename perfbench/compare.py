"""Compare benchmark runs of two commits, or two sets of the same code.

``compare PARENT CHANGE`` pairs the i-th run of each side (run them
alternately, at least ten pairs) and gives one row per (workload,
end-to-end metric) with each side's median and quartiles, the pairs
the change won, and the verdict of :func:`perfbench.stats.verdict`
under the metric's bound from ``BENCHMARK.json``.  Each workload also
gets a row with output-digest identity and the error rates, which may
not increase.

``compare --agree SET1 SET2`` is the reproducibility check for one
commit: every end-to-end median of one set lies within the metric's
bound of the other's, the output digests and layer counts are
identical, and no run failed.

A side is a ``results.json`` file or a directory of them.
"""

from __future__ import annotations

import json
import pathlib
from typing import Dict, List, Tuple

from perfbench import stats
from perfbench.runner import COUNT_UNITS

MIN_PAIRS = 10


def load_runs(path: pathlib.Path) -> List[Dict]:
    """The results documents of one side, in file-name order."""
    paths = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for item in paths:
        document = json.loads(item.read_text())
        if isinstance(document, dict) and "workloads" in document:
            runs.append(document)
    if not runs:
        raise ValueError(f"no results documents in {path}")
    return runs


def _values(runs: List[Dict], workload: str, metric: str) -> List[float]:
    return [run["workloads"][workload]["metrics"][metric]["value"]
            for run in runs
            if metric in run["workloads"].get(workload, {}).get("metrics", {})]


def _workloads(*sides: List[Dict]) -> List[str]:
    names = None
    for runs in sides:
        for run in runs:
            present = set(run["workloads"])
            names = present if names is None else names & present
    return sorted(names or ())


def _digests(workload: str, *sides: List[Dict]) -> set:
    return {run["workloads"][workload]["digest"]
            for runs in sides for run in runs}


def _error_rate(runs: List[Dict], workload: str) -> float:
    rows = [run["workloads"][workload] for run in runs]
    attempted = sum(row["attempted"] for row in rows)
    return sum(row["failed"] for row in rows) / attempted if attempted else 0.0


def _cell(summary: Dict[str, float]) -> str:
    return (f"{summary['median']:.4g} "
            f"[{summary['q1']:.4g}, {summary['q3']:.4g}]")


def compare(parent: List[Dict], change: List[Dict],
            spec: Dict) -> Tuple[str, bool]:
    """The comparison table and whether the change may land: no
    regression, identical digests, no increase in the error rate."""
    pairs = min(len(parent), len(change))
    lines = [f"{pairs} pairs (parent, change)"]
    if pairs < MIN_PAIRS:
        lines.append(f"fewer than {MIN_PAIRS} pairs: no gain can be claimed")
    lines.append(f"{'workload':<18} {'metric':<12} {'parent':>26} "
                 f"{'change':>26} {'wins':>6}  verdict")
    ok = True
    for workload in _workloads(parent, change):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = _values(parent, workload, name)
            after = _values(change, workload, name)
            if not before or not after:
                continue
            result = stats.verdict(before, after, metric["bound"],
                                   metric["better"])
            label = result.label
            if label == "gain" and result.pairs < MIN_PAIRS:
                label = "within bound"
            ok = ok and label != "regression"
            lines.append(
                f"{workload:<18} {name:<12} {_cell(result.parent):>26} "
                f"{_cell(result.change):>26} "
                f"{result.wins:>3}/{result.pairs:<2}  {label} "
                f"({result.relative_change:+.1%}, bound "
                f"{metric['bound']:.0%})")
        same = len(_digests(workload, parent, change)) == 1
        errors = (_error_rate(parent, workload), _error_rate(change, workload))
        ok = ok and same and errors[1] <= errors[0]
        lines.append(
            f"{workload:<18} digest identical: {'yes' if same else 'NO'}; "
            f"error_rate {errors[0]:.3f} -> {errors[1]:.3f}"
            f"{'' if errors[1] <= errors[0] else ' (INCREASED)'}")
    return "\n".join(lines), ok


def agree(first: List[Dict], second: List[Dict],
          spec: Dict) -> Tuple[str, bool]:
    """Whether two sets of runs of the same code agree (module doc)."""
    count_names = [m["name"] for m in spec["per_layer"]
                   if m["unit"] in COUNT_UNITS]
    lines = []
    ok = True
    for workload in _workloads(first, second):
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = _values(first, workload, name)
            b = _values(second, workload, name)
            if not a or not b:
                ok = False
                lines.append(f"{workload:<18} {name:<12} missing")
                continue
            median_a = stats.quartiles(a)[1]
            median_b = stats.quartiles(b)[1]
            drift = abs(median_b - median_a) / median_a
            within = drift <= metric["bound"]
            ok = ok and within
            lines.append(
                f"{workload:<18} {name:<12} {median_a:>12.6g} "
                f"{median_b:>12.6g}  {drift:6.1%} "
                f"{'within' if within else 'OUTSIDE'} bound "
                f"{metric['bound']:.0%}")
        runs = first + second
        same = len(_digests(workload, first, second)) == 1
        failed = sum(run["workloads"][workload]["failed"] for run in runs)
        counts = {
            tuple(run["workloads"][workload]["layers"][n]["value"]
                  for n in count_names
                  if n in run["workloads"][workload]["layers"])
            for run in runs
        }
        ok = ok and same and failed == 0 and len(counts) == 1
        lines.append(
            f"{workload:<18} digest identical: {'yes' if same else 'NO'}; "
            f"failed iterations {failed}; layer counts identical: "
            f"{'yes' if len(counts) == 1 else 'NO'}")
    lines.append("agree" if ok else "DISAGREE")
    return "\n".join(lines), ok
