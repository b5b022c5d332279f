"""Machine-readable benchmark results: write, aggregate, diff, pin.

The benchmarks under ``benchmarks/`` regenerate the paper's tables and
figures; historically they emitted free-text ``.txt`` artifacts only.
This module is the structured side of that loop:

* each benchmark records its headline scalars (speedups, crossover
  points, NE deltas) as ``benchmarks/out/<name>.json`` via the
  ``record_json`` fixture — deterministic bytes (sorted keys, fixed
  indentation, exactly one trailing newline) so identical runs produce
  identical artifacts;
* ``python -m repro bench`` aggregates those files into a top-level
  ``BENCH_results.json``, diffs it against the previous snapshot, and
  fails on drift beyond tolerance;
* the headline claims are additionally pinned against
  :mod:`repro.obs.golden`, so a refactor cannot silently move them.

Wall-clock runtimes are recorded in the aggregate for trending but are
*volatile*: the differ reports them and never fails on them.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from typing import Dict, List, Mapping, Optional, Union

SCHEMA_VERSION = 1

# Aggregate-level keys that may differ between identical runs (machine
# speed, scheduling): reported by the differ, never a regression.
VOLATILE_KEYS = frozenset({"runtime_s"})

Number = Union[int, float]
PathLike = Union[str, pathlib.Path]


def normalize_text(text: str) -> str:
    """Exactly one trailing newline, whatever the caller handed over."""
    return text.rstrip("\n") + "\n"


def _validated_scalars(name: str, scalars: Mapping[str, Number]) -> Dict[str, Number]:
    clean: Dict[str, Number] = {}
    for key, value in scalars.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(
                f"benchmark {name!r} scalar {key!r} must be int or float, "
                f"got {type(value).__name__}"
            )
        if value != value or value in (float("inf"), float("-inf")):
            raise ValueError(
                f"benchmark {name!r} scalar {key!r} must be finite, got {value!r}"
            )
        clean[key] = value
    if not clean:
        raise ValueError(f"benchmark {name!r} recorded no scalars")
    return clean


def dump_json(document: Dict) -> str:
    """Deterministic JSON bytes: sorted keys, indent 2, one newline."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


def write_scalars(out_dir: PathLike, name: str,
                  scalars: Mapping[str, Number]) -> pathlib.Path:
    """Write one benchmark's scalar document to ``out_dir/<name>.json``."""
    out_dir = pathlib.Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    document = {
        "name": name,
        "schema": SCHEMA_VERSION,
        "scalars": _validated_scalars(name, scalars),
    }
    path = out_dir / f"{name}.json"
    path.write_text(dump_json(document))
    return path


def load_scalar_documents(out_dir: PathLike) -> Dict[str, Dict]:
    """Read every ``*.json`` scalar document in ``out_dir``, by name."""
    out_dir = pathlib.Path(out_dir)
    documents: Dict[str, Dict] = {}
    if not out_dir.is_dir():
        return documents
    for path in sorted(out_dir.glob("*.json")):
        document = json.loads(path.read_text())
        if not isinstance(document, dict) or "scalars" not in document:
            continue  # not one of ours
        documents[document.get("name", path.stem)] = document
    return documents


def aggregate(out_dir: PathLike,
              runtimes: Optional[Mapping[str, float]] = None) -> Dict:
    """Fold ``out_dir``'s scalar documents into one results document."""
    runtimes = dict(runtimes or {})
    benchmarks: Dict[str, Dict] = {}
    for name, document in load_scalar_documents(out_dir).items():
        entry: Dict = {"scalars": document["scalars"]}
        if name in runtimes:
            entry["runtime_s"] = round(float(runtimes[name]), 3)
        benchmarks[name] = entry
    return {"schema": SCHEMA_VERSION, "benchmarks": benchmarks}


def write_results(results: Dict, path: PathLike) -> pathlib.Path:
    path = pathlib.Path(path)
    path.write_text(dump_json(results))
    return path


def load_results(path: PathLike) -> Optional[Dict]:
    path = pathlib.Path(path)
    if not path.is_file():
        return None
    return json.loads(path.read_text())


# ----------------------------------------------------------------------
# Diffing
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DiffEntry:
    """One scalar compared between two result snapshots."""

    benchmark: str
    key: str
    baseline: float
    current: float
    within_tolerance: bool

    @property
    def rel_change(self) -> float:
        if self.baseline == 0:
            return 0.0 if self.current == 0 else float("inf")
        return (self.current - self.baseline) / abs(self.baseline)


@dataclasses.dataclass(frozen=True)
class BenchDiff:
    """A full snapshot-to-snapshot comparison."""

    entries: List[DiffEntry]
    added_benchmarks: List[str]      # in current only (informational)
    missing_benchmarks: List[str]    # in baseline only (informational)

    @property
    def regressions(self) -> List[DiffEntry]:
        return [e for e in self.entries if not e.within_tolerance]

    @property
    def clean(self) -> bool:
        return not self.regressions

    def report(self) -> str:
        """Human-readable digest, regressions first."""
        lines: List[str] = []
        for entry in self.regressions:
            lines.append(
                f"REGRESSION {entry.benchmark}.{entry.key}: "
                f"{entry.baseline:g} -> {entry.current:g} "
                f"({entry.rel_change:+.1%})"
            )
        changed = [
            e for e in self.entries
            if e.within_tolerance and e.current != e.baseline
        ]
        for entry in changed:
            lines.append(
                f"drift (ok)  {entry.benchmark}.{entry.key}: "
                f"{entry.baseline:g} -> {entry.current:g} "
                f"({entry.rel_change:+.1%})"
            )
        if self.added_benchmarks:
            lines.append("new benchmarks: " + ", ".join(self.added_benchmarks))
        if self.missing_benchmarks:
            lines.append(
                "not in this run: " + ", ".join(self.missing_benchmarks)
            )
        if not lines:
            lines.append("no scalar changes")
        return "\n".join(lines)


def diff_results(baseline: Dict, current: Dict, rel_tol: float = 0.05) -> BenchDiff:
    """Compare two results documents scalar by scalar.

    A scalar is within tolerance when ``|current - baseline| <=
    max(1e-12, rel_tol * |baseline|)``; the check is symmetric in
    direction — an unexplained speed*up* is drift worth flagging too.
    Benchmarks present on only one side are reported, not failed (a
    ``--smoke`` run legitimately covers a subset).
    """
    if rel_tol < 0:
        raise ValueError("tolerances must be non-negative")
    base_benchmarks = baseline.get("benchmarks", {})
    cur_benchmarks = current.get("benchmarks", {})
    entries: List[DiffEntry] = []
    for name in sorted(set(base_benchmarks) & set(cur_benchmarks)):
        base_scalars = base_benchmarks[name].get("scalars", {})
        cur_scalars = cur_benchmarks[name].get("scalars", {})
        for key in sorted(set(base_scalars) & set(cur_scalars)):
            if key in VOLATILE_KEYS:
                continue
            old = float(base_scalars[key])
            new = float(cur_scalars[key])
            within = abs(new - old) <= max(1e-12, rel_tol * abs(old))
            entries.append(DiffEntry(name, key, old, new, within))
    return BenchDiff(
        entries=entries,
        added_benchmarks=sorted(set(cur_benchmarks) - set(base_benchmarks)),
        missing_benchmarks=sorted(set(base_benchmarks) - set(cur_benchmarks)),
    )


# ----------------------------------------------------------------------
# Runtime guard
# ----------------------------------------------------------------------

# ``runtime_s`` is volatile for the scalar diff (machines differ), but a
# *large* slowdown against the committed baseline is exactly what the
# PR-8 fast-engine work must never silently lose.  The guard's
# tolerance is deliberately loose where the diff's is tight:
#
# * a benchmark regresses only past ``RUNTIME_REGRESSION_RATIO`` times
#   its baseline (1.5x — far above run-to-run noise, far below the
#   2x-5x speedups the fast engines bought);
# * sub-second benchmarks get an absolute floor instead: current
#   runtime must exceed ``max(RUNTIME_GUARD_FLOOR_S, ratio * baseline)``
#   before the guard fires, so interpreter start-up jitter on a 0.3 s
#   benchmark cannot fail CI.
#
# To re-baseline after an *intended* slowdown, commit the freshly
# written results file (``python -m repro bench`` then copy ``--out``
# over ``--baseline``).
RUNTIME_REGRESSION_RATIO = 1.5
RUNTIME_GUARD_FLOOR_S = 1.0


@dataclasses.dataclass(frozen=True)
class RuntimeRegression:
    """One benchmark past its runtime budget."""

    benchmark: str
    baseline_s: float
    current_s: float
    budget_s: float

    @property
    def ratio(self) -> float:
        if self.baseline_s <= 0:
            return float("inf")
        return self.current_s / self.baseline_s

    def __str__(self) -> str:
        return (
            f"{self.benchmark}: {self.current_s:.2f} s vs baseline "
            f"{self.baseline_s:.2f} s ({self.ratio:.2f}x, budget "
            f"{self.budget_s:.2f} s) — if intended, re-baseline by "
            f"committing the new results file"
        )


def runtime_comparison(baseline: Dict, current: Dict,
                       ratio: float = RUNTIME_REGRESSION_RATIO,
                       ) -> Dict[str, Dict[str, float]]:
    """Per-benchmark runtime table: baseline, current, budget, verdict.

    Covers every benchmark carrying a ``runtime_s`` on both sides; the
    budget is ``max(RUNTIME_GUARD_FLOOR_S, ratio * baseline_s)`` (tolerance
    rationale on the module constants above).  This is the artifact CI
    uploads so a regression's evidence survives the failed run.
    """
    if ratio <= 1.0:
        raise ValueError("runtime regression ratio must exceed 1.0")
    base_benchmarks = baseline.get("benchmarks", {})
    cur_benchmarks = current.get("benchmarks", {})
    table: Dict[str, Dict[str, float]] = {}
    for name in sorted(set(base_benchmarks) & set(cur_benchmarks)):
        base_runtime = base_benchmarks[name].get("runtime_s")
        cur_runtime = cur_benchmarks[name].get("runtime_s")
        if base_runtime is None or cur_runtime is None:
            continue
        base_runtime = float(base_runtime)
        cur_runtime = float(cur_runtime)
        budget = max(RUNTIME_GUARD_FLOOR_S, ratio * base_runtime)
        table[name] = {
            "baseline_s": base_runtime,
            "current_s": cur_runtime,
            "budget_s": round(budget, 3),
            "speedup": round(base_runtime / cur_runtime, 3)
            if cur_runtime > 0 else float("inf"),
            "ok": cur_runtime <= budget,
        }
    return table


def runtime_regressions(baseline: Dict, current: Dict) -> List[RuntimeRegression]:
    """Benchmarks whose runtime broke the budget, worst first."""
    offenders = [
        RuntimeRegression(
            benchmark=name,
            baseline_s=row["baseline_s"],
            current_s=row["current_s"],
            budget_s=row["budget_s"],
        )
        for name, row in runtime_comparison(baseline, current).items()
        if not row["ok"]
    ]
    offenders.sort(key=lambda r: r.ratio, reverse=True)
    return offenders


def golden_violations(results: Dict,
                      goldens: Optional[Dict] = None) -> List[str]:
    """Check a results document against the pinned golden scalars.

    Only benchmarks present in ``results`` are checked (a smoke subset
    is fine), but a covered benchmark missing a pinned key is a
    violation — goldens exist precisely so scalars cannot quietly
    disappear.
    """
    if goldens is None:
        from repro.obs.golden import GOLDEN_SCALARS
        goldens = GOLDEN_SCALARS
    violations: List[str] = []
    benchmarks = results.get("benchmarks", {})
    for name in sorted(set(goldens) & set(benchmarks)):
        scalars = benchmarks[name].get("scalars", {})
        for key, (pinned, rel_tol) in sorted(goldens[name].items()):
            if key not in scalars:
                violations.append(f"{name}.{key}: pinned scalar missing")
                continue
            measured = float(scalars[key])
            budget = max(1e-12, rel_tol * abs(pinned))
            if abs(measured - pinned) > budget:
                violations.append(
                    f"{name}.{key}: measured {measured:g} vs pinned "
                    f"{pinned:g} (tolerance ±{rel_tol:.1%})"
                )
    return violations
