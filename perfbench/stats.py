"""Sample statistics and the comparison rules of the benchmark.

A run reports each end-to-end metric as one number per workload (the
minimum or median over its iterations).  Comparing two commits takes
at least ten runs of each, alternating which side runs first, and
applies :func:`verdict` to the per-run values of every (workload,
metric) pair:

* ``unresolved`` when either side's spread (interquartile range over
  median) exceeds the metric's bound, unless every run of the change
  reads better than every run of the parent;
* ``gain`` when the change wins at least nine tenths of the pairs
  (ties count for neither side) and the medians differ by more than
  the parent's interquartile range;
* ``regression`` when the change's median is worse than the parent's
  by more than the bound;
* ``within bound`` otherwise.
"""

from __future__ import annotations

import dataclasses
import statistics
from typing import Dict, Sequence, Tuple

GAIN_WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` gives them
    (exclusive method); a single sample is its own quartiles."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Minimum, quartiles and sample count of one metric's samples."""
    q1, median, q3 = quartiles(values)
    return {"min": min(values), "q1": q1, "median": median, "q3": q3,
            "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else float("inf")


def _better(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


@dataclasses.dataclass(frozen=True)
class Verdict:
    label: str  # gain | regression | unresolved | within bound | better
    wins: int
    pairs: int
    parent: Dict[str, float]
    change: Dict[str, float]

    @property
    def relative_change(self) -> float:
        base = self.parent["median"]
        return (self.change["median"] - base) / base if base else 0.0


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            better: str) -> Verdict:
    """Compare paired runs of one metric (``parent[i]`` with
    ``change[i]``) under the rules in the module docstring."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher': {better!r}")
    pairs = min(len(parent), len(change))
    if pairs == 0:
        raise ValueError("no paired runs")
    parent, change = list(parent[:pairs]), list(change[:pairs])
    wins = sum(_better(c, p, better) for p, c in zip(parent, change))
    p_stats, c_stats = summary(parent), summary(change)
    p_iqr = p_stats["q3"] - p_stats["q1"]
    worse_by = (c_stats["median"] - p_stats["median"]) / p_stats["median"]
    if better == "higher":
        worse_by = -worse_by
    if spread(parent) > bound or spread(change) > bound:
        separated = all(_better(c, p, better) for c in change for p in parent)
        label = "better" if separated else "unresolved"
    elif (wins >= GAIN_WIN_SHARE * pairs
          and _better(c_stats["median"], p_stats["median"], better)
          and abs(c_stats["median"] - p_stats["median"]) > p_iqr):
        label = "gain"
    elif worse_by > bound:
        label = "regression"
    else:
        label = "within bound"
    return Verdict(label, wins, pairs, p_stats, c_stats)
