"""The verified-surrogate pattern: predictions propose, exact decides.

A surrogate is allowed to be wrong; the answers built on it are not.
:func:`verified_argmin` is the one verified shape: the surrogate ranks
a candidate set, the exact model re-evaluates the predicted top-k, and
the argmin over those exact values is returned.  Soundness contract:
the winner's value is always an exact evaluation (never a prediction);
the only failure mode is *missing* a better candidate outside the
top-k, which the quality-gap metric measures.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, Sequence, Tuple



@dataclasses.dataclass(frozen=True)
class VerifiedArgmin:
    """Outcome of a surrogate-ranked, exact-verified argmin."""

    best_index: int  # index into the original candidate list
    best_value: float  # exact model's value for the winner
    evaluated: Tuple[int, ...]  # candidate indices exact-evaluated
    exact_values: Dict[int, float]  # candidate index -> exact value
    surrogate_evaluations: int  # predictions spent ranking
    exact_evaluations: int  # exact-model calls spent verifying


def verified_argmin(
    ranking: Sequence[int],
    exact_fn: Callable[[int], float],
    top_k: int,
) -> VerifiedArgmin:
    """Exact-evaluate the first ``top_k`` of ``ranking``; return the
    exact argmin among them.

    ``ranking`` is the surrogate's predicted-ascending candidate order
    (e.g. from :meth:`~repro.surrogate.model.GemmSurrogate.rank_variants`).
    The returned ``best_value`` is by construction an exact evaluation.
    """
    if top_k <= 0:
        raise ValueError("top_k must be positive")
    if not len(ranking):
        raise ValueError("need at least one ranked candidate")
    shortlist = [int(i) for i in ranking[:top_k]]
    exact_values = {i: float(exact_fn(i)) for i in shortlist}
    best_index = min(shortlist, key=lambda i: (exact_values[i], i))
    return VerifiedArgmin(
        best_index=best_index,
        best_value=exact_values[best_index],
        evaluated=tuple(shortlist),
        exact_values=exact_values,
        surrogate_evaluations=len(ranking),
        exact_evaluations=len(shortlist),
    )


__all__ = [
    "VerifiedArgmin",
    "verified_argmin",
]
