"""Boundary checks the cluster tier's configuration classes share.

A NaN passes every ``<=``/``<`` range check (all its comparisons are
False) and a float replica count passes ``> 0``, so each config checks
type and finiteness before its ranges.
"""

from __future__ import annotations

import math
from numbers import Integral


def require_finite(name: str, value: float) -> None:
    """Reject NaN and infinities."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def require_count(name: str, value: int) -> None:
    """Reject anything but an integer (numpy integers pass, bools do not)."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
