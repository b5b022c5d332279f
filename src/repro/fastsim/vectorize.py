"""Numpy vectorizations that are byte-identical to the scalar loops.

Two facts make these drop-in replacements rather than approximations:

- ``numpy.random.Generator`` draws the same underlying stream for one
  batched call as for the equivalent sequence of scalar calls
  (``rng.exponential(s, size=n)`` == ``[rng.exponential(s) for _ in
  range(n)]``, values *and* final generator state), so a scalar draw
  loop can be replaced by save-state → probe in blocks → restore-state
  → draw exactly the consumed count in one call.
- ``numpy.cumsum`` accumulates sequentially in C, reproducing the exact
  float rounding of a ``t += dt`` Python loop.

Both facts are asserted by ``tests/test_fastsim_properties.py`` so a
numpy behaviour change reads as a test failure, not silent drift.

The scalar counterpart is :func:`bounded_uint32`, a port of the
sampler behind ``rng.integers(0, n)`` that draws through the bit
generator's ctypes handle at about a third of the call's cost;
``tests/test_po2_draw_equivalence.py`` asserts it against
``integers`` on every numpy bit generator.
"""

from __future__ import annotations

import numpy as np


def seeded_poisson_arrivals(
    rng: np.random.Generator, rate_per_s: float, horizon_s: float
) -> np.ndarray:
    """Arrival times of a homogeneous Poisson process on [0, horizon).

    Byte-identical — in arrival values and in generator state afterwards
    — to the scalar loop::

        t = 0.0
        while True:
            t += rng.exponential(1.0 / rate_per_s)
            if t >= horizon_s:
                break
            arrivals.append(t)

    The loop consumes ``k + 1`` exponential draws for ``k`` arrivals
    (the last draw crosses the horizon).  We probe in doubling blocks
    from a saved state to find that count, then restore and draw it in
    a single batched call so the stream position lands exactly where
    the scalar loop would leave it.
    """
    if rate_per_s <= 0:
        raise ValueError("rate must be positive")
    scale = 1.0 / rate_per_s
    if horizon_s <= 0:
        # The scalar loop's first draw crosses immediately — but it is
        # still drawn, and the stream position must reflect that.
        rng.exponential(scale)
        return np.empty(0, dtype=np.float64)
    state = rng.bit_generator.state
    block = max(16, int(rate_per_s * horizon_s * 1.1) + 8)
    while True:
        gaps = rng.exponential(scale, size=block)
        times = np.cumsum(gaps)
        crossed = np.nonzero(times >= horizon_s)[0]
        if crossed.size:
            consumed = int(crossed[0]) + 1
            break
        block *= 2
        rng.bit_generator.state = state
    rng.bit_generator.state = state
    gaps = rng.exponential(scale, size=consumed)
    return np.cumsum(gaps)[: consumed - 1]


def uint32_source(rng: np.random.Generator):
    """``(next_uint32, state)``: the generator's raw 32-bit draw handle.

    Both come from numpy's documented ``bit_generator.ctypes``
    interface; ``next_uint32(state)`` advances the generator exactly as
    its own 32-bit draws do, but without taking the generator's lock,
    so no other thread may draw from ``rng`` meanwhile.  The handle
    points into ``rng``'s memory, so a caller keeps ``rng`` referenced
    for as long as it keeps the handle, and never pickles the handle.
    """
    interface = rng.bit_generator.ctypes
    return interface.next_uint32, interface.state


def bounded_uint32(next_uint32, state, n: int) -> int:
    """``rng.integers(0, n)`` drawn through a :func:`uint32_source` handle.

    A port of numpy's 32-bit Lemire bounded sampler, which
    ``integers`` uses for every range up to ``2**32``: scale one 32-bit
    draw by ``n`` and keep the high word, redrawing while the low word
    falls below ``(2**32 - n) % n``.  ``n == 1`` draws nothing.  Value
    and generator state afterwards match ``rng.integers(0, n)``.
    """
    if n == 1:
        return 0
    if not 1 < n <= 0x100000000:
        raise ValueError(f"bounded 32-bit draw needs 1 <= n <= 2**32, got {n}")
    m = next_uint32(state) * n
    leftover = m & 0xFFFFFFFF
    if leftover < n:
        threshold = (0x100000000 - n) % n
        while leftover < threshold:
            m = next_uint32(state) * n
            leftover = m & 0xFFFFFFFF
    return m >> 32


def sorted_percentile(sorted_values: np.ndarray, percentile: float) -> float:
    """The repository's legacy nearest-rank percentile over a sorted array.

    Index formula kept bit-for-bit: ``min(n - 1, int(round(p / 100 *
    (n - 1))))`` — matching ``ScheduleResult.latency_percentile`` and
    the cluster/fleet report percentiles it replaces.
    """
    n = len(sorted_values)
    if not n:
        return 0.0
    index = min(n - 1, int(round(percentile / 100 * (n - 1))))
    return float(sorted_values[index])
