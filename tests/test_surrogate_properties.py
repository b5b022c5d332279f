"""Property-based tests for repro.surrogate.

Hypothesis drives the two contracts the verified-surrogate pattern
rests on:

* training reproducibility — the full collect-train pipeline is a pure
  function of (chip, n_samples, seed): two runs produce bit-identical
  predictions, whatever the seed or sample count;
* verification soundness — ``verified_argmin`` returns the min over
  its exact-evaluated set (never a prediction).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import mtia2i_spec
from repro.kernels.gemm import default_variants
from repro.surrogate import train_gemm_surrogate, verified_argmin

CHIP = mtia2i_spec()
VARIANTS = default_variants()


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       n_samples=st.integers(min_value=120, max_value=400))
def test_training_bit_for_bit_reproducible(seed, n_samples):
    first, _ = train_gemm_surrogate(CHIP, n_samples=n_samples, seed=seed)
    second, _ = train_gemm_surrogate(CHIP, n_samples=n_samples, seed=seed)
    shapes = [(64, 128, 256), (700, 1700, 800), (31, 33, 35)]
    probe = VARIANTS[:64]
    np.testing.assert_array_equal(
        first.predict_time_grid(shapes, probe),
        second.predict_time_grid(shapes, probe),
    )


@settings(max_examples=100, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=1e-9, max_value=1e3,
                  allow_nan=False, allow_infinity=False),
        min_size=1, max_size=30,
    ),
    top_k=st.integers(min_value=1, max_value=40),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_verified_argmin_winner_is_exact_evaluated(values, top_k, seed):
    ranking = np.random.default_rng(seed).permutation(len(values))
    result = verified_argmin(ranking, lambda i: values[i], top_k)
    # The winner was exact-evaluated, and is the min of that set.
    assert result.best_index in result.evaluated
    assert result.best_value == values[result.best_index]
    assert result.best_value == min(values[i] for i in result.evaluated)
    assert result.exact_evaluations == min(top_k, len(values))
    assert result.surrogate_evaluations == len(values)
