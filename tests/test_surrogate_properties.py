"""Property-based tests for repro.surrogate.

Hypothesis drives the reproducibility contract the surrogate rung
rests on: a fit is a pure function of (table, seed), so two fits
produce bit-identical predictions, whatever the seed or row count.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.surrogate import SurrogateModel

from tests.test_surrogate import synthetic_table


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       n_rows=st.integers(min_value=120, max_value=400))
def test_training_bit_for_bit_reproducible(seed, n_rows):
    X, y = synthetic_table(n_rows, seed)
    first, second = SurrogateModel(), SurrogateModel()
    assert first.fit(X, y, seed=seed) == second.fit(X, y, seed=seed)
    np.testing.assert_array_equal(first.predict(X), second.predict(X))
