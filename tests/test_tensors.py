"""Tests for dtypes, TensorSpec, GemmShape, and jagged tensors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensors import (
    DType,
    GemmShape,
    JaggedTensor,
    TensorKind,
    TensorSpec,
    activation,
    concat_specs,
    embedding_table,
    jagged_softmax,
    jagged_sum_pool,
    model_input,
    transposed,
    weight,
)


class TestDtypes:
    def test_widths(self):
        assert DType.INT8.bytes == 1
        assert DType.FP16.bytes == 2
        assert DType.BF16.bytes == 2
        assert DType.FP32.bytes == 4
        assert DType.INT32.bytes == 4

    def test_bits(self):
        assert DType.FP16.bits == 16


class TestTensorSpec:
    def test_sizes(self):
        t = activation(128, 256, dtype=DType.FP16)
        assert t.num_elements == 128 * 256
        assert t.num_bytes == 128 * 256 * 2
        assert t.rank == 2

    def test_unique_uids(self):
        a = activation(4, 4)
        b = activation(4, 4)
        assert a.uid != b.uid

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            TensorSpec(shape=())
        with pytest.raises(ValueError):
            TensorSpec(shape=(0, 4))

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            TensorSpec(shape=(4,), kind="bogus")

    def test_kinds_via_helpers(self):
        assert weight(2, 2).kind == TensorKind.WEIGHT
        assert embedding_table(10, 4).kind == TensorKind.EMBEDDING
        assert model_input(2, 2).kind == TensorKind.INPUT

    def test_with_shape_fresh_uid(self):
        t = activation(4, 8)
        u = t.with_shape((8, 4))
        assert u.shape == (8, 4) and u.uid != t.uid

    def test_transposed(self):
        t = activation(3, 7)
        assert transposed(t).shape == (7, 3)
        with pytest.raises(ValueError):
            transposed(activation(2, 2, 2))

    def test_concat(self):
        a, b = activation(2, 3), activation(2, 5)
        out = concat_specs([a, b], axis=1)
        assert out.shape == (2, 8)

    def test_concat_axis_0(self):
        a, b = activation(2, 3), activation(4, 3)
        assert concat_specs([a, b], axis=0).shape == (6, 3)

    def test_concat_mismatch(self):
        with pytest.raises(ValueError):
            concat_specs([activation(2, 3), activation(3, 5)], axis=1)

    def test_concat_empty(self):
        with pytest.raises(ValueError):
            concat_specs([])

    def test_str_contains_shape(self):
        assert "128x64" in str(activation(128, 64))


class TestGemmShape:
    def test_flops(self):
        s = GemmShape(2, 3, 4)
        assert s.flops == 2 * 2 * 3 * 4

    def test_operand_bytes(self):
        s = GemmShape(4, 8, 16)
        assert s.weight_bytes(DType.FP16) == 8 * 16 * 2
        assert s.activation_bytes(DType.FP16) == 4 * 8 * 2
        assert s.output_bytes(DType.FP32) == 4 * 16 * 4

    def test_invalid(self):
        with pytest.raises(ValueError):
            GemmShape(0, 1, 1)

    def test_str(self):
        assert str(GemmShape(512, 26592, 2048)) == "512x26592x2048"


class TestJagged:
    def _make(self):
        rows = [np.ones((2, 4)), np.zeros((0, 4)), 2 * np.ones((3, 4))]
        return JaggedTensor.from_rows(rows)

    def test_from_rows_shapes(self):
        j = self._make()
        assert j.batch_size == 3
        assert j.dim == 4
        assert list(j.lengths) == [2, 0, 3]
        assert int(j.lengths.sum()) == 5

    def test_row_views(self):
        j = self._make()
        assert j.row(0).shape == (2, 4)
        assert j.row(1).shape == (0, 4)

    def test_invalid_offsets(self):
        with pytest.raises(ValueError):
            JaggedTensor(values=np.zeros((3, 2)), offsets=np.array([1, 3]))
        with pytest.raises(ValueError):
            JaggedTensor(values=np.zeros((3, 2)), offsets=np.array([0, 2]))
        with pytest.raises(ValueError):
            JaggedTensor(values=np.zeros((3, 2)), offsets=np.array([0, 2, 1, 3]))

    def test_sum_pool_matches_manual(self):
        j = self._make()
        pooled = jagged_sum_pool(j)
        np.testing.assert_allclose(pooled[0], 2 * np.ones(4))
        np.testing.assert_allclose(pooled[1], np.zeros(4))
        np.testing.assert_allclose(pooled[2], 6 * np.ones(4))

    def test_softmax_normalizes_per_segment(self):
        rng = np.random.default_rng(1)
        j = JaggedTensor.from_rows([rng.normal(size=(5, 3)), rng.normal(size=(2, 3))])
        soft = jagged_softmax(j)
        np.testing.assert_allclose(soft.row(0).sum(axis=0), np.ones(3), atol=1e-9)
        np.testing.assert_allclose(soft.row(1).sum(axis=0), np.ones(3), atol=1e-9)


@given(
    lengths=st.lists(st.integers(min_value=1, max_value=10), min_size=1, max_size=8)
)
@settings(max_examples=50, deadline=None)
def test_jagged_sum_pool_matches_dense_sum(lengths):
    """Jagged sum-pooling equals summing the padded dense tensor."""
    rng = np.random.default_rng(2)
    rows = [rng.normal(size=(length, 3)) for length in lengths]
    j = JaggedTensor.from_rows(rows)
    dense_sum = np.stack([row.sum(axis=0) for row in rows])
    np.testing.assert_allclose(jagged_sum_pool(j), dense_sum, atol=1e-9)
