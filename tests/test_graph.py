"""Tests for the op-graph IR: ops, graph structure, liveness."""

import pytest

from repro.graph import (
    GraphError,
    OpGraph,
    OpType,
    broadcast,
    cast,
    concat,
    elementwise,
    fc,
    fused,
    hstu_attention,
    interaction,
    layernorm,
    mha,
    tbe,
    transpose,
)
from repro.graph.ops import Op
from repro.tensors import DType, activation, embedding_table, model_input, weight


def _simple_graph():
    """input -> fc -> relu -> fc -> out"""
    x = model_input(64, 128, name="x")
    g = OpGraph(name="simple")
    f1 = g.add(fc(x, weight(128, 256, name="w1"), name="fc1"))
    r1 = g.add(elementwise([f1.output], function="relu", name="relu1"))
    g.add(fc(r1.output, weight(256, 8, name="w2"), name="fc2"))
    return g


class TestOps:
    def test_fc_output_shape(self):
        op = fc(model_input(4, 8), weight(8, 16))
        assert op.output.shape == (4, 16)

    def test_fc_shape_mismatch(self):
        with pytest.raises(ValueError):
            fc(model_input(4, 8), weight(9, 16))

    def test_fc_flops(self):
        op = fc(model_input(4, 8), weight(8, 16))
        assert op.flops() == 2 * 4 * 8 * 16

    def test_tbe_pooled_output(self):
        tables = [embedding_table(100, 16) for _ in range(4)]
        op = tbe(tables, batch=8, avg_indices_per_lookup=5)
        assert op.output.shape == (8, 64)
        assert op.attrs["total_rows"] == 8 * 4 * 5

    def test_tbe_sequence_output(self):
        tables = [embedding_table(100, 16)]
        op = tbe(tables, batch=8, avg_indices_per_lookup=5, sequence=True)
        assert op.output.shape == (40, 16)

    def test_tbe_weighted_doubles_flops(self):
        tables = [embedding_table(100, 16)]
        plain = tbe(tables, batch=8, avg_indices_per_lookup=5)
        tables2 = [embedding_table(100, 16)]
        weighted = tbe(tables2, batch=8, avg_indices_per_lookup=5, weighted=True)
        assert weighted.flops() == 2 * plain.flops()

    def test_tbe_dim_mismatch(self):
        with pytest.raises(ValueError):
            tbe([embedding_table(10, 8), embedding_table(10, 16)], 4, 2.0)

    def test_layernorm_softmax_attrs(self):
        x = model_input(32, 64)
        ln = layernorm(x)
        assert ln.attrs == {"rows": 32, "cols": 64}
        sm = Op(op_type=OpType.SOFTMAX, name="softmax", inputs=[x], outputs=[x])
        assert sm.flops() < ln.flops()  # 5 passes vs 8 flops/element

    def test_mha_flops_quadratic_in_seq(self):
        x = model_input(256, 512)
        short = mha(x, heads=4, head_dim=32, seq_len=16, batch=16)
        long = mha(x, heads=4, head_dim=32, seq_len=32, batch=16)
        assert long.flops() == 4 * short.flops()

    def test_hstu_flops_sum_over_lengths(self):
        x = model_input(100, 64)
        op = hstu_attention(x, seq_lengths=[10, 20], heads=2, head_dim=16)
        single = hstu_attention(x, seq_lengths=[10], heads=2, head_dim=16)
        assert op.flops() > single.flops()

    def test_transpose(self):
        x = model_input(4, 6)
        assert transpose(x).output.shape == (6, 4)

    def test_concat(self):
        a, b = model_input(4, 6), model_input(4, 2)
        assert concat([a, b], axis=1).output.shape == (4, 8)

    def test_broadcast(self):
        op = broadcast(model_input(8, 16), factor=4)
        assert op.output.shape == (32, 16)
        with pytest.raises(ValueError):
            broadcast(model_input(8, 16), factor=0)

    def test_cast(self):
        x = model_input(8, 16, dtype=DType.FP32)
        assert cast(x, DType.FP16).output.dtype is DType.FP16

    def test_interaction_output(self):
        op = interaction(model_input(8, 64), batch=8, num_features=4, dim=16)
        assert op.output.shape == (8, 6)  # 4 choose 2

    def test_fused_inputs_outputs(self):
        x = model_input(4, 8)
        w1 = weight(8, 8)
        f1 = fc(x, w1, name="a")
        r1 = elementwise([f1.output], name="r")
        combo = fused([f1, r1], name="combo")
        # External inputs: x and w1; output: r1's output.
        assert {t.uid for t in combo.inputs} == {x.uid, w1.uid}
        assert combo.outputs[0].uid == r1.output.uid

    def test_fused_flops_sum(self):
        x = model_input(4, 8)
        f1 = fc(x, weight(8, 8))
        r1 = elementwise([f1.output])
        combo = fused([f1, r1])
        assert combo.flops() == f1.flops() + r1.flops()


class TestGraph:
    def test_structure_queries(self):
        g = _simple_graph()
        assert len(g) == 3
        assert len(g.graph_outputs()) == 1
        assert len(g.weights()) == 2

    def test_weight_bytes(self):
        g = _simple_graph()
        assert g.weight_bytes() == (128 * 256 + 256 * 8) * 2

    def test_total_flops(self):
        g = _simple_graph()
        expected = 2 * 64 * 128 * 256 + 64 * 256 + 2 * 64 * 256 * 8
        assert g.total_flops() == expected

    def test_flops_per_sample(self):
        g = _simple_graph()
        assert g.flops_per_sample(64) == g.total_flops() / 64
        with pytest.raises(ValueError):
            g.flops_per_sample(0)

    def test_producer_consumer(self):
        g = _simple_graph()
        fc1 = g.ops[0]
        relu = g.ops[1]
        assert g.producer_of(relu.inputs[0]) is fc1
        assert g.consumers_of(fc1.output) == [relu]

    def test_missing_producer_rejected(self):
        dangling = activation(4, 4)
        g = OpGraph()
        with pytest.raises(GraphError):
            g.add(elementwise([dangling]))

    def test_double_production_rejected(self):
        x = model_input(4, 4)
        op = elementwise([x])
        g = OpGraph([op])
        with pytest.raises(GraphError):
            g.add(op)

    def test_validate_schedule(self):
        g = _simple_graph()
        g.validate_schedule()
        bad = OpGraph(name="bad")
        bad.ops = [g.ops[1], g.ops[0], g.ops[2]]
        bad._producer = g._producer
        with pytest.raises(GraphError):
            bad.validate_schedule()

    def test_reordered_requires_permutation(self):
        g = _simple_graph()
        with pytest.raises(GraphError):
            g.reordered(g.ops[:2])

    def test_liveness_ranges(self):
        g = _simple_graph()
        ranges = {live.tensor.uid: live for live in g.liveness()}
        fc1_out = g.ops[0].output
        # Produced at step 0, last used at step 1.
        assert ranges[fc1_out.uid].start == 0
        assert ranges[fc1_out.uid].end == 1

    def test_peak_activation_bytes(self):
        g = _simple_graph()
        # At step 1 (relu): fc1 output (64x256) + relu output live together,
        # plus the graph input.
        peak = g.peak_activation_bytes()
        assert peak >= 2 * 64 * 256 * 2

    def test_buffer_requests_match_liveness(self):
        g = _simple_graph()
        requests = g.activation_buffer_requests()
        assert len(requests) == len(g.liveness())

    def test_embedding_bytes(self):
        tables = [embedding_table(1000, 64, name=f"t{i}") for i in range(3)]
        g = OpGraph()
        g.add(tbe(tables, batch=4, avg_indices_per_lookup=2))
        assert g.embedding_bytes() == 3 * 1000 * 64 * 2
        assert g.embedding_bytes() == g.weight_bytes()
