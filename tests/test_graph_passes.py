"""Tests for graph optimization passes: fusion, scheduling, broadcast
deferral (paper sections 4.2 and 6)."""

import pytest

from repro.graph import OpGraph, OpType, broadcast, elementwise, fc, layernorm, transpose
from repro.graph.passes import (
    batch_layernorms,
    defer_broadcast,
    fuse_sibling_transpose_fc,
    fuse_vertical,
    minimize_liveness,
)
from repro.tensors import model_input, weight


def _chain_graph():
    x = model_input(64, 128, name="x")
    g = OpGraph()
    f1 = g.add(fc(x, weight(128, 128, name="w1"), name="fc1"))
    r1 = g.add(elementwise([f1.output], function="relu", name="relu1"))
    c1 = g.add(elementwise([r1.output], function="scale", name="scale1"))
    g.add(fc(c1.output, weight(128, 8, name="w2"), name="fc2"))
    return g


class TestVerticalFusion:
    def test_chain_fused(self):
        g = _chain_graph()
        fused_graph = fuse_vertical(g)
        assert len(fused_graph.ops) < len(g.ops)
        kinds = [op.op_type for op in fused_graph.ops]
        assert OpType.FUSED in kinds

    def test_fusion_preserves_flops(self):
        g = _chain_graph()
        assert fuse_vertical(g).total_flops() == pytest.approx(g.total_flops())

    def test_fusion_preserves_outputs(self):
        g = _chain_graph()
        fused_graph = fuse_vertical(g)
        assert {t.uid for t in fused_graph.graph_outputs()} == {
            t.uid for t in g.graph_outputs()
        }

    def test_multi_consumer_blocks_fusion(self):
        x = model_input(64, 128)
        g = OpGraph()
        f1 = g.add(fc(x, weight(128, 128), name="fc1"))
        # Two consumers of fc1 -> cannot fuse the chain.
        g.add(elementwise([f1.output], name="e1"))
        g.add(elementwise([f1.output], name="e2"))
        fused_graph = fuse_vertical(g)
        assert len(fused_graph.ops) == 3

    def test_fused_graph_schedulable(self):
        fuse_vertical(_chain_graph()).validate_schedule()


class TestSiblingTransposeFusion:
    def _graph(self, num_siblings=3):
        x = model_input(64, 128, name="x")
        g = OpGraph()
        t = g.add(transpose(x, name="t"))
        for i in range(num_siblings):
            g.add(fc(t.output, weight(64, 32, name=f"w{i}"), name=f"fc{i}"))
        return g

    def test_siblings_fused(self):
        """The paper's sibling transpose-FC fusion (up to 15% gain)."""
        g = self._graph()
        fused_graph = fuse_sibling_transpose_fc(g)
        assert len(fused_graph.ops) == 1
        assert fused_graph.ops[0].op_type is OpType.FUSED

    def test_single_consumer_not_fused(self):
        g = self._graph(num_siblings=1)
        assert len(fuse_sibling_transpose_fc(g).ops) == 2

    def test_outputs_preserved(self):
        g = self._graph()
        fused_graph = fuse_sibling_transpose_fc(g)
        assert len(fused_graph.graph_outputs()) == 3


class TestLayernormBatching:
    def test_independent_layernorms_batched(self):
        """Section 6: hundreds of LayerNorms batched horizontally."""
        x = model_input(64, 128)
        g = OpGraph()
        f = g.add(fc(x, weight(128, 128), name="f"))
        for i in range(6):
            g.add(layernorm(f.output, name=f"ln{i}"))
        batched = batch_layernorms(g)
        launches = len(batched.ops)
        assert launches == 2  # the fc + one batched layernorm kernel

    def test_dependent_layernorms_not_merged(self):
        x = model_input(64, 128)
        g = OpGraph()
        ln1 = g.add(layernorm(x, name="ln1"))
        f = g.add(fc(ln1.output, weight(128, 128), name="f"))
        g.add(layernorm(f.output, name="ln2"))
        batched = batch_layernorms(g)
        # ln2 depends on f which depends on ln1: cannot batch.
        assert len(batched.ops) == 3

    def test_flops_preserved(self):
        x = model_input(64, 128)
        g = OpGraph()
        f = g.add(fc(x, weight(128, 128)))
        for i in range(4):
            g.add(layernorm(f.output, name=f"ln{i}"))
        assert batch_layernorms(g).total_flops() == pytest.approx(g.total_flops())


class TestScheduling:
    def _diamond(self):
        """A graph where eager scheduling bloats liveness."""
        x = model_input(64, 1024, name="x")
        g = OpGraph()
        # Several large branches off x, each reduced to small outputs.
        joins = []
        for i in range(4):
            big = g.add(fc(x, weight(1024, 4096, name=f"wide{i}"), name=f"wide_fc{i}"))
            small = g.add(fc(big.output, weight(4096, 8, name=f"narrow{i}"), name=f"narrow_fc{i}"))
            joins.append(small.output)
        from repro.graph import concat

        g.add(concat(joins, axis=1, name="join"))
        return g

    def test_minimize_liveness_is_valid(self):
        scheduled = minimize_liveness(self._diamond())
        scheduled.validate_schedule()

    def test_minimize_liveness_reduces_peak(self):
        """Interleaving wide+narrow pairs frees each big tensor before the
        next branch runs."""
        g = self._diamond()
        # Build a bad schedule: all wide FCs first.
        wide = [op for op in g.ops if op.name.startswith("wide")]
        narrow = [op for op in g.ops if op.name.startswith("narrow")]
        join = [op for op in g.ops if op.name == "join"]
        bad = g.reordered(wide + narrow + join)
        good = minimize_liveness(bad)
        assert good.peak_activation_bytes() < bad.peak_activation_bytes()


class TestBroadcastDeferral:
    def _graph(self, chain_len=2):
        users = model_input(8, 64, name="users")
        g = OpGraph()
        b = g.add(broadcast(users, factor=4, name="ibb"))
        current = b.output
        for i in range(chain_len):
            op = fc(current, weight(current.shape[1], 64, name=f"uw{i}"), name=f"ufc{i}")
            op.attrs["user_side"] = True
            g.add(op)
            current = op.output
        g.add(fc(current, weight(64, 8, name="merge_w"), name="merge"))
        return g

    def test_deferral_shrinks_user_side_flops(self):
        g = self._graph()
        deferred = defer_broadcast(g)
        assert deferred.total_flops() < g.total_flops()

    def test_deferral_preserves_merge_shape(self):
        g = self._graph()
        deferred = defer_broadcast(g)
        merge = [op for op in deferred.ops if op.name == "merge"][0]
        assert merge.inputs[0].shape[0] == 32  # still the broadcast batch

    def test_deferral_reduces_footprint(self):
        g = self._graph(chain_len=3)
        deferred = defer_broadcast(g)
        assert deferred.peak_activation_bytes() < g.peak_activation_bytes()

    def test_non_user_side_chain_untouched(self):
        users = model_input(8, 64)
        g = OpGraph()
        b = g.add(broadcast(users, factor=4))
        g.add(fc(b.output, weight(64, 8)))  # not marked user_side
        deferred = defer_broadcast(g)
        assert deferred.total_flops() == pytest.approx(g.total_flops())

    def test_deferred_graph_schedulable(self):
        defer_broadcast(self._graph()).validate_schedule()
