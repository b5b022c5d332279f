"""Property-based tests over randomly generated model graphs.

Hypothesis builds random DAGs out of the IR's operators; every graph
pass and the executor must uphold their invariants on all of them:

* passes preserve FLOPs (broadcast deferral may only reduce them);
* passes preserve the set of graph-output tensors (by uid) or fuse them
  into kernels that still produce them;
* rewritten schedules always validate;
* the executor produces positive, finite latencies on any valid graph.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import mtia2i_spec
from repro.graph import OpGraph, concat, elementwise, fc, layernorm
from repro.graph.passes import (
    batch_layernorms,
    defer_broadcast,
    fuse_vertical,
    minimize_liveness,
)
from repro.perf import Executor
from repro.tensors import model_input, weight


@st.composite
def random_graphs(draw):
    """A random layered DAG of FC / elementwise / layernorm / concat ops."""
    batch = draw(st.sampled_from([32, 64, 128]))
    width = draw(st.sampled_from([64, 128, 256]))
    num_ops = draw(st.integers(min_value=1, max_value=12))
    graph = OpGraph(name="random")
    frontier = [model_input(batch, width, name="x0")]
    # Optionally a second input.
    if draw(st.booleans()):
        frontier.append(model_input(batch, width, name="x1"))
    for index in range(num_ops):
        kind = draw(st.sampled_from(["fc", "elementwise", "layernorm", "concat"]))
        source = frontier[draw(st.integers(0, len(frontier) - 1))]
        if kind == "fc":
            out_dim = draw(st.sampled_from([32, 64, 128]))
            op = fc(source, weight(source.shape[1], out_dim, name=f"w{index}"),
                    name=f"fc{index}")
        elif kind == "elementwise":
            op = elementwise([source], function="relu", name=f"ew{index}")
        elif kind == "layernorm":
            op = layernorm(source, name=f"ln{index}")
        else:
            other = frontier[draw(st.integers(0, len(frontier) - 1))]
            if other.shape[0] != source.shape[0]:
                op = elementwise([source], name=f"ew{index}")
            else:
                op = concat([source, other], axis=1, name=f"cat{index}")
        graph.add(op)
        frontier.append(op.output)
        if len(frontier) > 4:
            frontier = frontier[-4:]
    return graph


PASSES = [fuse_vertical, batch_layernorms, minimize_liveness, defer_broadcast]


@given(graph=random_graphs(), pass_index=st.integers(0, len(PASSES) - 1))
@settings(max_examples=80, deadline=None)
def test_passes_preserve_flops_and_validity(graph, pass_index):
    rewrite = PASSES[pass_index]
    original_flops = graph.total_flops()
    rewritten = rewrite(graph)
    rewritten.validate_schedule()
    if rewrite is defer_broadcast:
        assert rewritten.total_flops() <= original_flops + 1e-6
    else:
        assert rewritten.total_flops() == pytest.approx(original_flops)


@given(graph=random_graphs())
@settings(max_examples=40, deadline=None)
def test_passes_preserve_graph_outputs(graph):
    original = {t.uid for t in graph.graph_outputs()}
    for rewrite in (fuse_vertical, batch_layernorms, minimize_liveness):
        rewritten = rewrite(graph)
        assert {t.uid for t in rewritten.graph_outputs()} == original


@given(graph=random_graphs())
@settings(max_examples=25, deadline=None)
def test_executor_handles_any_valid_graph(graph):
    batch = graph.ops[0].inputs[0].shape[0]  # every tensor has batch rows
    report = Executor(mtia2i_spec()).run(graph, batch, warmup_runs=0)
    assert report.latency_s > 0
    assert report.latency_s < 10.0  # these graphs are tiny
    assert len(report.op_profiles) == len(graph.ops)
    assert all(p.time_s > 0 for p in report.op_profiles)


@given(graph=random_graphs())
@settings(max_examples=25, deadline=None)
def test_liveness_scheduling_never_increases_peak(graph):
    """The pass keeps the better of the original and greedy schedules
    (section 4.2: 'selecting the best operator scheduling algorithm'), so
    the peak can never grow."""
    scheduled = minimize_liveness(graph)
    assert scheduled.peak_activation_bytes() <= graph.peak_activation_bytes()
