"""Host-time spans around the public entry points of each ``repro`` layer.

The benchmark measures layers from outside the program: for a traced
iteration, :class:`Tracer` replaces each boundary listed in
:data:`BOUNDARIES` with a timing wrapper and restores the original on
exit, exceptions included.

* A class method is patched on its class.
* A module function is patched by rebinding *every* name across
  ``sys.modules`` that is bound to the same function object, because
  callers import names such as ``tune_placement`` or ``estimate_op``
  directly into their own namespace.

Every wrapped call pushes a frame on one span stack.  A frame's self
time is its duration minus the durations of its direct children, so
the self times of all frames under a root span add up to the root's
duration.  Counts (ops, requests, events, LLC deltas) are read from
the call's arguments and return value.

``fine`` boundaries (``memory`` and ``kernels``: tens of thousands of
calls per answer) are not exported as individual spans; their calls
and self time are folded into the args of the nearest coarse ancestor
in the Chrome trace written by :meth:`Tracer.write_chrome`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import sys
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

ROOT_SPAN = "answer"


@dataclasses.dataclass(frozen=True)
class Boundary:
    """One wrapped entry point.

    ``attr`` is ``"Class.method"`` or ``"function"`` inside ``module``.
    ``before(args, kwargs)`` runs ahead of the call and its value is
    handed to ``counts(args, kwargs, result, before_state)``, which
    returns the counts to add to the span's layer.
    """

    key: str
    module: str
    attr: str
    fine: bool = False
    counts: Optional[Callable] = None
    before: Optional[Callable] = None


def _llc_snapshot(args, kwargs):
    llc = args[0].llc
    if llc is None:
        return None
    stats = llc.stats
    return stats.hits, stats.misses, stats.dirty_writebacks


def _llc_delta(args, kwargs, result, before):
    if before is None:
        return None
    stats = args[0].llc.stats
    hits = stats.hits - before[0]
    return {
        "llc_hits": hits,
        "llc_accesses": hits + stats.misses - before[1],
        "llc_writebacks": stats.dirty_writebacks - before[2],
    }


def _fidelity(args, kwargs):
    return kwargs["fidelity"] if "fidelity" in kwargs else args[3]


BOUNDARIES: Tuple[Boundary, ...] = (
    Boundary("executor", "repro.perf.executor", "Executor.run",
             counts=lambda a, k, r, s: {"ops": len(r.op_profiles)}),
    Boundary("memory.read", "repro.memory.hierarchy", "MemoryHierarchy.read",
             fine=True, before=_llc_snapshot, counts=_llc_delta),
    Boundary("memory.write", "repro.memory.hierarchy",
             "MemoryHierarchy.write",
             fine=True, before=_llc_snapshot, counts=_llc_delta),
    Boundary("kernels", "repro.kernels.registry", "estimate_op", fine=True),
    Boundary("autotune", "repro.autotune.placement", "tune_placement"),
    Boundary("surrogate.fit", "repro.surrogate.model", "SurrogateModel.fit"),
    Boundary("surrogate.predict", "repro.surrogate.model",
             "SurrogateModel.predict"),
    Boundary("codesign", "repro.codesign.objectives",
             "CodesignObjective.evaluate",
             counts=lambda a, k, r, s: {"evals_" + _fidelity(a, k): 1}),
    Boundary("capacity", "repro.cluster.capacity", "replicas_needed"),
    Boundary("capacity", "repro.cluster.capacity", "max_qps_at_slo"),
    Boundary("cluster", "repro.cluster.simulator", "ClusterSimulator.run",
             counts=lambda a, k, r, s: {
                 "requests": r.offered, "lost": r.shed + r.timed_out}),
    Boundary("serving", "repro.serving.workload", "poisson_stream",
             counts=lambda a, k, r, s: {"requests": len(r)}),
    Boundary("serving", "repro.serving.workload", "diurnal_poisson_stream",
             counts=lambda a, k, r, s: {"requests": len(r)}),
    Boundary("fleet", "repro.fleet_global.simulator", "run_fleet",
             counts=lambda a, k, r, s: {"requests": r.offered}),
    Boundary("resilience", "repro.resilience.simulator",
             "ResilienceSimulator.run",
             counts=lambda a, k, r, s: {"events": len(r.events)}),
)


class LayerStats:
    """Accumulated host time and counts of one span key."""

    __slots__ = ("calls", "self_s", "span_s", "counts", "nested")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.span_s = 0.0
        self.counts: Dict[str, int] = {}
        # Coarse ancestor key -> how many of these calls ran under it.
        self.nested: Dict[str, int] = {}


@dataclasses.dataclass
class Span:
    """One finished coarse span, kept for the Chrome export."""

    span_id: int
    parent_id: Optional[int]
    key: str
    start_s: float
    dur_s: float
    self_s: float
    counts: Dict[str, int]
    folded: Dict[str, List]  # fine key -> [calls, self_s]


class _Frame:
    __slots__ = ("key", "start", "child_s", "span_id", "coarse", "folded")

    def __init__(self, key, span_id, coarse):
        self.key = key
        self.start = 0.0
        self.child_s = 0.0
        self.span_id = span_id
        # Nearest coarse frame at or above this one (itself if coarse).
        self.coarse = coarse if span_id is None else self
        # Fine calls folded into this coarse span: key -> [calls, self_s].
        self.folded: Optional[Dict[str, List]] = (
            {} if span_id is not None else None
        )


class Tracer:
    """A span stack plus the patches that feed it."""

    def __init__(self, boundaries: Tuple[Boundary, ...] = BOUNDARIES,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.boundaries = boundaries
        self.clock = clock
        self.stats: Dict[str, LayerStats] = {}
        self.spans: List[Span] = []
        self._stack: List[_Frame] = []
        self._next_id = 0

    # -- spans ----------------------------------------------------------

    def _enter(self, key: str, fine: bool) -> _Frame:
        stack = self._stack
        parent = stack[-1] if stack else None
        if fine:
            frame = _Frame(key, None, parent.coarse if parent else None)
        else:
            frame = _Frame(key, self._next_id, None)
            self._next_id += 1
            if stack:
                stats = self._layer(key)
                for ancestor in {f.key for f in stack if f.span_id is not None}:
                    stats.nested[ancestor] = stats.nested.get(ancestor, 0) + 1
        stack.append(frame)
        frame.start = self.clock()
        return frame

    def _exit(self, frame: _Frame, counts: Optional[Dict[str, int]]) -> None:
        end = self.clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.key!r} closed out of order")
        stack.pop()
        dur = end - frame.start
        self_s = dur - frame.child_s
        if stack:
            stack[-1].child_s += dur
        stats = self._layer(frame.key)
        stats.calls += 1
        stats.self_s += self_s
        stats.span_s += dur
        if counts:
            for name, value in counts.items():
                stats.counts[name] = stats.counts.get(name, 0) + value
        if frame.span_id is None:
            if frame.coarse is not None:
                entry = frame.coarse.folded.setdefault(frame.key, [0, 0.0])
                entry[0] += 1
                entry[1] += self_s
            return
        parent = stack[-1].coarse if stack else None
        parent_id = parent.span_id if parent is not None else None
        self.spans.append(Span(
            span_id=frame.span_id, parent_id=parent_id, key=frame.key,
            start_s=frame.start, dur_s=dur, self_s=self_s,
            counts=dict(counts or {}), folded=frame.folded,
        ))

    def _layer(self, key: str) -> LayerStats:
        stats = self.stats.get(key)
        if stats is None:
            stats = self.stats[key] = LayerStats()
        return stats

    @contextlib.contextmanager
    def span(self, key: str = ROOT_SPAN) -> Iterator[None]:
        """A coarse span opened by hand (the answer's root span)."""
        frame = self._enter(key, fine=False)
        try:
            yield
        finally:
            self._exit(frame, None)

    def wrap(self, boundary: Boundary, original: Callable) -> Callable:
        """A timing wrapper around ``original`` for ``boundary``."""
        enter, leave = self._enter, self._exit
        key, fine = boundary.key, boundary.fine
        before, counts = boundary.before, boundary.counts

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            frame = enter(key, fine)
            measured = None
            try:
                result = original(*args, **kwargs)
                if counts is not None:
                    measured = counts(args, kwargs, result, state)
                return result
            finally:
                leave(frame, measured)

        return functools.update_wrapper(wrapper, original)

    # -- patching -------------------------------------------------------

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Patch every boundary for the duration of the block."""
        undo: List[Tuple[object, str, object]] = []
        originals: Dict[int, object] = {}
        try:
            for boundary in self.boundaries:
                module = importlib.import_module(boundary.module)
                owner_name, _, name = boundary.attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[name]
                    wrapper = self.wrap(boundary, original)
                    setattr(owner, name, wrapper)
                    undo.append((owner, name, original))
                else:
                    original = getattr(module, name)
                    wrapper = self.wrap(boundary, original)
                    for owner, binding in _bindings_of(original):
                        setattr(owner, binding, wrapper)
                        undo.append((owner, binding, original))
                originals[id(wrapper)] = (wrapper, original)
            yield self
        finally:
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)
            # Modules imported while the patch was live may have copied
            # a wrapper into their namespace; point them back as well.
            for wrapper, original in originals.values():
                for owner, binding in _bindings_of(wrapper):
                    setattr(owner, binding, original)

    # -- export ---------------------------------------------------------

    def write_chrome(self, path: str, process_name: str,
                     other_data: Optional[Dict] = None) -> None:
        """Write the coarse spans as a host-time Chrome trace."""
        from repro.obs.tracing import TraceWriter

        writer = TraceWriter(process_name)
        tid = writer.lane("host")
        origin = min((s.start_s for s in self.spans), default=0.0)
        for span in sorted(self.spans, key=lambda s: (s.start_s, -s.dur_s)):
            args: Dict = {"id": span.span_id, "parent": span.parent_id,
                          "self_us": span.self_s * 1e6}
            args.update(span.counts)
            for key, (calls, self_s) in sorted(span.folded.items()):
                args[f"{key}.calls"] = calls
                args[f"{key}.self_us"] = self_s * 1e6
            writer.complete(span.key, (span.start_s - origin) * 1e6,
                            span.dur_s * 1e6, tid, cat="host", args=args)
        writer.write(path, other_data=other_data)


def _bindings_of(target: object) -> List[Tuple[object, str]]:
    """Every ``(module, name)`` in ``sys.modules`` bound to ``target``."""
    found = []
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            if value is target:
                found.append((module, name))
    return found


# ----------------------------------------------------------------------
# The per-layer ledger
# ----------------------------------------------------------------------


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(stats: Dict[str, LayerStats]) -> Dict[str, float]:
    """The per-layer metrics of one traced answer, by declared name.

    ``trace.overhead`` needs an untraced wall time and is added by the
    runner.
    """
    empty = LayerStats()

    def get(key: str) -> LayerStats:
        return stats.get(key, empty)

    def count(key: str, name: str) -> int:
        return get(key).counts.get(name, 0)

    executor, kernels = get("executor"), get("kernels")
    reads, writes = get("memory.read"), get("memory.write")
    autotune, codesign = get("autotune"), get("codesign")
    fit, predict = get("surrogate.fit"), get("surrogate.predict")
    capacity, cluster = get("capacity"), get("cluster")
    serving, fleet = get("serving"), get("fleet")
    resilience = get("resilience")

    ops = count("executor", "ops")
    llc_hits = count("memory.read", "llc_hits") + count("memory.write",
                                                       "llc_hits")
    llc_accesses = (count("memory.read", "llc_accesses")
                    + count("memory.write", "llc_accesses"))
    probes = cluster.nested.get("capacity", 0)
    return {
        "executor.calls": executor.calls,
        "executor.ops": ops,
        "executor.self_s": executor.self_s,
        "executor.us_per_op": _ratio(executor.span_s * 1e6, ops),
        "memory.calls": reads.calls + writes.calls,
        "memory.self_s": reads.self_s + writes.self_s,
        "memory.llc_accesses": llc_accesses,
        "memory.llc_hits": llc_hits,
        "memory.llc_hit_rate": _ratio(llc_hits, llc_accesses),
        "memory.llc_writebacks": (count("memory.read", "llc_writebacks")
                                  + count("memory.write", "llc_writebacks")),
        "kernels.calls": kernels.calls,
        "kernels.self_s": kernels.self_s,
        "autotune.calls": autotune.calls,
        "autotune.self_s": autotune.self_s,
        "autotune.executor_runs_per_call": _ratio(
            executor.nested.get("autotune", 0), autotune.calls),
        "surrogate.fit_calls": fit.calls,
        "surrogate.fit_s": fit.self_s,
        "surrogate.predict_calls": predict.calls,
        "surrogate.predict_s": predict.self_s,
        "codesign.evals_surrogate": count("codesign", "evals_surrogate"),
        "codesign.evals_device": count("codesign", "evals_device"),
        "codesign.evals_serving": count("codesign", "evals_serving"),
        "codesign.self_s": codesign.self_s,
        "capacity.answers": capacity.calls,
        "capacity.probes": probes,
        "capacity.probes_per_answer": _ratio(probes, capacity.calls),
        "capacity.self_s": capacity.self_s,
        "cluster.runs": cluster.calls,
        "cluster.requests": count("cluster", "requests"),
        "cluster.lost": count("cluster", "lost"),
        "cluster.self_s": cluster.self_s,
        "cluster.requests_per_s": _ratio(count("cluster", "requests"),
                                         cluster.self_s),
        "serving.streams": serving.calls,
        "serving.requests": count("serving", "requests"),
        "serving.self_s": serving.self_s,
        "fleet.runs": fleet.calls,
        "fleet.requests": count("fleet", "requests"),
        "fleet.self_s": fleet.self_s,
        "resilience.runs": resilience.calls,
        "resilience.events": count("resilience", "events"),
        "resilience.self_s": resilience.self_s,
        "resilience.events_per_s": _ratio(count("resilience", "events"),
                                          resilience.self_s),
        "trace.uncovered_s": get(ROOT_SPAN).self_s,
    }
