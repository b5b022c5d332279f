"""The graph executor: turns (model graph, chip) into latency, hit rates,
throughput, and energy.

This is the performance model's core loop.  A run makes two passes over
the schedule:

1. the **memory pass** places every tensor (section 4.1 policy) and
   routes every operand access through the memory hierarchy, measuring
   LLC hits with a real cache simulation.  It records the raw bytes each
   access moved per level in a :class:`MemoryTrace`.  It reads nothing
   of the chip but its SRAM size and partition granularity, so the
   trace is memoized (:data:`memory_trace`) and every chip in one SRAM
   rung replays the LLC once;
2. the **kernel pass**, per chip: the kernel model supplies engine-side
   times (compute, issue, Local Memory staging) and operand re-read
   factors that scale each recorded access; embedding gathers take
   their hit rate from Che's approximation of a Zipf-skewed row stream;
   the op's latency is the maximum of the engine time and each memory
   level's streaming time (engines and DMA pipeline against each
   other), plus the job-launch overhead; energy integrates a
   utilization-scaled power model.

The same executor runs MTIA 1, MTIA 2i, and the GPU baseline — only the
chip spec and the placement policy differ, which is what makes the
cross-platform Perf/TCO comparisons apples-to-apples (section 5.6).
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import math
from array import array
from typing import Callable, Dict, List, Optional

from repro.arch.specs import ChipSpec
from repro.graph.graph import OpGraph
from repro.graph.ops import Op, OpType
from repro.kernels.base import KernelEstimate
from repro.kernels.gemm import GemmVariant
from repro.kernels.registry import estimate_op
from repro.memory.cache import CacheStats
from repro.memory.hierarchy import (
    MemoryHierarchy,
    Placement,
    SramPartition,
    Traffic,
    partition_for_activations,
)
from repro.memory.scratch import plan_allocation
from repro.tensors.tensor import TensorKind, TensorSpec

# Streaming efficiency of LPDDR/HBM with and without DMA prefetch hiding
# the access latency (calibrated so prefetch-optimized DRAM-bound GEMMs
# reach the paper's ">95% of DRAM bandwidth").
DRAM_EFFICIENCY_PREFETCH = 0.96
DRAM_EFFICIENCY_DEMAND = 0.62

# Fraction of the LLC partition effectively available to embedding-row
# caching; the rest churns with dense-weight and spilled-activation
# traffic.  Applied to Che's-approximation capacity for TBE gathers.
TBE_LLC_SHARE = 0.6

# Memory traces kept by :data:`memory_trace`, least recently used first
# out.  A zoo-model trace is a few kilobytes.
MEMORY_TRACE_CACHE_SIZE = 64


@dataclasses.dataclass
class OpProfile:
    """Measured cost breakdown of one op."""

    op_name: str
    op_type: str
    time_s: float
    compute_s: float
    issue_s: float
    dram_s: float
    sram_s: float
    noc_s: float
    host_s: float
    launch_s: float
    bottleneck: str
    dram_bytes: float
    sram_bytes: float
    flops: float


@dataclasses.dataclass
class ExecutionReport:
    """Everything measured from one model execution on one chip."""

    chip_name: str
    model_name: str
    batch: int
    op_profiles: List[OpProfile]
    dense_hit_rate: float
    sparse_hit_rate: float
    activation_buffer_bytes: int
    lls_bytes: int
    llc_bytes: int
    activations_in_lls: bool
    weight_bytes: int
    energy_j: float

    @property
    def latency_s(self) -> float:
        """End-to-end latency of one batch."""
        return sum(p.time_s for p in self.op_profiles)

    @property
    def throughput_samples_per_s(self) -> float:
        """Samples per second at this batch size."""
        return self.batch / self.latency_s if self.latency_s else 0.0

    @property
    def avg_power_w(self) -> float:
        """Average power over the batch."""
        return self.energy_j / self.latency_s if self.latency_s else 0.0

    @property
    def perf_per_watt(self) -> float:
        """Samples per second per watt."""
        return self.throughput_samples_per_s / self.avg_power_w if self.avg_power_w else 0.0

    @property
    def total_flops(self) -> float:
        """FLOPs executed for the batch."""
        return sum(p.flops for p in self.op_profiles)

    @property
    def achieved_flops_per_s(self) -> float:
        """Sustained FLOP/s over the batch."""
        return self.total_flops / self.latency_s if self.latency_s else 0.0

    def bottleneck_histogram(self) -> Dict[str, float]:
        """Share of latency attributed to each bottleneck."""
        histogram: Dict[str, float] = {}
        for profile in self.op_profiles:
            histogram[profile.bottleneck] = (
                histogram.get(profile.bottleneck, 0.0) + profile.time_s
            )
        total = self.latency_s or 1.0
        return {k: v / total for k, v in histogram.items()}


# -- memory pass ---------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class MemoryTrace:
    """What one memory pass measured: everything a run needs from the
    memory hierarchy, with no reference to the graph it came from.

    ``moves`` holds five raw byte counts per access — Local Memory,
    SRAM, DRAM, host, NoC, the :class:`Traffic` field order — in access
    order: per op, its :func:`_op_reads` and then its outputs.
    ``writebacks`` holds each op's dirty-eviction bytes, and the dense
    counters cover the measured pass (after the warm-up passes).
    """

    partition: SramPartition
    activation_bytes: int
    activations_in_lls: bool
    block_bytes: int
    has_llc: bool
    moves: array
    writebacks: array
    dense_hits: int
    dense_accesses: int


def _op_reads(op: Op) -> List[TensorSpec]:
    """The op's operand reads that go through the hierarchy: each
    distinct input once, except a TBE's tables (gathered, not
    streamed — see :meth:`Executor._tbe_gather_traffic`)."""
    seen = set()
    reads = []
    for tensor in op.inputs:
        if tensor.uid in seen:
            continue
        seen.add(tensor.uid)
        if op.op_type is OpType.TBE and tensor.kind == TensorKind.EMBEDDING:
            continue
        reads.append(tensor)
    return reads


def _build_hierarchy(graph: OpGraph, chip: ChipSpec, seed: int) -> tuple:
    """Apply the section 4.1 placement policy and return the hierarchy
    plus the activation buffer size and whether it landed in LLS.

    Policy, in order:

    1. size the LLS to hold the activation buffer (liveness-packed);
    2. if the dense FC weights exceed what the remaining LLC can keep
       resident, *pin* as many weight tensors as fit into spare SRAM
       granules — the hardware-cache path cannot hold a cyclically
       streamed working set, but pinned data never gets evicted
       (the same reason the paper pins activations);
    3. everything else: weights/tables cached in LLC over DRAM,
       inputs/outputs over the host link.
    """
    plan = plan_allocation(graph.activation_buffer_requests())
    activation_bytes = plan.peak_bytes
    partition = partition_for_activations(chip, activation_bytes)
    activations_in_lls = (
        partition.lls_bytes >= activation_bytes and partition.lls_bytes > 0
    )
    # Weight pinning: if dense weights overflow the LLC, convert spare
    # SRAM into pinned weight space, keeping a floor of LLC for
    # embedding and streaming traffic.
    pinned: set = set()
    if activations_in_lls:
        gran = chip.sram_partition_bytes
        min_llc = 2 * gran
        dense_weights = [
            t for t in graph.weights() if t.kind == TensorKind.WEIGHT
        ]
        dense_total = sum(t.num_bytes for t in dense_weights)
        default_llc = partition.llc_bytes
        if dense_total > default_llc * 0.8 and default_llc > min_llc:
            budget = chip.sram.capacity_bytes - partition.lls_bytes - min_llc
            used = 0
            for tensor in sorted(dense_weights, key=lambda t: t.num_bytes):
                if used + tensor.num_bytes <= budget:
                    pinned.add(tensor.uid)
                    used += tensor.num_bytes
            if used:
                new_lls = _round_up_to(partition.lls_bytes + used, gran)
                new_lls = min(new_lls, chip.sram.capacity_bytes - min_llc)
                partition = SramPartition(
                    lls_bytes=new_lls,
                    llc_bytes=chip.sram.capacity_bytes - new_lls,
                    granularity_bytes=gran,
                )
    hierarchy = MemoryHierarchy(chip, partition, seed=seed)
    target = Placement.LLS if activations_in_lls else Placement.LLC
    for op in graph.ops:
        for tensor in op.outputs:
            if tensor.kind == TensorKind.ACTIVATION:
                hierarchy.place(tensor, target, reserve=False)
        for tensor in op.inputs:
            if tensor.kind == TensorKind.INPUT:
                hierarchy.place(tensor, Placement.HOST)
            elif tensor.uid in pinned:
                hierarchy.place(tensor, Placement.LLS, reserve=False)
            elif tensor.kind in (TensorKind.WEIGHT, TensorKind.EMBEDDING):
                hierarchy.place(tensor, Placement.LLC)
    # Graph outputs return to the host.
    for tensor in graph.graph_outputs():
        hierarchy.place(tensor, Placement.HOST)
    return hierarchy, activation_bytes, activations_in_lls


def _replay_memory(
    graph: OpGraph, chip: ChipSpec, warmup_runs: int, seed: int
) -> MemoryTrace:
    """Run the memory pass: ``warmup_runs`` passes prime the LLC, then
    the measured pass records every access."""
    hierarchy, activation_bytes, in_lls = _build_hierarchy(graph, chip, seed)
    accesses = [(_op_reads(op), op.outputs) for op in graph.ops]
    read, write = hierarchy.read, hierarchy.write
    for _ in range(warmup_runs):
        for reads, writes in accesses:
            for tensor in reads:
                read(tensor)
            for tensor in writes:
                write(tensor)
    # Without an LLC nothing hits, misses or writes back.
    stats = hierarchy.llc.stats if hierarchy.llc else CacheStats()
    hits_before, accesses_before = stats.hits, stats.accesses
    moves = array("d")
    writebacks = array("q")
    for reads, writes in accesses:
        written_back = stats.bytes_written_back
        for moved in itertools.chain(map(read, reads), map(write, writes)):
            moves.extend((
                moved.local_memory_bytes, moved.sram_bytes, moved.dram_bytes,
                moved.host_bytes, moved.noc_bytes,
            ))
        writebacks.append(stats.bytes_written_back - written_back)
    return MemoryTrace(
        partition=hierarchy.partition,
        activation_bytes=activation_bytes,
        activations_in_lls=in_lls,
        block_bytes=hierarchy.block_bytes,
        has_llc=hierarchy.llc is not None,
        moves=moves,
        writebacks=writebacks,
        dense_hits=stats.hits - hits_before,
        dense_accesses=stats.accesses - accesses_before,
    )


_OP_TYPE_CODES = {op_type: code for code, op_type in enumerate(OpType)}
_KIND_CODES = {kind: code for code, kind in enumerate(TensorKind.ALL)}


def _trace_key(graph: OpGraph, chip: ChipSpec, warmup_runs: int, seed: int) -> tuple:
    """Every value the memory pass reads, as exact integers.

    Per op: its type and operand counts, then ``(uid, kind, bytes)`` of
    each input and output.  That fixes the liveness, the placement and
    the access stream; the uid also fixes the LLC set each block maps
    to.  Of the chip only the SRAM size and partition granularity are
    read; the block size and associativity are the hierarchy's fixed
    defaults.  The key holds no graph object, so a cached trace pins
    no graph.
    """
    fields = array("q")
    for op in graph.ops:
        fields.extend((_OP_TYPE_CODES[op.op_type], len(op.inputs), len(op.outputs)))
        for tensor in itertools.chain(op.inputs, op.outputs):
            fields.extend((tensor.uid, _KIND_CODES[tensor.kind], tensor.num_bytes))
    return (
        fields.tobytes(),
        chip.sram.capacity_bytes,
        chip.sram_partition_bytes,
        warmup_runs,
        seed,
    )


CacheInfo = collections.namedtuple("CacheInfo", "hits misses maxsize currsize")


class MemoryTraceCache:
    """LRU memo of :class:`MemoryTrace` keyed by :func:`_trace_key`.

    Call it as ``memory_trace(graph, chip, warmup_runs, seed)``: a miss
    replays the memory pass and records it, a hit returns the recorded
    trace.  ``cache_info()`` and ``cache_clear()`` follow
    :func:`functools.lru_cache`.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._traces: "collections.OrderedDict[tuple, MemoryTrace]" = (
            collections.OrderedDict()
        )
        self._hits = self._misses = 0

    def __call__(
        self, graph: OpGraph, chip: ChipSpec, warmup_runs: int, seed: int
    ) -> MemoryTrace:
        key = _trace_key(graph, chip, warmup_runs, seed)
        trace = self._traces.get(key)
        if trace is not None:
            self._hits += 1
            self._traces.move_to_end(key)
            return trace
        self._misses += 1
        trace = _replay_memory(graph, chip, warmup_runs, seed)
        self._traces[key] = trace
        if len(self._traces) > self.maxsize:
            self._traces.popitem(last=False)
        return trace

    def cache_info(self) -> CacheInfo:
        """Hits, misses, the bound and the current number of traces."""
        return CacheInfo(self._hits, self._misses, self.maxsize, len(self._traces))

    def cache_clear(self) -> None:
        """Drop every trace and zero the counters."""
        self._traces.clear()
        self._hits = self._misses = 0


memory_trace = MemoryTraceCache(MEMORY_TRACE_CACHE_SIZE)


# -- kernel pass -----------------------------------------------------------


class Executor:
    """Runs op graphs against a chip model.

    Each run takes its memory pass from :data:`memory_trace` — replayed
    on a miss, reused on a hit — and makes the kernel pass for this
    chip.  ``seed`` seeds the LLC's random-victim sequence (and is part
    of the trace key).  ``host_input_fraction`` in [0, 1] scales every
    op's host-link bytes; ``zipf_exponent`` (>= 0) skews the embedding
    row stream; ``temperature_c`` sets the junction temperature of the
    leakage term (None: the chip's reference temperature).  Bad values
    raise ``ValueError`` here, not as a NaN latency later.
    """

    def __init__(
        self,
        chip: ChipSpec,
        gemm_variant: Optional[GemmVariant] = None,
        variant_selector: Optional[Callable[[Op], GemmVariant]] = None,
        zipf_exponent: float = 1.05,
        seed: int = 0,
        host_input_fraction: float = 1.0,
        temperature_c: Optional[float] = None,
    ) -> None:
        if not 0.0 <= host_input_fraction <= 1.0:
            raise ValueError(
                f"host_input_fraction must be in [0, 1], got {host_input_fraction!r}"
            )
        if not 0.0 <= zipf_exponent < math.inf:
            raise ValueError(
                f"zipf_exponent must be finite and non-negative, got {zipf_exponent!r}"
            )
        if temperature_c is not None and not math.isfinite(temperature_c):
            raise ValueError(f"temperature_c must be finite, got {temperature_c!r}")
        self.chip = chip
        self.gemm_variant = gemm_variant
        self.variant_selector = variant_selector
        self.zipf_exponent = zipf_exponent
        self.seed = seed
        self.host_input_fraction = host_input_fraction
        # Junction temperature for the leakage term of the energy model.
        # None evaluates leakage at the chip's reference temperature —
        # exactly the historical constant-idle behaviour.
        self.temperature_c = temperature_c

    def run(self, graph: OpGraph, batch: int, warmup_runs: int = 1) -> ExecutionReport:
        """Execute the graph and report steady-state behaviour.

        ``warmup_runs`` graph passes prime the LLC first — production
        serving executes the same graph continuously, so steady-state hit
        rates (hot weights resident) are what matters, not cold-cache
        behaviour.  Pass 0 to measure a cold first batch.
        """
        if batch <= 0:
            raise ValueError("batch must be positive")
        if warmup_runs < 0:
            raise ValueError("warmup_runs must be non-negative")
        graph.validate_schedule()
        trace = memory_trace(graph, self.chip, warmup_runs, self.seed)
        grid_side = max(1, int(round(math.sqrt(self.chip.num_pes))))
        profiles: List[OpProfile] = []
        energy = 0.0
        sparse_hits = sparse_total = 0
        at = 0  # offset of the op's first access in trace.moves
        for index, op in enumerate(graph.ops):
            estimate = self._estimate(op)
            traffic, at, tbe_rows = self._scaled_traffic(
                op, estimate, trace, at, grid_side
            )
            traffic.dram_bytes += trace.writebacks[index]
            if self.host_input_fraction != 1.0:
                traffic.host_bytes *= self.host_input_fraction
            if tbe_rows is not None:
                sparse_hits += tbe_rows[0]
                sparse_total += tbe_rows[1]
            profile = self._profile_op(op, estimate, traffic)
            profiles.append(profile)
            energy += self._op_energy(profile)
        dense_hits, dense_total = trace.dense_hits, trace.dense_accesses
        return ExecutionReport(
            chip_name=self.chip.name,
            model_name=graph.name,
            batch=batch,
            op_profiles=profiles,
            dense_hit_rate=dense_hits / dense_total if dense_total > 0 else 1.0,
            sparse_hit_rate=sparse_hits / sparse_total if sparse_total > 0 else 0.0,
            activation_buffer_bytes=trace.activation_bytes,
            lls_bytes=trace.partition.lls_bytes,
            llc_bytes=trace.partition.llc_bytes,
            activations_in_lls=trace.activations_in_lls,
            weight_bytes=graph.weight_bytes(),
            energy_j=energy,
        )

    def _estimate(self, op: Op) -> KernelEstimate:
        variant = None
        if self.variant_selector is not None and op.op_type is OpType.FC:
            variant = self.variant_selector(op)
        elif self.gemm_variant is not None:
            variant = self.gemm_variant
        return estimate_op(op, self.chip, gemm_variant=variant)

    def _scaled_traffic(self, op, estimate, trace, at, grid_side):
        """Scale the op's recorded accesses, starting at ``moves[at]``,
        by its kernel's re-read factors.  Each access is scaled before
        it is summed, exactly as the accesses were modelled one by one.

        Returns the op's traffic (before writebacks and the host
        fraction), the offset of the next op's first access and, for a
        TBE op, its (hit, total) row counts.
        """
        traffic = Traffic()
        tbe_rows = None
        if op.op_type is OpType.TBE:
            tables = [t for t in op.inputs if t.kind == TensorKind.EMBEDDING]
            if tables:
                gathered, tbe_rows = self._tbe_gather_traffic(op, tables, trace)
                traffic += gathered
        moves = trace.moves
        for tensor in _op_reads(op):
            is_weight = tensor.kind in (TensorKind.WEIGHT, TensorKind.EMBEDDING)
            factor = (
                estimate.weight_read_factor if is_weight else estimate.activation_read_factor
            )
            replication = 1.0
            if is_weight and not estimate.broadcast_weights:
                # Without hardware broadcast reads each PE column fetches
                # its own copy of the shared weight tile.
                replication = float(grid_side)
            # A host-resident operand crosses PCIe exactly once; tiling
            # re-reads are served from on-chip staging after that.
            _add_scaled(traffic, moves, at, factor, factor * replication, 1.0)
            at += 5
        factor = estimate.output_write_factor
        for _ in op.outputs:
            _add_scaled(traffic, moves, at, factor, factor, factor)
            at += 5
        return traffic, at, tbe_rows

    def _tbe_gather_traffic(self, op, tables, trace):
        """Convert the Zipf-skewed row gather into byte traffic.

        The steady-state LLC hit rate comes from Che's characteristic-
        time approximation (:mod:`repro.memory.che`) — replaying enough
        accesses through the cache simulator to reach steady state for
        multi-gigabyte tables is infeasible, and Che's approximation is
        near-exact for independent-reference Zipf traffic.  The tables
        compete with dense-weight traffic for LLC capacity, modelled by
        the ``TBE_LLC_SHARE`` of the cache partition.  Returns the
        traffic and the (hit, total) row counts.
        """
        from repro.memory.che import tbe_llc_hit_rate

        total_rows = max(1, op.attrs["total_rows"])
        num_tables = max(1, op.attrs["num_tables"])
        row_bytes = max(1, tables[0].shape[1] * tables[0].dtype.bytes)
        if trace.has_llc:
            hit_rate = tbe_llc_hit_rate(
                num_rows_per_table=tables[0].shape[0],
                num_tables=num_tables,
                row_bytes=row_bytes,
                llc_bytes_for_tbe=int(trace.partition.llc_bytes * TBE_LLC_SHARE),
                block_bytes=trace.block_bytes,
                zipf_exponent=self.zipf_exponent,
            )
        else:
            hit_rate = 0.0
        total_bytes = float(total_rows * row_bytes)
        traffic = Traffic(
            sram_bytes=total_bytes,  # every row passes through SRAM/fill
            dram_bytes=total_bytes * (1.0 - hit_rate),
            noc_bytes=total_bytes,
        )
        return traffic, (int(round(hit_rate * total_rows)), total_rows)

    def _profile_op(self, op, estimate, traffic) -> OpProfile:
        chip = self.chip
        compute_s = estimate.compute_s / chip.sustained_gemm_fraction
        dram_eff = DRAM_EFFICIENCY_PREFETCH if estimate.prefetch else DRAM_EFFICIENCY_DEMAND
        dram_s = traffic.dram_bytes / (chip.dram.bandwidth_bytes_per_s * dram_eff)
        sram_s = traffic.sram_bytes / chip.sram.bandwidth_bytes_per_s
        noc_s = traffic.noc_bytes / chip.noc_bandwidth_bytes_per_s
        host_s = traffic.host_bytes / chip.host_link.bandwidth_bytes_per_s
        launch_s = (
            chip.eager.job_replace_s
            if chip.eager.broadcast_work_queues
            else chip.eager.job_launch_s
        )
        times = {
            "compute": compute_s,
            "issue": estimate.issue_s,
            "local_memory": estimate.local_memory_s,
            "dram": dram_s,
            "sram": sram_s,
            "noc": noc_s,
            "host": host_s,
        }
        bottleneck = max(times, key=times.get)
        # Overlap model: the dominant component sets the floor; the rest
        # is hidden according to the chip's pipelining quality.  Issue and
        # Local Memory staging run concurrently with the engines by
        # construction, so only compute and the off-PE memory levels
        # participate in the exposed remainder.
        overlappable = (compute_s, dram_s, sram_s, noc_s, host_s)
        exposed = (1.0 - chip.overlap_factor) * (sum(overlappable) - max(overlappable))
        op_time = max(times.values()) + exposed + launch_s
        return OpProfile(
            op_name=op.name,
            op_type=op.op_type.value,
            time_s=op_time,
            compute_s=compute_s,
            issue_s=estimate.issue_s,
            dram_s=dram_s,
            sram_s=sram_s,
            noc_s=noc_s,
            host_s=host_s,
            launch_s=launch_s,
            bottleneck=bottleneck,
            dram_bytes=traffic.dram_bytes,
            sram_bytes=traffic.sram_bytes,
            flops=op.flops(),
        )

    def _op_energy(self, profile: OpProfile) -> float:
        chip = self.chip
        leakage = chip.leakage_power_w(self.temperature_c)
        dynamic = chip.typical_watts * (1.0 - chip.idle_power_fraction)
        busy = profile.compute_s / profile.time_s if profile.time_s else 0.0
        busy = min(1.0, busy)
        return profile.time_s * (leakage + dynamic * busy)


def _round_up_to(value: int, granule: int) -> int:
    return (value + granule - 1) // granule * granule


def _add_scaled(
    traffic: Traffic, moves: array, at: int, factor: float, noc_scale: float,
    host_scale: float,
) -> None:
    """Add the access recorded at ``moves[at:at + 5]`` to ``traffic``,
    each level scaled by its factor."""
    traffic.local_memory_bytes += moves[at] * factor
    traffic.sram_bytes += moves[at + 1] * factor
    traffic.dram_bytes += moves[at + 2] * factor
    traffic.host_bytes += moves[at + 3] * host_scale
    traffic.noc_bytes += moves[at + 4] * noc_scale
