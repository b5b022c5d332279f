"""The graph executor: turns (model graph, chip) into latency, hit rates,
throughput, and energy.

This is the performance model's core loop.  For each op in the schedule:

1. the kernel model supplies engine-side times (compute, issue, Local
   Memory staging) and operand re-read factors;
2. the memory hierarchy routes every operand according to its placement,
   measuring LLC hits with a real cache simulation (embedding gathers
   replay a Zipf-skewed index stream);
3. the op's latency is the maximum of the engine time and each memory
   level's streaming time (engines and DMA pipeline against each other),
   plus the job-launch overhead;
4. energy integrates a utilization-scaled power model.

The same executor runs MTIA 1, MTIA 2i, and the GPU baseline — only the
chip spec and the placement policy differ, which is what makes the
cross-platform Perf/TCO comparisons apples-to-apples (section 5.6).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.arch.specs import ChipSpec
from repro.graph.graph import OpGraph
from repro.graph.ops import Op, OpType
from repro.kernels.base import KernelEstimate
from repro.kernels.gemm import GemmVariant
from repro.kernels.registry import estimate_op
from repro.memory.hierarchy import MemoryHierarchy, Placement, partition_for_activations
from repro.memory.scratch import plan_allocation
from repro.tensors.tensor import TensorKind

# Streaming efficiency of LPDDR/HBM with and without DMA prefetch hiding
# the access latency (calibrated so prefetch-optimized DRAM-bound GEMMs
# reach the paper's ">95% of DRAM bandwidth").
DRAM_EFFICIENCY_PREFETCH = 0.96
DRAM_EFFICIENCY_DEMAND = 0.62

# Fraction of the LLC partition effectively available to embedding-row
# caching; the rest churns with dense-weight and spilled-activation
# traffic.  Applied to Che's-approximation capacity for TBE gathers.
TBE_LLC_SHARE = 0.6


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


class Executor:
    """Runs op graphs against a chip model."""

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

    # -- placement ---------------------------------------------------------

    def _build_hierarchy(self, graph: OpGraph) -> tuple:
        """Apply the section 4.1 placement policy and return the hierarchy
        plus whether the activation buffer landed in LLS.

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
        partition = partition_for_activations(self.chip, activation_bytes)
        activations_in_lls = (
            partition.lls_bytes >= activation_bytes and partition.lls_bytes > 0
        )
        # Weight pinning: if dense weights overflow the LLC, convert spare
        # SRAM into pinned weight space, keeping a floor of LLC for
        # embedding and streaming traffic.
        pinned: set = set()
        if activations_in_lls:
            gran = self.chip.sram_partition_bytes
            min_llc = 2 * gran
            dense_weights = [
                t for t in graph.weights() if t.kind == TensorKind.WEIGHT
            ]
            dense_total = sum(t.num_bytes for t in dense_weights)
            default_llc = partition.llc_bytes
            if dense_total > default_llc * 0.8 and default_llc > min_llc:
                budget = self.chip.sram.capacity_bytes - partition.lls_bytes - min_llc
                used = 0
                for tensor in sorted(dense_weights, key=lambda t: t.num_bytes):
                    if used + tensor.num_bytes <= budget:
                        pinned.add(tensor.uid)
                        used += tensor.num_bytes
                if used:
                    from repro.memory.hierarchy import SramPartition

                    new_lls = _round_up_to(partition.lls_bytes + used, gran)
                    new_lls = min(new_lls, self.chip.sram.capacity_bytes - min_llc)
                    partition = SramPartition(
                        lls_bytes=new_lls,
                        llc_bytes=self.chip.sram.capacity_bytes - new_lls,
                        granularity_bytes=gran,
                    )
        hierarchy = MemoryHierarchy(self.chip, partition)
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

    # -- execution -----------------------------------------------------------

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
        hierarchy, activation_bytes, in_lls = self._build_hierarchy(graph)
        rng = np.random.default_rng(self.seed)
        # The kernel estimate depends only on (op, chip, variant), so one
        # per op serves the warm-up and measured passes alike.
        scheduled = [(op, self._estimate(op)) for op in graph.ops]
        for _ in range(warmup_runs):
            for op, estimate in scheduled:
                self._op_traffic(op, hierarchy, estimate, rng)
        profiles: List[OpProfile] = []
        energy = 0.0
        sparse_hits = sparse_total = 0
        sim_hits = sim_samples = 0
        dense_hits_before = hierarchy.llc.stats.hits if hierarchy.llc else 0
        dense_total_before = hierarchy.llc.stats.accesses if hierarchy.llc else 0
        for op, estimate in scheduled:
            traffic, tbe_stats = self._op_traffic(op, hierarchy, estimate, rng)
            if tbe_stats is not None:
                sparse_hits += tbe_stats["scaled_hits"]
                sparse_total += tbe_stats["total_rows"]
                sim_hits += tbe_stats["sim_hits"]
                sim_samples += tbe_stats["sim_samples"]
            profile = self._profile_op(op, estimate, traffic)
            profiles.append(profile)
            energy += self._op_energy(profile)
        if hierarchy.llc:
            dense_hits = hierarchy.llc.stats.hits - dense_hits_before
            dense_total = hierarchy.llc.stats.accesses - dense_total_before
        else:
            dense_hits = dense_total = 0
        # The dense LLC counters include the *simulated* TBE accesses;
        # subtract the simulation counts to report the dense-network hit
        # rate on its own.
        dense_hits -= sim_hits
        dense_total -= sim_samples
        return ExecutionReport(
            chip_name=self.chip.name,
            model_name=graph.name,
            batch=batch,
            op_profiles=profiles,
            dense_hit_rate=dense_hits / dense_total if dense_total > 0 else 1.0,
            sparse_hit_rate=sparse_hits / sparse_total if sparse_total > 0 else 0.0,
            activation_buffer_bytes=activation_bytes,
            lls_bytes=hierarchy.partition.lls_bytes,
            llc_bytes=hierarchy.partition.llc_bytes,
            activations_in_lls=in_lls,
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

    def _op_traffic(self, op, hierarchy, estimate, rng):
        """Route the op's operands through the hierarchy; returns the
        accumulated traffic and, for TBE ops, (hits, total) row stats."""
        from repro.memory.hierarchy import Traffic

        traffic = Traffic()
        tbe_stats = None
        writebacks_before = (
            hierarchy.llc.stats.bytes_written_back if hierarchy.llc else 0
        )
        grid_side = max(1, int(round(math.sqrt(self.chip.num_pes))))
        if op.op_type is OpType.TBE:
            tables = [t for t in op.inputs if t.kind == TensorKind.EMBEDDING]
            if tables:
                gathered, tbe_stats = self._tbe_gather_traffic(op, tables, hierarchy, rng)
                traffic += gathered
        seen = set()
        for tensor in op.inputs:
            if tensor.uid in seen:
                continue
            seen.add(tensor.uid)
            if op.op_type is OpType.TBE and tensor.kind == TensorKind.EMBEDDING:
                continue  # handled above
            is_weight = tensor.kind in (TensorKind.WEIGHT, TensorKind.EMBEDDING)
            factor = (
                estimate.weight_read_factor if is_weight else estimate.activation_read_factor
            )
            moved = hierarchy.read(tensor)
            replication = 1.0
            if is_weight and not estimate.broadcast_weights:
                # Without hardware broadcast reads each PE column fetches
                # its own copy of the shared weight tile.
                replication = float(grid_side)
            scaled = _scale_traffic(moved, factor, noc_scale=factor * replication)
            # A host-resident operand crosses PCIe exactly once; tiling
            # re-reads are served from on-chip staging after that.
            scaled.host_bytes = moved.host_bytes
            traffic += scaled
        for tensor in op.outputs:
            moved = hierarchy.write(tensor)
            traffic += _scale_traffic(moved, estimate.output_write_factor)
        if hierarchy.llc:
            # Dirty LLC evictions (activations spilled from SRAM) write
            # back to DRAM — the cost the paper avoids by pinning the
            # activation buffer in LLS and hinting no-reuse tensors.
            traffic.dram_bytes += (
                hierarchy.llc.stats.bytes_written_back - writebacks_before
            )
        if self.host_input_fraction != 1.0:
            traffic.host_bytes *= self.host_input_fraction
        return traffic, tbe_stats

    def _tbe_gather_traffic(self, op, tables, hierarchy, rng):
        """Convert the Zipf-skewed row gather into byte traffic.

        The steady-state LLC hit rate comes from Che's characteristic-
        time approximation (:mod:`repro.memory.che`) — replaying enough
        accesses through the cache simulator to reach steady state for
        multi-gigabyte tables is infeasible, and Che's approximation is
        near-exact for independent-reference Zipf traffic.  The tables
        compete with dense-weight traffic for LLC capacity, modelled by
        the ``TBE_LLC_SHARE`` of the cache partition.
        """
        from repro.memory.che import tbe_llc_hit_rate
        from repro.memory.hierarchy import Traffic

        total_rows = max(1, op.attrs["total_rows"])
        num_tables = max(1, op.attrs["num_tables"])
        row_bytes = max(1, tables[0].shape[1] * tables[0].dtype.bytes)
        if hierarchy.llc is not None:
            hit_rate = tbe_llc_hit_rate(
                num_rows_per_table=tables[0].shape[0],
                num_tables=num_tables,
                row_bytes=row_bytes,
                llc_bytes_for_tbe=int(hierarchy.partition.llc_bytes * TBE_LLC_SHARE),
                block_bytes=hierarchy.block_bytes,
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
        stats = {
            "scaled_hits": int(round(hit_rate * total_rows)),
            "total_rows": total_rows,
            "sim_hits": 0,
            "sim_samples": 0,
        }
        return traffic, stats

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


def _scale_traffic(traffic, factor: float, noc_scale: Optional[float] = None):
    from repro.memory.hierarchy import Traffic

    return Traffic(
        local_memory_bytes=traffic.local_memory_bytes * factor,
        sram_bytes=traffic.sram_bytes * factor,
        dram_bytes=traffic.dram_bytes * factor,
        host_bytes=traffic.host_bytes * factor,
        noc_bytes=traffic.noc_bytes * (noc_scale if noc_scale is not None else factor),
    )
