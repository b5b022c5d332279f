"""Data-placement autotuning: the LLS/LLC sizing policy (section 4.1).

The policy the paper describes verbatim: "configure the LLS to hold the
entire activation buffer and use the remaining SRAM for LLC.  When the
activation buffer is too large to fit, compare the performance of the
nearest lower batch size where activations do fit in LLS with the
current batch size with activations in LLC and pick the winner."
"""

from __future__ import annotations

import dataclasses
from typing import Callable

from repro.arch.specs import ChipSpec
from repro.graph.graph import OpGraph
from repro.memory.hierarchy import SramPartition, partition_for_activations
from repro.memory.scratch import plan_allocation
from repro.perf.executor import ExecutionReport, Executor


@dataclasses.dataclass(frozen=True)
class PlacementDecision:
    """Outcome of the placement policy for one (model, batch) pair."""

    batch: int
    partition: SramPartition
    activations_in_lls: bool
    activation_buffer_bytes: int
    report: ExecutionReport


def activation_buffer_bytes(graph: OpGraph) -> int:
    """The liveness-packed activation footprint autotuning fits into LLS."""
    return plan_allocation(graph.activation_buffer_requests()).peak_bytes


def tune_placement(
    build_graph: Callable[[int], OpGraph],
    batch: int,
    chip: ChipSpec,
) -> PlacementDecision:
    """Apply the section 4.1 policy and return the winning configuration.

    ``build_graph`` rebuilds the model at a given batch size (placement
    and batch interact: the fallback compares a smaller LLS-resident
    batch against the requested LLC-resident one).
    """
    if batch <= 0:
        raise ValueError("batch must be positive")
    graph = build_graph(batch)
    buffer_bytes = activation_buffer_bytes(graph)
    partition = partition_for_activations(chip, buffer_bytes)
    fits = partition.lls_bytes >= buffer_bytes and partition.lls_bytes > 0
    executor = Executor(chip)
    report = executor.run(graph, batch)
    if fits:
        return PlacementDecision(
            batch=batch,
            partition=partition,
            activations_in_lls=True,
            activation_buffer_bytes=buffer_bytes,
            report=report,
        )
    # Fallback: find the nearest lower batch whose activations fit, and
    # race it against the LLC-resident configuration at the full batch.
    candidate = batch
    while candidate > 1:
        candidate //= 2
        smaller_graph = build_graph(candidate)
        smaller_bytes = activation_buffer_bytes(smaller_graph)
        smaller_partition = partition_for_activations(chip, smaller_bytes)
        if smaller_partition.lls_bytes >= smaller_bytes > 0:
            smaller_report = Executor(chip).run(smaller_graph, candidate)
            if (
                smaller_report.throughput_samples_per_s
                >= report.throughput_samples_per_s
            ):
                return PlacementDecision(
                    batch=candidate,
                    partition=smaller_partition,
                    activations_in_lls=True,
                    activation_buffer_bytes=smaller_bytes,
                    report=smaller_report,
                )
            break
    return PlacementDecision(
        batch=batch,
        partition=partition,
        activations_in_lls=False,
        activation_buffer_bytes=buffer_bytes,
        report=report,
    )
