"""Server-level specifications (paper section 3.4).

Both the MTIA 2i server and the GPU baseline server are built on the
open-source Grand Teton platform.  The MTIA server packs two CPU sockets,
each driving 12 accelerators through a PCIe switch (24 chips total); the
GPU server carries 8 GPUs.  Dense packing amortizes host cost but makes
host DRAM bandwidth the contended resource when low-complexity models run
on all 24 accelerators at once.
"""

from __future__ import annotations

import dataclasses
from typing import List

from repro.arch.gpu import gpu_spec
from repro.arch.mtia import mtia2i_spec
from repro.arch.specs import ChipSpec
from repro.units import GB, GiB


@dataclasses.dataclass(frozen=True)
class CpuSocketSpec:
    """One host CPU socket and its attached resources."""

    cores: int
    dram_capacity_bytes: int
    dram_bandwidth_bytes_per_s: float
    nic_bandwidth_bytes_per_s: float

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ValueError("core count must be positive")


@dataclasses.dataclass(frozen=True)
class ServerSpec:
    """A complete accelerator server."""

    name: str
    chip: ChipSpec
    accelerators_per_server: int
    sockets: List[CpuSocketSpec]
    accelerators_per_module: int = 1
    # Non-accelerator platform power (CPUs, DRAM, fans, NIC, losses).
    platform_power_watts: float = 800.0

    def __post_init__(self) -> None:
        if self.accelerators_per_server <= 0:
            raise ValueError("server must contain at least one accelerator")
        if self.accelerators_per_server % len(self.sockets):
            raise ValueError("accelerators must divide evenly across sockets")

    @property
    def accelerators_per_socket(self) -> int:
        """Accelerators attached to one CPU socket's PCIe switch."""
        return self.accelerators_per_server // len(self.sockets)

    @property
    def host_cores_per_accelerator(self) -> float:
        """CPU cores available to each accelerator's model instance."""
        return self.sockets[0].cores / self.accelerators_per_socket

    @property
    def host_dram_per_accelerator_bytes(self) -> float:
        """Host DRAM capacity share per accelerator."""
        return self.sockets[0].dram_capacity_bytes / self.accelerators_per_socket

    @property
    def host_dram_bandwidth_per_accelerator(self) -> float:
        """Host DRAM bandwidth share per accelerator — the bottleneck the
        paper calls out for low-complexity models on 24 accelerators."""
        return self.sockets[0].dram_bandwidth_bytes_per_s / self.accelerators_per_socket

    @property
    def nic_bandwidth_per_accelerator(self) -> float:
        """Front-end network bandwidth share per accelerator."""
        return self.sockets[0].nic_bandwidth_bytes_per_s / self.accelerators_per_socket

    @property
    def max_power_watts(self) -> float:
        """Nameplate server power: platform plus all accelerators at TDP."""
        return self.platform_power_watts + self.accelerators_per_server * self.chip.tdp_watts

    @property
    def typical_power_watts(self) -> float:
        """Typical server power under production load."""
        return (
            self.platform_power_watts * 0.8
            + self.accelerators_per_server * self.chip.typical_watts
        )


def grand_teton_socket() -> CpuSocketSpec:
    """One Grand Teton CPU socket: 96 cores, 12 x 96 GB DDR5 at 460 GB/s,
    2 x 200 Gbps NICs (section 3.4)."""
    return CpuSocketSpec(
        cores=96,
        dram_capacity_bytes=12 * 96 * GiB,
        dram_bandwidth_bytes_per_s=460 * GB,
        nic_bandwidth_bytes_per_s=2 * 200e9 / 8,  # 2 x 200 Gbps -> bytes/s
    )


def mtia2i_server() -> ServerSpec:
    """The production MTIA 2i server: 2 sockets x 12 accelerators, two
    chips per module behind each PCIe switch."""
    return ServerSpec(
        name="Grand Teton MTIA 2i server",
        chip=mtia2i_spec(),
        accelerators_per_server=24,
        sockets=[grand_teton_socket(), grand_teton_socket()],
        accelerators_per_module=2,
        platform_power_watts=800.0,
    )


def gpu_server() -> ServerSpec:
    """The GPU baseline server: 8 GPUs on the same Grand Teton platform."""
    return ServerSpec(
        name="Grand Teton GPU server",
        chip=gpu_spec(),
        accelerators_per_server=8,
        sockets=[grand_teton_socket(), grand_teton_socket()],
        accelerators_per_module=1,
        platform_power_watts=1200.0,  # NVSwitch + denser cooling
    )
