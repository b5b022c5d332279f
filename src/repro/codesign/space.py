"""The typed chip design space and the derived-chip constructor.

The DSE harness (ROADMAP item 4) explores candidate "MTIA 3" chips as
coordinates on a small set of :class:`~repro.arch.specs.ChipSpec` axes —
the knobs the paper's co-design narrative actually turned between
generations: the PE grid, on-chip SRAM and off-chip LPDDR capacity and
bandwidth, the GEMM:SIMD throughput ratio (32:1 on MTIA 2i, section
3.2), the operating-frequency ladder, and NoC bandwidth.

:func:`derive_chip` turns a base spec plus axis overrides into a fully
validated candidate.  Every derived field goes back through the frozen
dataclasses' ``__post_init__`` checks, and a physical scaling model
keeps candidates plausible:

* compute throughput scales with the PE count and (with voltage) the
  clock;
* die area is rebuilt from component shares (PE array, SRAM, NoC,
  DRAM PHY/misc) so a candidate with 2x the SRAM pays for it in mm^2;
* ``typical_watts``/``tdp_watts`` are rebuilt from the same shares with
  an f*V(f)^2 dynamic term consistent with
  :func:`repro.power.activity.dynamic_power_w` — so the TCO and
  Perf-per-Watt objectives of a derived chip are computed from *its*
  area and power, never silently from the base chip's figures.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, Optional, Tuple

import numpy as np

from repro.arch.mtia import mtia2i_spec
from repro.arch.specs import ChipSpec, GemmEngineSpec, VectorEngineSpec
from repro.power.activity import VOLTAGE_SLOPE
from repro.power.dvfs import DEFAULT_LADDER_HZ
from repro.units import GB, GHZ, GiB, MiB

# Die-area shares of the base chip by component.  The PE array (DPEs,
# SIMD engines, local memory, scalar cores) dominates; SRAM is the next
# largest block; the LPDDR PHYs + controllers and the NoC fabric take
# the rest.  Shares sum to 1.0 so an all-ones scaling reproduces the
# base area to float rounding.
AREA_SHARE_COMPUTE = 0.48
AREA_SHARE_SRAM = 0.22
AREA_SHARE_NOC = 0.06
AREA_SHARE_IO = 0.14
AREA_SHARE_MISC = 0.10

# Typical-power shares by component at the calibrated operating point.
POWER_SHARE_COMPUTE = 0.55
POWER_SHARE_SRAM = 0.12
POWER_SHARE_DRAM = 0.18
POWER_SHARE_NOC = 0.05
POWER_SHARE_MISC = 0.10

# Fraction of one PE's area/power spent on its SIMD engine at the base
# GEMM:SIMD ratio; beefing SIMD up (lower ratio) grows the PE by this
# share times the SIMD scale.
SIMD_PE_SHARE = 0.10

_AXIS_NAMES = (
    "num_pes",
    "frequency_hz",
    "sram_capacity_bytes",
    "dram_capacity_bytes",
    "dram_bandwidth_bytes_per_s",
    "gemm_to_simd",
    "noc_bandwidth_bytes_per_s",
)


def _frequency_power_factor(freq_scale: float) -> float:
    """Dynamic-power multiplier for a clock change: f * V(f)^2 with the
    same sub-linear voltage slope :mod:`repro.power.activity` uses."""
    voltage = 1.0 + VOLTAGE_SLOPE * (freq_scale - 1.0)
    return freq_scale * voltage * voltage


def _validate_axis(name: str, value) -> None:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def derive_chip(
    base: ChipSpec,
    *,
    num_pes: Optional[int] = None,
    frequency_hz: Optional[float] = None,
    sram_capacity_bytes: Optional[int] = None,
    dram_capacity_bytes: Optional[int] = None,
    dram_bandwidth_bytes_per_s: Optional[float] = None,
    gemm_to_simd: Optional[float] = None,
    noc_bandwidth_bytes_per_s: Optional[float] = None,
    name: Optional[str] = None,
) -> ChipSpec:
    """A candidate chip: ``base`` with design-space axes overridden.

    With no overrides the base spec is returned byte-identical (the
    property the codesign tests pin).  Otherwise:

    * ``num_pes`` (must be a perfect square — it is a PE *grid*) scales
      chip-wide GEMM/vector throughput; per-PE local memory and issue
      rate are per-PE quantities and carry over.
    * ``frequency_hz`` scales compute, on-chip (local memory and SRAM)
      bandwidth, issue rate and NoC in proportion; off-chip DRAM and
      PCIe do not scale.  A derived chip is *designed* at its operating
      point, so ``design_frequency_hz`` follows it.
    * ``sram_capacity_bytes`` scales SRAM bandwidth proportionally
      (more banks).
    * ``gemm_to_simd`` (>= 1) resizes the vector engines relative to the
      (scaled) GEMM engines.
    * ``noc_bandwidth_bytes_per_s`` defaults to the base NoC scaled by
      the PE grid *side* (mesh bisection grows with the side, not the
      PE count) and the clock.
    * ``die_area_mm2``/``typical_watts``/``tdp_watts`` are rebuilt from
      the component-share scaling model above.

    Every provided axis is validated here, and the constructed spec
    re-runs all dataclass ``__post_init__`` invariants.
    """
    provided = {
        axis: value
        for axis, value in (
            ("num_pes", num_pes),
            ("frequency_hz", frequency_hz),
            ("sram_capacity_bytes", sram_capacity_bytes),
            ("dram_capacity_bytes", dram_capacity_bytes),
            ("dram_bandwidth_bytes_per_s", dram_bandwidth_bytes_per_s),
            ("gemm_to_simd", gemm_to_simd),
            ("noc_bandwidth_bytes_per_s", noc_bandwidth_bytes_per_s),
        )
        if value is not None
    }
    if not provided:
        return base if name is None else dataclasses.replace(base, name=name)
    for axis, value in provided.items():
        _validate_axis(axis, value)
    if num_pes is not None:
        side = math.isqrt(int(num_pes))
        if side * side != num_pes:
            raise ValueError(
                f"num_pes must form a square PE grid, got {num_pes}"
            )

    pe_scale = (num_pes if num_pes is not None else base.num_pes) / base.num_pes
    new_frequency = (
        frequency_hz if frequency_hz is not None else base.frequency_hz
    )
    freq_scale = new_frequency / base.frequency_hz
    base_ratio = base.gemm_to_simd_ratio()
    ratio = gemm_to_simd if gemm_to_simd is not None else base_ratio
    if ratio < 1.0:
        raise ValueError("gemm_to_simd ratio must be at least 1")
    simd_scale = base_ratio / ratio

    engine_scale = pe_scale * freq_scale
    gemm = GemmEngineSpec(
        peak_flops={
            d: f * engine_scale for d, f in base.gemm.peak_flops.items()
        },
        sparsity_speedup=base.gemm.sparsity_speedup,
    )
    vector = VectorEngineSpec(
        peak_flops={
            d: f * engine_scale * simd_scale
            for d, f in base.vector.peak_flops.items()
        }
    )
    local = dataclasses.replace(
        base.local_memory,
        bandwidth_bytes_per_s=base.local_memory.bandwidth_bytes_per_s
        * freq_scale,
    )
    sram_capacity = (
        sram_capacity_bytes
        if sram_capacity_bytes is not None
        else base.sram.capacity_bytes
    )
    sram_cap_scale = sram_capacity / base.sram.capacity_bytes
    sram_bandwidth = base.sram.bandwidth_bytes_per_s * sram_cap_scale * freq_scale
    sram = dataclasses.replace(
        base.sram,
        capacity_bytes=int(sram_capacity),
        bandwidth_bytes_per_s=sram_bandwidth,
    )
    dram = dataclasses.replace(
        base.dram,
        capacity_bytes=int(
            dram_capacity_bytes
            if dram_capacity_bytes is not None
            else base.dram.capacity_bytes
        ),
        bandwidth_bytes_per_s=(
            dram_bandwidth_bytes_per_s
            if dram_bandwidth_bytes_per_s is not None
            else base.dram.bandwidth_bytes_per_s
        ),
    )
    # Mesh bisection bandwidth grows with the grid side, not the count.
    noc = (
        noc_bandwidth_bytes_per_s
        if noc_bandwidth_bytes_per_s is not None
        else base.noc_bandwidth_bytes_per_s
        * math.sqrt(pe_scale)
        * freq_scale
    )
    issue = dataclasses.replace(
        base.issue,
        instructions_per_s=base.issue.instructions_per_s * freq_scale,
    )

    # Area: frequency-invariant component scaling.  NoC/SRAM-bandwidth
    # area follow iso-frequency wire/bank counts, never the clock.
    pe_unit = (1.0 - SIMD_PE_SHARE) + SIMD_PE_SHARE * simd_scale
    sram_banks = (sram_bandwidth / freq_scale) / base.sram.bandwidth_bytes_per_s
    noc_wires = (noc / freq_scale) / base.noc_bandwidth_bytes_per_s
    dram_lanes = (
        dram.bandwidth_bytes_per_s / base.dram.bandwidth_bytes_per_s
    )
    sram_area_scale = max(sram_cap_scale, sram_banks)
    area = base.die_area_mm2 * (
        AREA_SHARE_COMPUTE * pe_scale * pe_unit
        + AREA_SHARE_SRAM * sram_area_scale
        + AREA_SHARE_NOC * noc_wires
        + AREA_SHARE_IO * dram_lanes
        + AREA_SHARE_MISC
    )

    # Power: dynamic on-chip shares pay the f*V^2 factor; the DRAM
    # interface runs on its own clock and scales with lane count only.
    g = _frequency_power_factor(freq_scale)
    typical = base.typical_watts * (
        POWER_SHARE_COMPUTE * pe_scale * pe_unit * g
        + POWER_SHARE_SRAM * sram_banks * g
        + POWER_SHARE_NOC * noc_wires * g
        + POWER_SHARE_DRAM * dram_lanes
        + POWER_SHARE_MISC
    )
    tdp = typical * (base.tdp_watts / base.typical_watts)

    label = name or "{}-d{}".format(
        base.name,
        "-".join(
            f"{axis.split('_')[0]}{provided[axis]:g}"
            for axis in _AXIS_NAMES
            if axis in provided
        ),
    )
    return dataclasses.replace(
        base,
        name=label,
        frequency_hz=new_frequency,
        design_frequency_hz=(
            new_frequency
            if frequency_hz is not None
            else base.design_frequency_hz
        ),
        gemm=gemm,
        vector=vector,
        local_memory=local,
        sram=sram,
        dram=dram,
        host_link=base.host_link,
        noc_bandwidth_bytes_per_s=noc,
        num_pes=int(num_pes if num_pes is not None else base.num_pes),
        issue=issue,
        tdp_watts=tdp,
        typical_watts=typical,
        die_area_mm2=area,
    )


@dataclasses.dataclass(frozen=True)
class DesignPoint:
    """One coordinate in the design space (axis *values*, not indices)."""

    num_pes: int
    frequency_hz: float
    sram_capacity_bytes: int
    dram_capacity_bytes: int
    dram_bandwidth_bytes_per_s: float
    gemm_to_simd: float
    noc_scale: float  # multiplier on the PE/frequency-derived NoC default

    def key(self) -> tuple:
        """Hashable, totally ordered identity for caches and tie-breaks."""
        return dataclasses.astuple(self)

    def describe(self) -> str:
        """Compact unique slug: PEs@GHz, SRAM MiB, LPDDR GiB@GB/s,
        GEMM:SIMD, NoC multiplier."""
        return (
            f"{self.num_pes}PE@{self.frequency_hz / GHZ:.2f} "
            f"{self.sram_capacity_bytes // MiB}M "
            f"{self.dram_capacity_bytes // GiB}G@"
            f"{self.dram_bandwidth_bytes_per_s / GB:.0f} "
            f"gs{self.gemm_to_simd:.0f} n{self.noc_scale:g}"
        )


@dataclasses.dataclass(frozen=True)
class DesignSpace:
    """A combinatorial grid over the co-design axes.

    Each field is a strictly ascending tuple of allowed values; a
    :class:`DesignPoint` picks one value per axis.  The space is the
    cartesian product — :meth:`size` counts it, :meth:`random_point`
    samples it, and :meth:`neighbor` makes the single-axis ladder moves
    the annealer uses.
    """

    num_pes: Tuple[int, ...]
    frequency_hz: Tuple[float, ...]
    sram_capacity_bytes: Tuple[int, ...]
    dram_capacity_bytes: Tuple[int, ...]
    dram_bandwidth_bytes_per_s: Tuple[float, ...]
    gemm_to_simd: Tuple[float, ...]
    noc_scale: Tuple[float, ...]

    def __post_init__(self) -> None:
        for axis, values in self.axes().items():
            if not values:
                raise ValueError(f"axis {axis} has no values")
            if any(v <= 0 for v in values):
                raise ValueError(f"axis {axis} has non-positive values")
            if list(values) != sorted(set(values)):
                raise ValueError(
                    f"axis {axis} must be strictly ascending: {values}"
                )

    def axes(self) -> Dict[str, Tuple]:
        """Axis name -> value ladder, in declaration order."""
        return {
            f.name: getattr(self, f.name) for f in dataclasses.fields(self)
        }

    def size(self) -> int:
        """Number of grid points."""
        return int(np.prod([len(v) for v in self.axes().values()]))

    def point_at(self, indices: Tuple[int, ...]) -> DesignPoint:
        """The point at one index per axis (declaration order)."""
        values = {
            axis: ladder[i]
            for (axis, ladder), i in zip(self.axes().items(), indices)
        }
        return DesignPoint(**values)

    def random_point(self, rng: np.random.Generator) -> DesignPoint:
        """A uniformly sampled grid point (one rng draw per axis)."""
        return self.point_at(
            tuple(
                int(rng.integers(0, len(ladder)))
                for ladder in self.axes().values()
            )
        )

    def neighbor(
        self, point: DesignPoint, rng: np.random.Generator
    ) -> DesignPoint:
        """One annealing move: step one axis up or down its ladder.

        The axis is drawn uniformly; a step off either end reflects
        back, so every state keeps at least one outgoing move even at
        ladder corners.  Axes with a single value are never drawn.
        """
        axes = [
            (axis, ladder)
            for axis, ladder in self.axes().items()
            if len(ladder) > 1
        ]
        if not axes:
            return point
        axis, ladder = axes[int(rng.integers(0, len(axes)))]
        index = ladder.index(getattr(point, axis))
        step = 1 if rng.random() < 0.5 else -1
        moved = index + step
        if moved < 0 or moved >= len(ladder):
            moved = index - step
        return dataclasses.replace(point, **{axis: ladder[moved]})

    def to_chip(
        self, point: DesignPoint, base: Optional[ChipSpec] = None
    ) -> ChipSpec:
        """Materialize a grid point as a validated derived chip."""
        base = base or mtia2i_spec()
        noc = None
        if point.noc_scale != 1.0:
            pe_scale = point.num_pes / base.num_pes
            freq_scale = point.frequency_hz / base.frequency_hz
            noc = (
                base.noc_bandwidth_bytes_per_s
                * math.sqrt(pe_scale)
                * freq_scale
                * point.noc_scale
            )
        return derive_chip(
            base,
            num_pes=point.num_pes,
            frequency_hz=point.frequency_hz,
            sram_capacity_bytes=point.sram_capacity_bytes,
            dram_capacity_bytes=point.dram_capacity_bytes,
            dram_bandwidth_bytes_per_s=point.dram_bandwidth_bytes_per_s,
            gemm_to_simd=point.gemm_to_simd,
            noc_bandwidth_bytes_per_s=noc,
            name=f"MTIA3-cand[{point.describe()}]",
        )


def default_space() -> DesignSpace:
    """The full MTIA 3 search grid, anchored so the MTIA 2i coordinates
    are interior points of every axis.

    The frequency ladder extends the production DVFS ladder
    (:data:`repro.power.dvfs.DEFAULT_LADDER_HZ`) one step past the
    deployed 1.35 GHz overclock; LPDDR bandwidth rungs are channel
    counts at LPDDR5X per-channel rates.
    """
    return DesignSpace(
        num_pes=(36, 64, 100, 144),
        frequency_hz=DEFAULT_LADDER_HZ[2:] + (1.5 * GHZ,),
        sram_capacity_bytes=(128 * MiB, 256 * MiB, 384 * MiB, 512 * MiB),
        dram_capacity_bytes=(64 * GiB, 128 * GiB, 192 * GiB, 256 * GiB),
        dram_bandwidth_bytes_per_s=(
            153.6 * GB, 204.8 * GB, 256.0 * GB, 307.2 * GB,
        ),
        gemm_to_simd=(16.0, 32.0, 64.0),
        noc_scale=(0.75, 1.0, 1.5),
    )


def smoke_space() -> DesignSpace:
    """A trimmed grid for CI smoke runs: the same axes, 2-3 rungs each
    (still ~400 points — far more than the smoke search exact-evaluates,
    so the surrogate-guided reduction remains the point)."""
    return DesignSpace(
        num_pes=(36, 64, 144),
        frequency_hz=(1.1 * GHZ, 1.35 * GHZ, 1.5 * GHZ),
        sram_capacity_bytes=(128 * MiB, 256 * MiB, 512 * MiB),
        dram_capacity_bytes=(64 * GiB, 128 * GiB, 256 * GiB),
        dram_bandwidth_bytes_per_s=(204.8 * GB, 307.2 * GB),
        gemm_to_simd=(16.0, 32.0),
        noc_scale=(1.0, 1.5),
    )


__all__ = [
    "DesignPoint",
    "DesignSpace",
    "default_space",
    "derive_chip",
    "smoke_space",
]
