"""Device lifecycle state machine for the resilience simulator.

Each accelerator in the pool walks an explicit lifecycle::

    HEALTHY -> DEGRADED  (power throttle, correctable-error storm)
    HEALTHY -> WEDGED    (PCIe deadlock: the device vanishes silently)
    DEGRADED -> HEALTHY | WEDGED
    HEALTHY | DEGRADED | WEDGED -> REBOOTING  (a firmware-rollout restart)
    REBOOTING -> HEALTHY

The key production subtlety the paper's section 5.5 deadlock exposes is
the gap between *being* dead and being *known* dead: a WEDGED device
stays in the router's rotation — eating requests that will time out —
until the rollout power-cycles it.  The state machine tracks that
distinction (a WEDGED device is not :attr:`Device.serving`, yet the
census still counts it toward the rotation) plus per-state residency
time for the unavailability accounting.

:meth:`Device.transition` holds the lifecycle rules.  The simulator moves
its pool's devices through :meth:`PoolCensus.transition`, which calls it
and then updates the live census.
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, FrozenSet, List, Tuple


class DeviceState(enum.Enum):
    """Lifecycle states of one accelerator.

    Members hash by identity (they are singletons), so the census and
    residency dicts keyed on them stay in C.
    """

    __hash__ = object.__hash__

    HEALTHY = "healthy"
    DEGRADED = "degraded"
    WEDGED = "wedged"
    REBOOTING = "rebooting"


# Legal transitions; anything else is a simulator bug, not a fault.
_ALLOWED: FrozenSet[Tuple[DeviceState, DeviceState]] = frozenset(
    {
        (DeviceState.HEALTHY, DeviceState.DEGRADED),
        (DeviceState.HEALTHY, DeviceState.WEDGED),
        (DeviceState.HEALTHY, DeviceState.REBOOTING),  # rollout restart
        (DeviceState.DEGRADED, DeviceState.HEALTHY),
        (DeviceState.DEGRADED, DeviceState.WEDGED),
        (DeviceState.DEGRADED, DeviceState.REBOOTING),  # rollout restart
        (DeviceState.WEDGED, DeviceState.REBOOTING),  # rollout power-cycle
        (DeviceState.REBOOTING, DeviceState.HEALTHY),
    }
)

# Relative throughput while DEGRADED (power-cap / correctable-storm).
DEGRADED_SCALE = 0.6
# States in which the device produces zero goodput, in the fixed order
# their residencies are summed.
_DOWN_STATES = (DeviceState.WEDGED, DeviceState.REBOOTING)


class TransitionError(RuntimeError):
    """An illegal lifecycle transition was attempted."""


@dataclasses.dataclass
class Device:
    """One accelerator's health bookkeeping inside the simulator."""

    device_id: int
    # Run state: every device starts healthy, unpatched, at time zero.
    state: DeviceState = dataclasses.field(
        default=DeviceState.HEALTHY, init=False
    )
    # Whether the firmware mitigation (Control-Core data in SRAM) is on.
    patched: bool = dataclasses.field(default=False, init=False)
    state_entered_s: float = dataclasses.field(default=0.0, init=False)
    state_seconds: Dict[DeviceState, float] = dataclasses.field(
        default_factory=lambda: {state: 0.0 for state in DeviceState},
        init=False,
    )

    @property
    def serving(self) -> bool:
        """Whether the device actually completes work."""
        return self.state in (DeviceState.HEALTHY, DeviceState.DEGRADED)

    @property
    def throughput_scale(self) -> float:
        """Fraction of nominal throughput delivered in the current state."""
        if self.state == DeviceState.HEALTHY:
            return 1.0
        if self.state == DeviceState.DEGRADED:
            return DEGRADED_SCALE
        return 0.0

    @property
    def susceptible_to_deadlock(self) -> bool:
        """Unpatched and live enough for the wedge to land."""
        return not self.patched and self.serving

    def transition(self, new_state: DeviceState, now_s: float) -> None:
        """Move to ``new_state``, validating legality and accruing the
        residency time of the state being left."""
        if (self.state, new_state) not in _ALLOWED:
            raise TransitionError(
                f"device {self.device_id}: illegal transition "
                f"{self.state.value} -> {new_state.value}"
            )
        self._accrue(now_s)
        self.state = new_state
        self.state_entered_s = now_s

    def _accrue(self, now_s: float) -> None:
        elapsed = max(0.0, now_s - self.state_entered_s)
        self.state_seconds[self.state] += elapsed

    def finalize(self, end_s: float) -> None:
        """Close out residency accounting at the end of the window."""
        self._accrue(end_s)
        self.state_entered_s = end_s

    def downtime_seconds(self) -> float:
        """Accrued seconds in states that serve nothing."""
        total = 0.0
        for state in _DOWN_STATES:
            total += self.state_seconds[state]
        return total


@dataclasses.dataclass
class PoolCensus:
    """The pool's lifecycle census, kept live across transitions.

    ``counts`` holds the number of devices per state. ``scales[i]`` is
    device ``i``'s rotation throughput scale: 1.0 when healthy,
    ``DEGRADED_SCALE`` when degraded, 0.0 otherwise. Device ids must be
    ``0 .. n-1``.
    """

    counts: Dict[DeviceState, int]
    scales: List[float]

    @classmethod
    def of(cls, devices: Dict[int, Device]) -> "PoolCensus":
        """Take a census of ``devices`` from scratch."""
        counts = {state: 0 for state in DeviceState}
        scales = [0.0] * len(devices)
        for device in devices.values():
            counts[device.state] += 1
            scales[device.device_id] = device.throughput_scale
        return cls(counts, scales)

    def transition(self, device: Device, state: DeviceState, now_s: float) -> None:
        """Move ``device`` to ``state`` with :meth:`Device.transition` and
        update the census to match, so the simulator makes one call per
        lifecycle change."""
        old_state = device.state
        device.transition(state, now_s)
        counts = self.counts
        counts[old_state] -= 1
        counts[state] += 1
        self.scales[device.device_id] = device.throughput_scale

    @property
    def live_scale(self) -> float:
        """Summed throughput scale of the devices in rotation.

        A plain left-to-right loop in device-id order: adding the 0.0 of
        a device out of rotation is exact, so this is bit-identical to
        summing ``throughput_scale`` over the in-rotation devices of a
        full scan. Builtin ``sum`` (compensated from Python 3.12),
        ``math.fsum`` and pairwise ``np.sum`` all round differently.
        """
        total = 0.0
        for scale in self.scales:
            total += scale
        return total


def downed_device_minutes(devices: Dict[int, "Device"], end_s: float) -> float:
    """Total device-minutes spent serving nothing across the pool, each
    device finalized at ``end_s`` — the paper's unavailability currency:
    how much provisioned capacity the incident burned.
    """
    total = 0.0
    for device in devices.values():
        device.finalize(end_s)
        total += device.downtime_seconds()
    return total / 60.0
