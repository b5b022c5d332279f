"""Network-on-chip model: shaping, fragmentation, and fabric contention."""

from repro.noc.fabric import Flow, NocFabric, mtia_fabric
from repro.noc.fragmentation import fragment
from repro.noc.shaping import LeakyBucketShaper, Packet, smoothness

__all__ = [
    "Flow",
    "LeakyBucketShaper",
    "NocFabric",
    "Packet",
    "fragment",
    "mtia_fabric",
    "smoothness",
]
