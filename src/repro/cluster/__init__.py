"""The multi-host serving tier: routing, autoscaling, capacity planning.

Everything below this package models one device or one host; this is
where the reproduction becomes a *fleet*: a traffic front door routing
requests across replica sets (round-robin, JSQ, power-of-two-choices,
shard-locality-aware), admission control and load shedding under
overload, a reactive + predictive autoscaler placing replicas through
the NUMA-aware allocator, replica faults at the section 5 reliability
rates, and the capacity-planning sweep production provisioning runs —
hosts needed versus offered QPS at a fixed P99 SLO.

The admission caps, client retries, drain and overload defenses a run
takes are the shared recovery vocabulary of
:mod:`repro.resilience.policies`, imported from there.
"""

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.capacity import (
    autoscaled_day,
    capacity_sweep,
    locality_comparison,
    policy_comparison,
)
from repro.cluster.locality import ShardLocalityMap
from repro.cluster.provisioning import HostPool
from repro.cluster.routing import POLICY_NAMES, make_policy
from repro.cluster.service import ServiceModel, default_service_model
from repro.cluster.simulator import (
    INJECTION_KINDS,
    ClusterConfig,
    ClusterReport,
    ClusterSimulator,
    Injection,
    fault_rate_from_reliability,
    injection_sort_key,
    run_cluster,
)

__all__ = [
    "Autoscaler",
    "AutoscalerConfig",
    "ClusterConfig",
    "ClusterReport",
    "ClusterSimulator",
    "HostPool",
    "INJECTION_KINDS",
    "Injection",
    "injection_sort_key",
    "POLICY_NAMES",
    "ServiceModel",
    "ShardLocalityMap",
    "autoscaled_day",
    "capacity_sweep",
    "default_service_model",
    "fault_rate_from_reliability",
    "locality_comparison",
    "make_policy",
    "policy_comparison",
    "run_cluster",
]
