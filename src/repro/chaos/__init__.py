"""Cross-tier fault injection and graceful degradation (section 5).

The chaos tier turns the paper's productionization incidents into
reproducible experiments against the cluster simulator: correlated
fault domains (racks, power domains, ToR switches) sourced from the
power/thermal/firmware models, campaigns that arm the standard overload
defenses against metastable retry storms (deadlines, retry budgets,
backoff and circuit breakers, defined with every other recovery
mechanism in :mod:`repro.resilience.policies`), a measured brownout
ladder for degrading quality before availability, and a scored scenario
campaign with a ``python -m repro chaos`` entry point.

Everything plugs into :mod:`repro.cluster` through hooks that are off
by default — with the chaos tier unused, the cluster simulator's event
logs are byte-identical to the pre-chaos tree.
"""

from repro.chaos.brownout import (
    BrownoutConfig,
    BrownoutController,
    BrownoutRung,
    default_ladder,
    measure_ladder_quality,
    quality_cost_of_run,
)
from repro.chaos.campaign import (
    CampaignConfig,
    run_campaign,
    run_scenario,
    smoke_config,
)
from repro.chaos.domains import (
    FaultDomainTopology,
    firmware_rollout,
    host_failure,
    merge_schedules,
    network_partition,
    power_domain_trip,
    rack_failure,
    thermal_emergency,
    thermal_slow_factor,
)
from repro.chaos.scenarios import scenario_by_name, standard_catalog

__all__ = [
    "BrownoutConfig",
    "BrownoutController",
    "BrownoutRung",
    "CampaignConfig",
    "FaultDomainTopology",
    "default_ladder",
    "firmware_rollout",
    "host_failure",
    "measure_ladder_quality",
    "merge_schedules",
    "network_partition",
    "power_domain_trip",
    "quality_cost_of_run",
    "rack_failure",
    "run_campaign",
    "run_scenario",
    "scenario_by_name",
    "smoke_config",
    "standard_catalog",
    "thermal_emergency",
    "thermal_slow_factor",
]
