"""Time-domain power, thermal, and DVFS management (paper sections 5.2-5.3).

The reliability tier models the paper's power stories statically: the
overclocking study compares fixed frequencies, the provisioning study
draws telemetry from closed-form distributions.  This package closes the
loop in the time domain —

* :mod:`repro.power.activity` — per-op power traces from executed
  graphs, and the leakage + dynamic operating-point model every study
  steps;
* :mod:`repro.power.thermal` — the lumped RC network (die → spreader →
  heatsink → ambient) whose junction temperature feeds leakage and the
  governor;
* :mod:`repro.power.dvfs` — the ladder governor; re-derives the 5-20%
  overclocking gain *with* thermal feedback;
* :mod:`repro.power.capping` — per-chip water-filling versus
  server-level capping (the load-spike-smoothing claim);
* :mod:`repro.power.provisioning` — the ~40% rack-budget reduction,
  replayed from simulated watt-level telemetry;
* :mod:`repro.power.cluster_link` — rack budgets pushed up into
  capacity planning.
"""

from repro.power.activity import (
    activity_trace,
    chip_power_w,
    dynamic_power_w,
    utilization_profile,
)
from repro.power.capping import capping_study, water_fill
from repro.power.cluster_link import (
    power_limited_capacity_sweep,
    service_model_at_budget,
)
from repro.power.dvfs import (
    DEFAULT_LADDER_HZ,
    DvfsGovernor,
    ThroughputCurve,
    calibrate_throughput,
    overclock_with_thermal_feedback,
)
from repro.power.provisioning import time_domain_provisioning
from repro.power.thermal import (
    THROTTLE_LIMIT_C,
    RcStage,
    ThermalNetwork,
    mtia2i_thermal,
)

__all__ = [
    "DEFAULT_LADDER_HZ",
    "THROTTLE_LIMIT_C",
    "DvfsGovernor",
    "RcStage",
    "ThermalNetwork",
    "ThroughputCurve",
    "activity_trace",
    "calibrate_throughput",
    "capping_study",
    "chip_power_w",
    "dynamic_power_w",
    "mtia2i_thermal",
    "overclock_with_thermal_feedback",
    "power_limited_capacity_sweep",
    "service_model_at_budget",
    "time_domain_provisioning",
    "utilization_profile",
    "water_fill",
]
