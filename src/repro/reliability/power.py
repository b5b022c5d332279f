"""The initial rack power budget (paper section 5.3).

The paper sets the initial rack budget from small-scale stress tests of
*unoptimized* models; six months into production it re-derives the
budget from two P90 measurements and cuts it nearly 40%.  This module
holds the starting point; :mod:`repro.power.provisioning` replays the
production window and re-derives the budget.
"""

from __future__ import annotations

from repro.arch.server import ServerSpec

PAPER_REDUCTION_FRACTION = 0.40


def stress_test_budget(server: ServerSpec) -> float:
    """The initial (pre-production) rack budget per server.

    Stress tests run out-of-the-box models that burn 1.25x the power of
    optimized ones, and planners stack a 1.15x safety margin on top —
    both factors the paper cites for the over-provisioning.
    """
    accelerators = server.accelerators_per_server * server.chip.tdp_watts
    return (server.platform_power_watts + accelerators * 1.25) * 1.15
