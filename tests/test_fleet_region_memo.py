"""The fleet's region-run memo: each distinct region run is simulated once.

``run_fleet`` looks up an unobserved undefended region run in a memo
keyed on every input of the run (base stream, ``ClusterConfig``,
``ServiceModel``, throttle and injection schedule).  In the default
capacity study the undefended arm's two regions without a drill repeat
the baseline arm's runs, so 10 of its 45 cluster runs are reused.  A
study must report the same with the memo cold, warm or split across
worker processes, and an observed study must simulate every run so
that its metrics are recorded.
"""

from __future__ import annotations

import json

import pytest

from repro.cluster.simulator import ClusterSimulator
from repro.fleet_global import run_capacity_study
from repro.fleet_global import simulator as fleet_simulator
from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def cluster_runs(monkeypatch):
    """The number of cluster runs simulated since the memo was cleared."""
    calls = []
    run = ClusterSimulator.run

    def counting(self):
        calls.append(self.config)
        return run(self)

    monkeypatch.setattr(ClusterSimulator, "run", counting)
    fleet_simulator._plain_region_run.cache_clear()
    return calls


def test_default_study_simulates_35_of_45_region_runs(cluster_runs):
    study = run_capacity_study()
    assert len(study.points) == 5
    assert len(cluster_runs) == 35
    # Every baseline region report is the undefended arm's report for
    # the same region unless that region is drilled.
    drilled = {
        outcome.name for point in study.points
        for outcome in point.undefended.regions
        if outcome.report.faults
    }
    assert len(drilled) == 1
    for point in study.points:
        for base, undefended in zip(point.baseline.regions,
                                    point.undefended.regions):
            assert (base.report is undefended.report) == (
                base.name not in drilled
            )


def test_cold_warm_and_parallel_studies_are_equal(cluster_runs):
    cold = run_capacity_study(sizes=(4, 5))
    assert len(cluster_runs) == 14
    warm = run_capacity_study(sizes=(4, 5))
    assert len(cluster_runs) == 14 + 6  # only the defended arm reruns
    fleet_simulator._plain_region_run.cache_clear()
    parallel = run_capacity_study(sizes=(4, 5), processes=2)
    assert cold == warm == parallel


def test_observed_study_simulates_every_run(cluster_runs):
    # Warm the memo with an unobserved study: the observed one must not
    # take a report from it, since a reused run records no metrics.
    run_capacity_study()
    cluster_runs.clear()
    registry = MetricsRegistry()
    observed = run_capacity_study(registry=registry)
    assert len(cluster_runs) == 45
    fleet_simulator._plain_region_run.cache_clear()
    fresh = MetricsRegistry()
    assert run_capacity_study(registry=fresh) == observed
    snapshot = json.dumps(registry.snapshot(), sort_keys=True)
    assert snapshot == json.dumps(fresh.snapshot(), sort_keys=True)
    assert registry.snapshot()["counters"]["cluster.admitted"] > 0
