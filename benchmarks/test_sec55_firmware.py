"""Section 5.5: real-time firmware updates mitigating silicon issues.

Paper: a subtle Control-Core/NoC/PCIe-ordering deadlock hit ~1% of
servers under saturating stress tests and ~0.1% of production servers on
susceptible models; a firmware update relocating the Control Core's
memory from host to device SRAM eliminated it.  Rollout machinery:
3 builds/day, 23 fleet-wide releases in 2024, 18-day typical rollout,
~3 h emergency, ~1 h with overridden policies.
"""

from conftest import once

from repro.serving import PoolState, inject_device_faults
from repro.reliability import (
    BUILDS_PER_DAY,
    PAPER_RELEASES_PER_YEAR,
    SystemState,
    apply_firmware_mitigation,
    deadlock_incidence,
    emergency_rollout,
    has_deadlock,
    override_rollout,
    staged_detection,
    typical_rollout,
)
from repro.reliability.firmware import (
    EMERGENCY_ROLLOUT_HOURS,
    OVERRIDE_ROLLOUT_HOURS,
    TYPICAL_ROLLOUT_DAYS,
)


def _measure():
    stress = SystemState(
        pe_utilization=1.0, pcie_queue_depth=8, control_core_reads_host_memory=True
    )
    stress_deadlocks = has_deadlock(stress)
    mitigated_deadlocks = has_deadlock(apply_firmware_mitigation(stress))
    # Stress testing drives every server to 100% PE utilization; only the
    # PCIe queue-depth condition gates the hit rate (~1%).
    stress_rate = deadlock_incidence(
        num_servers=100_000, high_load_fraction=1.0,
        deep_queue_probability=0.01, seed=2,
    )
    production_rate = deadlock_incidence(
        num_servers=100_000, high_load_fraction=0.08,
        deep_queue_probability=0.013, seed=2,
    )
    detection = staged_detection(issue_incidence=production_rate, seed=4)
    # Serving-tier impact of the production incidence on a model's pool.
    pool = PoolState(devices=400, device_throughput=100_000, offered_load=28e6)
    impact = inject_device_faults(pool, production_rate)
    return (
        stress_deadlocks,
        mitigated_deadlocks,
        stress_rate,
        production_rate,
        detection,
        impact,
    )


def test_sec55_firmware(benchmark, record):
    stress, mitigated, stress_rate, production_rate, detection, impact = once(
        benchmark, _measure
    )
    lines = [
        f"deadlock under saturating stress: {stress}; after firmware "
        f"mitigation (Control-Core memory -> SRAM): {mitigated}",
        f"stress-test incidence:   {stress_rate:.2%} of servers (paper: ~1%)",
        f"production incidence:    {production_rate:.2%} of servers (paper: ~0.1%)",
        f"staged rollout detects it at stage {detection.detected_at_stage!r} "
        f"with {detection.servers_exposed:,} servers exposed "
        f"(of {detection.fleet_servers:,})",
        f"rollout wall times: typical {typical_rollout().total_days:.0f} days "
        f"(paper: {TYPICAL_ROLLOUT_DAYS}), "
        f"emergency {emergency_rollout().total_hours:.1f} h "
        f"(paper: {EMERGENCY_ROLLOUT_HOURS}), "
        f"override {override_rollout().total_hours:.1f} h "
        f"(paper: {OVERRIDE_ROLLOUT_HOURS})",
        f"build cadence: {BUILDS_PER_DAY}/day; "
        f"{PAPER_RELEASES_PER_YEAR} fleet releases in 2024 "
        "(vs 1-2/year for third-party GPUs)",
        f"serving impact of the production incidence on a 400-device pool: "
        f"{impact.devices_lost} replica(s) wedged, queueing delay "
        f"x{impact.latency_amplification:.3f} (SLO at risk: {impact.slo_at_risk} "
        "— tolerable, but compounding until the firmware fix lands)",
    ]
    assert stress and not mitigated
    assert 0.005 <= stress_rate <= 0.02
    assert 0.0005 <= production_rate <= 0.002
    assert detection.detected_at_stage is not None
    assert 14 <= typical_rollout().total_days <= 22
    assert emergency_rollout().total_hours <= 4
    assert override_rollout().total_hours <= 1.2
    assert impact.devices_lost >= 1
    assert not impact.slo_at_risk  # 0.1% alone does not break serving
    record("sec55_firmware", "\n".join(lines))
