"""Productionization studies: memory errors, ECC, fleet telemetry,
overclocking, firmware, and power provisioning (paper section 5)."""

from repro.reliability.ecc import (
    ECC_THROUGHPUT_PENALTY,
    EccDecisionInputs,
    decide_ecc,
    decode_word,
    encode_word,
    hashing_integrity_overhead,
)
from repro.reliability.errors import (
    ErrorRegion,
    NumericDlrm,
    Outcome,
    inject_and_classify,
    sensitivity_study,
)
from repro.reliability.firmware import (
    BUILDS_PER_DAY,
    Component,
    PAPER_RELEASES_PER_YEAR,
    SystemState,
    apply_firmware_mitigation,
    deadlock_incidence,
    emergency_rollout,
    has_deadlock,
    override_rollout,
    staged_detection,
    typical_rollout,
    wait_for_edges,
)
from repro.reliability.fleet import (
    CARDS_PER_SERVER,
    card_error_probability_for_server_fraction,
    sample_fleet_errors,
)
from repro.reliability.overclock import (
    DESIGN_FREQUENCY_HZ,
    PAPER_STUDY_CHIPS,
    STUDY_FREQUENCIES_HZ,
    overclock_throughput_gain,
    run_overclocking_study,
)
from repro.reliability.power import (
    PAPER_REDUCTION_FRACTION,
    stress_test_budget,
)

__all__ = [
    "BUILDS_PER_DAY",
    "CARDS_PER_SERVER",
    "Component",
    "DESIGN_FREQUENCY_HZ",
    "ECC_THROUGHPUT_PENALTY",
    "EccDecisionInputs",
    "ErrorRegion",
    "NumericDlrm",
    "Outcome",
    "PAPER_REDUCTION_FRACTION",
    "PAPER_RELEASES_PER_YEAR",
    "PAPER_STUDY_CHIPS",
    "STUDY_FREQUENCIES_HZ",
    "SystemState",
    "apply_firmware_mitigation",
    "card_error_probability_for_server_fraction",
    "deadlock_incidence",
    "decide_ecc",
    "decode_word",
    "emergency_rollout",
    "encode_word",
    "has_deadlock",
    "hashing_integrity_overhead",
    "inject_and_classify",
    "overclock_throughput_gain",
    "override_rollout",
    "run_overclocking_study",
    "sample_fleet_errors",
    "sensitivity_study",
    "staged_detection",
    "stress_test_budget",
    "typical_rollout",
    "wait_for_edges",
]
