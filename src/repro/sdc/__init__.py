"""Silent-data-corruption injection, detection, and mitigation across
the numeric stack (paper sections 5.1, 5.2, and 5.6).

The paper's reliability sections treat corruption piecemeal: §5.1
measures memory errors and justifies inline ECC, §5.2 ships an
overclock whose margin tail is the silent-corruption population, and
§5.6 gates model launches on normalized entropy.  This package closes
the loop between them: bit-level faults are injected into the *real*
numeric path (the SEC-DED codec, the INT8 quantized matmul, the FP16
embedding table), real detectors (ECC, ABFT checksums, range guards,
row hashing, periodic fleet screening) attempt to catch them, and the
survivors are scored by the NE damage they do to the §5.6 A/B harness's
synthetic CTR model.  The measured undetected rates and detection
latencies then replace the PR-1 resilience simulator's assumed SDC
constants (:mod:`repro.sdc.resilience_link`).
"""

from repro.sdc.campaign import CampaignConfig, run_campaign
from repro.sdc.detectors import (
    ProtectionProfile,
    abft_activation_checksum,
    abft_col_check,
    abft_overhead_fraction,
    abft_row_check,
    abft_weight_checksum,
    accumulator_bound,
    hash_rows,
    read_word_through_ecc,
    read_word_unprotected,
    standard_profiles,
    triple_flip_escape_rate,
    verify_row_hashes,
)
from repro.sdc.pipeline import CtrServingPipeline
from repro.sdc.resilience_link import expected_blast_window_s, sdc_fault_rates
from repro.sdc.screening import FleetScreeningModel
from repro.sdc.sites import (
    CorruptionSite,
    DEFAULT_SITE_WEIGHTS,
    plan_injections,
    sites_in,
)

__all__ = [
    "CampaignConfig",
    "CorruptionSite",
    "CtrServingPipeline",
    "DEFAULT_SITE_WEIGHTS",
    "FleetScreeningModel",
    "ProtectionProfile",
    "abft_activation_checksum",
    "abft_col_check",
    "abft_overhead_fraction",
    "abft_row_check",
    "abft_weight_checksum",
    "accumulator_bound",
    "expected_blast_window_s",
    "hash_rows",
    "plan_injections",
    "read_word_through_ecc",
    "read_word_unprotected",
    "run_campaign",
    "sdc_fault_rates",
    "sites_in",
    "standard_profiles",
    "triple_flip_escape_rate",
    "verify_row_hashes",
]
