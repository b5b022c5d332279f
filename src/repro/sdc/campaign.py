"""Seeded SDC injection campaigns: coverage vs. overhead vs. NE damage.

One campaign pre-samples a fault list (:func:`repro.sdc.sites.plan_injections`),
then evaluates every protection profile against the *identical* list:
each injection is applied to a fresh copy of the serving artifacts, the
corrupted pipeline serves a fixed traffic slice, and the profile's
enabled detectors run their real computations over the corrupted bytes.
A corruption that no enabled detector flags is *silent*; its quality
damage is the normalized-entropy delta of the corrupted predictions
against the clean quantized path on the same requests — the §5.6 metric
applied to the §5.1/§5.2 threat.

Everything is a pure function of the campaign seed: the fault list, the
traffic slice, and each detector's tie-breaking draws are all sampled
up front from one generator, so repeated runs are bit-identical and
profile-to-profile coverage deltas are attributable to the detectors
alone (the PR-1 resilience discipline).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Optional, Tuple

from repro.fleet.abtest import normalized_entropy
from repro.obs.metrics import MetricsRegistry, active
from repro.reliability.ecc import ECC_THROUGHPUT_PENALTY, hashing_integrity_overhead
from repro.sdc.detectors import (
    ProtectionProfile,
    abft_overhead_fraction,
    read_word_through_ecc,
    read_word_unprotected,
    standard_profiles,
)
from repro.sdc.pipeline import CtrServingPipeline, ServeResult
from repro.sdc.screening import FleetScreeningModel
from repro.sdc.sites import CorruptionSite, Injection, plan_injections, sites_in

import numpy as np

# Representative production FC-layer GEMM the ABFT overhead is quoted
# at.  The campaign's own layer is a GEMV (n = 1), where checksum math
# is not amortized; the paper-scale top FC layers are where ABFT's cost
# actually lands.
ABFT_GEMM_SHAPE = (256, 1024, 1024)
# Dequant-time feasibility checks are a handful of compares per output
# element against the GEMM's K MACs per element.
RANGE_GUARD_OVERHEAD = 0.002

# The two datapath sites whose faults recur on a marginal chip — the
# population the periodic fleet screen can catch.
_RECURRING_SITES = (
    CorruptionSite.QUANT_ACTIVATION,
    CorruptionSite.GEMM_ACCUMULATOR,
)


@dataclasses.dataclass(frozen=True)
class CampaignConfig:
    """Knobs for one injection campaign."""

    trials: int = 400
    requests: int = 8000
    seed: int = 0
    # |NE delta| above this counts as quality-impacting (production A/B
    # gates detect shifts of this order at scale).
    ne_threshold: float = 1e-3
    # Latency credited to inline detectors (ECC read, ABFT check, range
    # guard): one serving batch.
    inline_latency_s: float = 0.02
    # Background scrubber cadence for the embedding row hashes.
    hash_scan_interval_s: float = 3600.0
    screening: FleetScreeningModel = FleetScreeningModel()
    site_weights: Optional[Dict[CorruptionSite, float]] = None

    def __post_init__(self) -> None:
        if self.trials <= 0 or self.requests <= 0:
            raise ValueError("trials and requests must be positive")
        if self.ne_threshold <= 0 or self.hash_scan_interval_s <= 0:
            raise ValueError("thresholds and cadences must be positive")


@dataclasses.dataclass(frozen=True)
class TrialOutcome:
    """One injection under one protection profile."""

    injection: Injection
    detected: bool
    detector: str  # first detector to flag it, "" when silent
    latency_s: float  # time-to-detection; 0.0 when undetected
    ne_delta: float  # corrupted NE minus clean NE on the same slice
    ne_impacting: bool


@dataclasses.dataclass(frozen=True)
class ProfileSummary:
    """One protection profile's line in the campaign table."""

    profile: ProtectionProfile
    trials: int
    detected: int
    detector_counts: Dict[str, int]
    undetected: int
    undetected_ne_impacting: int
    mean_detection_latency_s: float
    overhead_fraction: float
    outcomes: Tuple[TrialOutcome, ...]

    @property
    def coverage(self) -> float:
        return self.detected / self.trials


@dataclasses.dataclass(frozen=True)
class CampaignResult:
    """The full campaign: shared fault list, per-profile outcomes."""

    config: CampaignConfig
    clean_ne: float
    site_counts: Dict[CorruptionSite, int]
    profiles: Tuple[ProfileSummary, ...]

    def summary_for(self, name: str) -> ProfileSummary:
        for summary in self.profiles:
            if summary.profile.name == name:
                return summary
        raise KeyError(f"no profile named {name!r}")

    def undetected_impacting_ratio(
        self, baseline: str = "none", protected: str = "ecc+abft"
    ) -> float:
        """How many times fewer undetected NE-impacting corruptions the
        protected profile leaves versus the baseline (the acceptance
        criterion's >= 10x)."""
        base = self.summary_for(baseline).undetected_ne_impacting
        prot = self.summary_for(protected).undetected_ne_impacting
        if prot == 0:
            return float("inf")
        return base / prot

    def table(self) -> str:
        """The coverage / overhead / NE-damage table, one profile per row."""
        header = (
            f"{'profile':<10} {'coverage':>9} {'undetected':>11} "
            f"{'undet. NE-impact':>17} {'mean latency (s)':>17} {'overhead':>9}"
        )
        lines = [header, "-" * len(header)]
        for s in self.profiles:
            lines.append(
                f"{s.profile.name:<10} {s.coverage:>8.1%} {s.undetected:>11d} "
                f"{s.undetected_ne_impacting:>17d} "
                f"{s.mean_detection_latency_s:>17.3f} {s.overhead_fraction:>8.2%}"
            )
        return "\n".join(lines)


def profile_overhead_fraction(
    profile: ProtectionProfile,
    config: CampaignConfig,
    table_bytes: int,
    table_reads_per_s: float = 1.0 / 3600.0,
) -> float:
    """Steady-state throughput cost of a profile's enabled detectors.

    ECC charges the midpoint of the paper's quoted 10-15%% band; ABFT
    its checksum arithmetic at a representative FC shape; row hashing
    the scrubber's hash bandwidth via the paper's prototyped cost model;
    screening its periodic drain window.
    """
    overhead = 0.0
    if profile.ecc:
        overhead += sum(ECC_THROUGHPUT_PENALTY) / 2.0
    if profile.abft:
        overhead += abft_overhead_fraction(*ABFT_GEMM_SHAPE)
    if profile.range_guard:
        overhead += RANGE_GUARD_OVERHEAD
    if profile.row_hash:
        overhead += hashing_integrity_overhead(table_bytes, table_reads_per_s)
    if profile.fleet_screen:
        overhead += config.screening.overhead_fraction()
    return overhead


def run_campaign(
    config: Optional[CampaignConfig] = None,
    profiles: Optional[Tuple[ProtectionProfile, ...]] = None,
    pipeline: Optional[CtrServingPipeline] = None,
    registry: Optional[MetricsRegistry] = None,
) -> CampaignResult:
    """Run one seeded campaign over every profile.

    The serve pass for a given landed corruption is computed once and
    shared across profiles (profiles differ only in which verdicts they
    *consult*), so the none/ecc/ecc+abft/full rows are guaranteed to
    face byte-identical corruptions.

    An attached registry records per-detector catch-latency histograms
    and per-profile detection counters (``sdc.*``); the campaign result
    is identical either way.
    """
    config = config or CampaignConfig()
    obs = active(registry)
    pipeline = pipeline or CtrServingPipeline(seed=config.seed)
    profiles = profiles or standard_profiles()

    rng = np.random.default_rng(config.seed)
    injections = plan_injections(
        config.trials,
        rng,
        weight_values_size=pipeline.qweights.values.size,
        table_shape=pipeline.table.shape,
        num_features=pipeline.model.num_features,
        site_weights=config.site_weights,
    )
    requests = pipeline.sample(config.requests, seed=config.seed + 1)
    clean = pipeline.serve(requests, pipeline.clean_state())
    clean_ne = normalized_entropy(clean.predictions, requests.labels)

    # (trial index, memory-path variant) -> (serve result, NE delta).
    serve_cache: Dict[Tuple[int, str], Tuple[ServeResult, float]] = {}

    def served(index: int, injection: Injection, variant: str,
               landed_word: Optional[int]) -> Tuple[ServeResult, float]:
        key = (index, variant)
        if key not in serve_cache:
            state = pipeline.corrupted_state(injection, landed_word=landed_word)
            result = pipeline.serve(requests, state)
            delta = normalized_entropy(result.predictions, requests.labels) - clean_ne
            serve_cache[key] = (result, delta)
        return serve_cache[key]

    def evaluate(index: int, injection: Injection,
                 profile: ProtectionProfile) -> TrialOutcome:
        if injection.site is CorruptionSite.MEMORY_WORD:
            word = pipeline.stored_word(injection)
            if profile.ecc:
                read = read_word_through_ecc(word, injection.flip_bits)
                if read.outcome == "corrected":
                    # Fixed inline at read time; nothing ever lands.
                    return TrialOutcome(injection, True, "ecc", 0.0, 0.0, False)
                if read.outcome == "detected":
                    # Double-bit: detected-uncorrectable, surfaced loudly
                    # (the resilience simulator's ECC-UE fault family).
                    return TrialOutcome(
                        injection, True, "ecc", config.inline_latency_s, 0.0, False
                    )
                result, ne_delta = served(index, injection, "ecc", read.data)
            else:
                landed = read_word_unprotected(word, injection.flip_bits).data
                result, ne_delta = served(index, injection, "raw", landed)
        else:
            result, ne_delta = served(index, injection, "raw", None)

        ne_impacting = abs(ne_delta) > config.ne_threshold
        # First enabled detector to flag it, in datapath order.
        if result.overflowed:
            return TrialOutcome(
                injection, True, "overflow", config.inline_latency_s,
                ne_delta, ne_impacting,
            )
        if profile.abft and not result.abft_ok:
            return TrialOutcome(
                injection, True, "abft", config.inline_latency_s,
                ne_delta, ne_impacting,
            )
        if profile.range_guard and not result.range_guard_ok:
            return TrialOutcome(
                injection, True, "range_guard", config.inline_latency_s,
                ne_delta, ne_impacting,
            )
        if profile.row_hash and not result.row_hash_ok:
            # Caught by the background scrubber at its next pass.
            return TrialOutcome(
                injection, True, "row_hash",
                injection.latency_draw * config.hash_scan_interval_s,
                ne_delta, ne_impacting,
            )
        if (
            profile.fleet_screen
            and injection.site in _RECURRING_SITES
            and injection.screen_draw < config.screening.sensitivity
        ):
            # A recurring datapath fault marks a marginal chip; the
            # periodic screen catches it at its next pass on this device.
            return TrialOutcome(
                injection, True, "fleet_screen",
                injection.latency_draw * config.screening.interval_s,
                ne_delta, ne_impacting,
            )
        return TrialOutcome(injection, False, "", 0.0, ne_delta, ne_impacting)

    table_bytes = pipeline.table.nbytes
    summaries = []
    for profile in profiles:
        outcomes = tuple(
            evaluate(index, injection, profile)
            for index, injection in enumerate(injections)
        )
        detected = [o for o in outcomes if o.detected]
        detector_counts: Dict[str, int] = {}
        for outcome in detected:
            detector_counts[outcome.detector] = (
                detector_counts.get(outcome.detector, 0) + 1
            )
        if obs.enabled:
            name = profile.name
            obs.counter(f"sdc.{name}.detected").inc(len(detected))
            obs.counter(f"sdc.{name}.undetected").inc(
                len(outcomes) - len(detected)
            )
            for outcome in detected:
                obs.histogram(
                    f"sdc.catch_latency_s.{outcome.detector}"
                ).observe(outcome.latency_s)
        summaries.append(
            ProfileSummary(
                profile=profile,
                trials=len(outcomes),
                detected=len(detected),
                detector_counts=detector_counts,
                undetected=len(outcomes) - len(detected),
                undetected_ne_impacting=sum(
                    1 for o in outcomes if not o.detected and o.ne_impacting
                ),
                mean_detection_latency_s=(
                    sum(o.latency_s for o in detected) / len(detected)
                    if detected
                    else 0.0
                ),
                overhead_fraction=profile_overhead_fraction(
                    profile, config, table_bytes
                ),
                outcomes=outcomes,
            )
        )

    return CampaignResult(
        config=config,
        clean_ne=clean_ne,
        site_counts=sites_in(injections),
        profiles=tuple(summaries),
    )
