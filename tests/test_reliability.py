"""Tests for the productionization studies (paper section 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import mtia2i_server
from repro.reliability import (
    CARDS_PER_SERVER,
    Component,
    EccDecisionInputs,
    ErrorRegion,
    MarginModel,
    NumericDlrm,
    Outcome,
    STUDY_FREQUENCIES_HZ,
    SystemState,
    apply_firmware_mitigation,
    card_error_probability_for_server_fraction,
    deadlock_incidence,
    decide_ecc,
    decode_word,
    emergency_rollout,
    encode_word,
    has_deadlock,
    hashing_integrity_overhead,
    inject_and_classify,
    overclock_throughput_gain,
    override_rollout,
    run_overclocking_study,
    sample_fleet_errors,
    sensitivity_study,
    staged_detection,
    stress_test_budget,
    typical_rollout,
    wait_for_edges,
)
from repro.reliability.firmware import (
    EMERGENCY_ROLLOUT_HOURS,
    OVERRIDE_ROLLOUT_HOURS,
    TYPICAL_ROLLOUT_DAYS,
)


class TestSecded:
    def test_roundtrip_no_error(self):
        for word in (0, 1, 0xDEADBEEF12345678, (1 << 64) - 1):
            result = decode_word(encode_word(word))
            assert result.data == word
            assert not result.corrected
            assert not result.double_error_detected

    def test_every_single_bit_error_corrected(self):
        word = 0xA5A5_5A5A_0F0F_F0F0
        code = encode_word(word)
        for bit in range(72):
            result = decode_word(code ^ (1 << bit))
            assert result.data == word, f"bit {bit} not corrected"
            assert result.corrected

    def test_double_errors_detected(self):
        word = 0x0123456789ABCDEF
        code = encode_word(word)
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b = rng.choice(72, size=2, replace=False)
            result = decode_word(code ^ (1 << int(a)) ^ (1 << int(b)))
            assert result.double_error_detected

    def test_range_validation(self):
        with pytest.raises(ValueError):
            encode_word(1 << 64)
        with pytest.raises(ValueError):
            decode_word(1 << 72)

    def test_adjacent_double_errors_detected_exhaustively(self):
        """Every adjacent bit pair — the DRAM-burst failure shape — must be
        flagged, never silently mis-corrected."""
        word = 0xFFFF_0000_AAAA_5555
        code = encode_word(word)
        for bit in range(71):
            result = decode_word(code ^ (1 << bit) ^ (1 << (bit + 1)))
            assert result.double_error_detected, f"bits {bit},{bit + 1} missed"
            assert not result.corrected

    def test_double_error_involving_overall_parity_bit(self):
        """A data/parity flip paired with the overall parity bit leaves
        overall parity even — the decoder must still catch it via the
        syndrome, not 'correct' the wrong bit."""
        word = 0x0123456789ABCDEF
        code = encode_word(word)
        overall = 71  # the SECDED overall-parity position
        for bit in range(71):
            result = decode_word(code ^ (1 << bit) ^ (1 << overall))
            assert result.double_error_detected, f"bits {bit},{overall} missed"
            assert not result.corrected

    def test_every_single_bit_error_corrected_word_corpus(self):
        """Exhaustive single-flip property over a corpus of edge-case
        words: all 72 positions correct back to the stored word."""
        for word in (0, (1 << 64) - 1, 0xDEADBEEF12345678, 0x8000_0000_0000_0001):
            code = encode_word(word)
            for bit in range(72):
                result = decode_word(code ^ (1 << bit))
                assert result.data == word, f"word {word:#x} bit {bit}"
                assert result.corrected
                assert not result.double_error_detected

    def test_every_double_error_detected_exhaustively(self):
        """All C(72, 2) = 2556 double flips are flagged
        detected-uncorrectable — never miscorrected, never clean."""
        word = 0x0123456789ABCDEF
        code = encode_word(word)
        for a in range(72):
            for b in range(a + 1, 72):
                result = decode_word(code ^ (1 << a) ^ (1 << b))
                assert result.double_error_detected, f"bits {a},{b} missed"
                assert not result.corrected

    def test_double_error_never_reports_clean(self):
        """No double flip may decode as 'no error': that would be the
        silent corruption SECDED exists to prevent."""
        word = 0
        code = encode_word(word)
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b = rng.choice(72, size=2, replace=False)
            result = decode_word(code ^ (1 << int(a)) ^ (1 << int(b)))
            assert result.double_error_detected
            assert not result.corrected


@given(word=st.integers(min_value=0, max_value=(1 << 64) - 1),
       bit=st.integers(min_value=0, max_value=71))
@settings(max_examples=100, deadline=None)
def test_secded_single_error_property(word, bit):
    """Property: any single bit flip in any codeword is corrected."""
    result = decode_word(encode_word(word) ^ (1 << bit))
    assert result.data == word
    assert result.corrected and not result.double_error_detected


class TestErrorInjection:
    def test_tbe_indices_most_sensitive(self):
        """Section 5.1: flips in TBE indices fail with high probability
        (out-of-bounds or wrong-row gathers)."""
        report = sensitivity_study(trials_per_region=120, seed=3)
        assert report.failure_rate(ErrorRegion.TBE_INDICES) > 0.6
        assert report.most_sensitive() is ErrorRegion.TBE_INDICES

    def test_index_flips_can_crash(self):
        model = NumericDlrm()
        rng = np.random.default_rng(1)
        outcomes = {
            inject_and_classify(model, ErrorRegion.TBE_INDICES, rng) for _ in range(60)
        }
        assert Outcome.CRASH in outcomes

    def test_fp_flips_can_produce_nan_or_corruption(self):
        model = NumericDlrm()
        rng = np.random.default_rng(2)
        outcomes = [
            inject_and_classify(model, ErrorRegion.DENSE_WEIGHTS, rng)
            for _ in range(200)
        ]
        assert Outcome.CORRUPTED in outcomes or Outcome.NAN in outcomes
        assert Outcome.BENIGN in outcomes  # low bits mostly harmless

    def test_reference_model_deterministic(self):
        model = NumericDlrm()
        dense, indices = model.sample_inputs()
        out1 = model.forward(dense, indices)
        out2 = model.forward(dense, indices)
        np.testing.assert_array_equal(out1, out2)
        assert np.all((out1 >= 0) & (out1 <= 1))


class TestFleetErrors:
    def test_paper_fraction_reproduced(self):
        """24% of 1,700 servers with errors, ~1 card each."""
        stats = sample_fleet_errors(seed=0)
        assert 0.20 <= stats.affected_fraction <= 0.28
        assert stats.mean_errored_cards_per_affected_server < 1.5

    def test_probability_inversion(self):
        p = card_error_probability_for_server_fraction(0.24)
        server_fraction = 1 - (1 - p) ** CARDS_PER_SERVER
        assert server_fraction == pytest.approx(0.24)

    def test_zero_probability(self):
        stats = sample_fleet_errors(card_error_probability=0.0)
        assert stats.affected_servers == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_fleet_errors(card_error_probability=1.5)


class TestEccDecision:
    def test_high_error_rate_enables_ecc(self):
        decision = decide_ecc(
            EccDecisionInputs(
                server_error_fraction=0.24,
                uncorrected_failure_rate=0.5,
                anomaly_budget_per_day=50,
                errors_per_affected_server_per_day=20,
                fleet_servers=10_000,
            )
        )
        assert decision.enable_ecc
        assert decision.expected_anomalies_per_day > decision.anomaly_budget_per_day

    def test_negligible_error_rate_forgoes_ecc(self):
        decision = decide_ecc(
            EccDecisionInputs(
                server_error_fraction=0.0001,
                uncorrected_failure_rate=0.1,
                anomaly_budget_per_day=50,
                errors_per_affected_server_per_day=1,
                fleet_servers=10_000,
            )
        )
        assert not decision.enable_ecc

    def test_hashing_overhead_too_high(self):
        """The software-hashing alternative the paper rejected."""
        overhead = hashing_integrity_overhead(
            region_bytes=1 << 30, accesses_per_s=10, hash_bytes_per_s=10e9
        )
        assert overhead > 0.5


class TestOverclocking:
    def test_negligible_pass_rate_drop(self):
        """Section 5.2: negligible decrease from 1.1 to 1.35 GHz."""
        study = run_overclocking_study(num_chips=2000, seed=5)
        drop = study.pass_rate_drop(STUDY_FREQUENCIES_HZ[0], STUDY_FREQUENCIES_HZ[-1])
        assert 0 <= drop < 0.01

    def test_low_margin_population_would_fail(self):
        """Sanity: a margin distribution near the operating point shows
        real pass-rate losses — the study's method can detect problems."""
        margin = MarginModel(mean_fmax_hz=1.30e9, sigma_hz=0.03e9)
        study = run_overclocking_study(num_chips=1000, margin=margin, seed=5)
        drop = study.pass_rate_drop(STUDY_FREQUENCIES_HZ[0], STUDY_FREQUENCIES_HZ[-1])
        assert drop > 0.05

    def test_throughput_gain_in_paper_band(self):
        """5-20% end-to-end throughput from the 23% clock increase."""
        import dataclasses as dc

        from repro.arch import mtia2i_spec
        from repro.models.dlrm import build_dlrm, small_dlrm
        from repro.perf import Executor

        config = dc.replace(small_dlrm(), batch=1024)
        slow = Executor(mtia2i_spec(frequency_hz=1.1e9)).run(build_dlrm(config), 1024)
        fast = Executor(mtia2i_spec()).run(build_dlrm(config), 1024)
        gain = overclock_throughput_gain(slow, fast)
        assert 0.03 <= gain <= 0.23

    def test_invalid_chips(self):
        with pytest.raises(ValueError):
            run_overclocking_study(num_chips=0)


class TestFirmware:
    def test_deadlock_requires_all_conditions(self):
        base = dict(pe_utilization=1.0, pcie_queue_depth=8,
                    control_core_reads_host_memory=True)
        assert has_deadlock(SystemState(**base))
        assert not has_deadlock(SystemState(**{**base, "pe_utilization": 0.5}))
        assert not has_deadlock(SystemState(**{**base, "pcie_queue_depth": 0}))
        assert not has_deadlock(
            SystemState(**{**base, "control_core_reads_host_memory": False})
        )

    def test_mitigation_breaks_cycle(self):
        state = SystemState(1.0, 8, True)
        assert not has_deadlock(apply_firmware_mitigation(state))

    def test_wait_edges_include_noc_serialization(self):
        edges = wait_for_edges(SystemState(1.0, 8, True))
        assert (Component.NOC, Component.CONTROL_CORE) in edges

    def test_incidence_small_and_mitigated_to_zero(self):
        before = deadlock_incidence(num_servers=50_000, seed=1)
        after = deadlock_incidence(num_servers=50_000, mitigated=True, seed=1)
        assert 0 < before < 0.01  # the paper's ~0.1% order
        assert after == 0.0

    def test_rollout_timescales(self):
        """18-day typical, ~3 h emergency, ~1 h override."""
        assert 14 <= typical_rollout().total_days <= 22
        assert 2 <= emergency_rollout().total_hours <= 4
        assert override_rollout().total_hours <= 1.2

    def test_rollout_plans_match_the_paper_constants(self):
        """The plans' wall times sit on the module's paper figures, with
        the bounds above: 18 +/- 4 days, 3 +/- 1 h, at most 1.2 x 1 h."""
        assert abs(typical_rollout().total_days - TYPICAL_ROLLOUT_DAYS) <= 4
        assert abs(emergency_rollout().total_hours - EMERGENCY_ROLLOUT_HOURS) <= 1
        assert override_rollout().total_hours <= 1.2 * OVERRIDE_ROLLOUT_HOURS

    def test_staged_detection_catches_before_fleet(self):
        result = staged_detection(issue_incidence=0.001, seed=0)
        assert result.detected_at_stage is not None
        assert result.servers_exposed < result.fleet_servers

    def test_tiny_incidence_may_reach_fleet(self):
        result = staged_detection(issue_incidence=1e-7, seed=0)
        assert result.detected_at_stage is None

    def test_zero_incidence_always_reaches_fleet(self):
        """A clean firmware build must sail through every ring regardless
        of seed, exposing the full fleet with no detection."""
        for seed in range(5):
            result = staged_detection(issue_incidence=0.0, seed=seed)
            assert result.detected_at_stage is None
            assert result.servers_exposed == result.fleet_servers

    def test_below_threshold_incidence_escapes_early_rings(self):
        """An incidence too small to trip the detection threshold in any
        pre-fleet ring reaches the whole fleet — the paper's argument for
        why the 0.1% deadlock escaped staged deployment."""
        # With an 80k fleet and a 1%-of-fleet canary ring, incidence that
        # yields < threshold expected hits per ring goes undetected.
        result = staged_detection(
            issue_incidence=1e-6,
            detection_threshold_servers=3,
            seed=1,
        )
        assert result.detected_at_stage is None
        assert result.servers_exposed == result.fleet_servers

    def test_certain_incidence_caught_at_first_ring(self):
        result = staged_detection(issue_incidence=1.0, seed=0)
        assert result.detected_at_stage is not None
        assert result.servers_exposed < result.fleet_servers

    def test_staged_detection_validation(self):
        with pytest.raises(ValueError):
            staged_detection(issue_incidence=1.5)
        with pytest.raises(ValueError):
            staged_detection(issue_incidence=-0.1)

    def test_restart_wave_partitioning(self):
        """Wave sizes honor the concurrency cap and cover the fleet."""
        plan = emergency_rollout()
        for fleet in (1, 5, 300, 80_000):
            waves = plan.restart_waves(fleet)
            assert sum(waves) == fleet
            assert all(0 < w <= plan.restart_wave_size(fleet) for w in waves)
        with pytest.raises(ValueError):
            plan.restart_waves(0)


class TestPower:
    def test_initial_budget_above_nameplate(self):
        server = mtia2i_server()
        assert stress_test_budget(server) > server.max_power_watts
