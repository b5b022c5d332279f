"""Tests for the silent-data-corruption subsystem (sections 5.1/5.2/5.6).

The campaign-level assertions mirror the subsystem's acceptance bar:
bit-identical reruns under one seed, a monotone protection ladder, and
ECC + ABFT cutting undetected NE-impacting corruptions by >= 10x.
"""

import dataclasses

import numpy as np
import pytest

from repro.reliability.overclock import DESIGN_FREQUENCY_HZ
from repro.resilience.faults import fault_rates_from_reliability
from repro.sdc import (
    CampaignConfig,
    CorruptionSite,
    CtrServingPipeline,
    DEFAULT_SITE_WEIGHTS,
    FleetScreeningModel,
    abft_activation_checksum,
    abft_col_check,
    abft_overhead_fraction,
    abft_weight_checksum,
    accumulator_bound,
    expected_blast_window_s,
    hash_rows,
    plan_injections,
    read_word_through_ecc,
    read_word_unprotected,
    run_campaign,
    sdc_fault_rates,
    sites_in,
    standard_profiles,
    triple_flip_escape_rate,
    verify_row_hashes,
)
from repro.sdc.sites import (
    flip_fp16_bit,
    flip_int8_bit,
    read_array_word,
    recurrent_rows,
    write_array_word,
)
from repro.units import GHZ


class TestEccWordChannel:
    WORD = 0xDEAD_BEEF_1234_5678

    def test_single_flip_corrects(self):
        for bit in (0, 31, 63):
            result = read_word_through_ecc(self.WORD, (bit,))
            assert result.outcome == "corrected"
            assert result.data == self.WORD

    def test_double_flip_detects_without_miscorrect(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            bits = tuple(int(b) for b in rng.choice(64, size=2, replace=False))
            result = read_word_through_ecc(self.WORD, bits)
            assert result.outcome == "detected"
            assert result.data == self.WORD  # surfaced, not consumed

    def test_triple_flip_mostly_escapes_silently(self):
        """Odd-weight errors alias to single-bit syndromes, so SEC-DED
        miscorrects nearly all of them — the documented escape path."""
        rate = triple_flip_escape_rate(samples=300, seed=1)
        assert rate > 0.9
        assert triple_flip_escape_rate(samples=300, seed=1) == rate

    def test_silent_escape_returns_a_different_word(self):
        rng = np.random.default_rng(2)
        seen_silent = False
        for _ in range(20):
            bits = tuple(int(b) for b in rng.choice(64, size=3, replace=False))
            result = read_word_through_ecc(self.WORD, bits)
            if result.outcome == "silent":
                seen_silent = True
                assert result.data != self.WORD
        assert seen_silent

    def test_unprotected_path_keeps_every_flip(self):
        """The ECC-off arm corrupts the same logical bits, so coverage
        deltas are attributable to the codec alone."""
        bits = (3, 17, 44)
        expected = self.WORD ^ sum(1 << b for b in bits)
        result = read_word_unprotected(self.WORD, bits)
        assert result.data == expected
        assert result.outcome == "silent"
        assert read_word_unprotected(self.WORD, ()).outcome == "clean"


def abft_row_check(acc, x_values, w_checksum):
    """``(XW)1 == X(W1)`` with the publish-time weight checksum: the
    row identity the serving pipeline checks inline."""
    return bool(
        np.array_equal(acc.sum(axis=1), x_values.astype(np.int64) @ w_checksum)
    )


class TestAbft:
    @staticmethod
    def _operands(seed=0, m=16, k=24, n=6):
        rng = np.random.default_rng(seed)
        x = rng.integers(-127, 128, size=(m, k)).astype(np.int8)
        w = rng.integers(-127, 128, size=(k, n)).astype(np.int8)
        acc = x.astype(np.int64) @ w.astype(np.int64)
        return x, w, acc

    def test_clean_identities_hold_exactly(self):
        x, w, acc = self._operands()
        assert abft_col_check(acc, abft_activation_checksum(x), w)
        assert abft_row_check(acc, x, abft_weight_checksum(w))

    def test_weight_corruption_breaks_row_check_only(self):
        """The row check folds the publish-time weight checksum, so a
        corrupted weight word breaks it; the col check recomputes with
        the corrupted weights and cannot see the change."""
        x, w, acc = self._operands()
        w_checksum = abft_weight_checksum(w)  # publish time, clean
        corrupt = w.copy()
        flip_int8_bit(corrupt, 5, 6)
        acc_bad = x.astype(np.int64) @ corrupt.astype(np.int64)
        assert not abft_row_check(acc_bad, x, w_checksum)
        assert abft_col_check(acc_bad, abft_activation_checksum(x), corrupt)

    def test_activation_corruption_breaks_col_check_only(self):
        """The col checksum predates the datapath, so a stuck activation
        lane breaks it; the row check recomputes from the corrupted
        activations and cannot."""
        x, w, acc = self._operands()
        x_checksum = abft_activation_checksum(x)  # pre-datapath, clean
        corrupt = x.copy()
        flip_int8_bit(corrupt, 9, 3)
        acc_bad = corrupt.astype(np.int64) @ w.astype(np.int64)
        assert not abft_col_check(acc_bad, x_checksum, w)
        assert abft_row_check(acc_bad, corrupt, abft_weight_checksum(w))

    def test_accumulator_corruption_breaks_both(self):
        x, w, acc = self._operands()
        acc_bad = acc.copy()
        acc_bad[4, 2] ^= 1 << 12
        assert not abft_col_check(acc_bad, abft_activation_checksum(x), w)
        assert not abft_row_check(acc_bad, x, abft_weight_checksum(w))

    def test_overhead_small_at_production_shape(self):
        assert abft_overhead_fraction(256, 1024, 1024) < 0.01
        with pytest.raises(ValueError):
            abft_overhead_fraction(0, 1, 1)

    def test_accumulator_bound(self):
        assert accumulator_bound(64) == 64 * 127 * 127


class TestRowHashing:
    def test_intact_table_verifies(self):
        table = np.arange(32, dtype=np.float16).reshape(4, 8)
        assert verify_row_hashes(table, hash_rows(table)) is None

    def test_any_bit_flip_is_located(self):
        table = np.arange(32, dtype=np.float16).reshape(4, 8)
        published = hash_rows(table)
        flip_fp16_bit(table, 17, 9)
        assert verify_row_hashes(table, published) == 17 // 8

    def test_requires_matrix(self):
        with pytest.raises(ValueError):
            hash_rows(np.zeros(4, dtype=np.float16))


class TestScreeningModel:
    def test_no_marginal_chips_at_design_frequency(self):
        model = FleetScreeningModel(operating_frequency_hz=DESIGN_FREQUENCY_HZ)
        assert model.marginal_chip_fraction() < 1e-12

    def test_overclock_opens_a_tail(self):
        shipped = FleetScreeningModel()  # 1.35 GHz
        assert 0 < shipped.marginal_chip_fraction() < 0.01
        aggressive = FleetScreeningModel(operating_frequency_hz=1.5 * GHZ)
        assert aggressive.marginal_chip_fraction() > shipped.marginal_chip_fraction()

    def test_sdc_rate_scales_with_tail(self):
        model = FleetScreeningModel()
        assert model.sdc_rate_per_chip_hour() == pytest.approx(
            model.marginal_chip_fraction() * 0.05
        )

    def test_latency_and_overhead_tradeoff(self):
        weekly = FleetScreeningModel()
        daily = dataclasses.replace(weekly, interval_s=86_400.0)
        assert daily.mean_detection_latency_s() < weekly.mean_detection_latency_s()
        assert daily.overhead_fraction() > weekly.overhead_fraction()

    def test_perfect_sensitivity_means_half_interval(self):
        model = FleetScreeningModel(sensitivity=1.0)
        assert model.mean_detection_latency_s() == pytest.approx(
            0.5 * model.interval_s
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            FleetScreeningModel(sensitivity=1.5)
        with pytest.raises(ValueError):
            FleetScreeningModel(interval_s=100.0, screen_duration_s=200.0)


class TestInjectionPlanning:
    _ARGS = dict(
        weight_values_size=64, table_shape=(128, 16), num_features=64
    )

    def test_deterministic_fixed_order(self):
        first = plan_injections(100, np.random.default_rng(5), **self._ARGS)
        again = plan_injections(100, np.random.default_rng(5), **self._ARGS)
        assert first == again
        other = plan_injections(100, np.random.default_rng(6), **self._ARGS)
        assert first != other

    def test_all_sites_drawn_and_counted(self):
        injections = plan_injections(400, np.random.default_rng(0), **self._ARGS)
        counts = sites_in(injections)
        assert sum(counts.values()) == 400
        assert all(counts[site] > 0 for site in DEFAULT_SITE_WEIGHTS)

    def test_memory_faults_target_both_stores(self):
        injections = plan_injections(600, np.random.default_rng(1), **self._ARGS)
        stores = {
            i.store for i in injections if i.site is CorruptionSite.MEMORY_WORD
        }
        assert stores == {"embedding", "weights"}

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_injections(0, np.random.default_rng(0), **self._ARGS)
        with pytest.raises(ValueError):
            plan_injections(
                10, np.random.default_rng(0),
                weight_values_size=64, table_shape=(128, 16), num_features=64,
                site_weights={site: 0.0 for site in CorruptionSite},
            )


class TestBitSurgery:
    def test_word_roundtrip(self):
        array = np.arange(16, dtype=np.int8).reshape(4, 4)
        word = read_array_word(array, 1)
        write_array_word(array, 1, word ^ (1 << 9))
        assert read_array_word(array, 1) == word ^ (1 << 9)
        with pytest.raises(IndexError):
            read_array_word(array, 2)

    def test_int8_flip_is_involutive(self):
        array = np.arange(8, dtype=np.int8)
        original = array.copy()
        flip_int8_bit(array, 3, 7)
        assert array[3] != original[3]
        flip_int8_bit(array, 3, 7)
        assert np.array_equal(array, original)

    def test_fp16_flip_touches_one_element(self):
        array = np.zeros((2, 4), dtype=np.float16)
        flip_fp16_bit(array, 5, 14)
        assert np.count_nonzero(array) == 1

    def test_recurrent_rows_deterministic(self):
        first = recurrent_rows(1000, 0.02, seed=3)
        assert np.array_equal(first, recurrent_rows(1000, 0.02, seed=3))
        assert 0 < first.sum() < 100


class TestPipeline:
    @pytest.fixture(scope="class")
    def pipeline(self):
        return CtrServingPipeline(seed=0)

    @pytest.fixture(scope="class")
    def requests(self, pipeline):
        return pipeline.sample(1500, seed=1)

    def test_clean_serve_passes_every_check(self, pipeline, requests):
        result = pipeline.serve(requests, pipeline.clean_state())
        assert result.abft_ok and result.range_guard_ok and result.row_hash_ok
        assert not result.overflowed
        assert np.all((result.predictions > 0) & (result.predictions < 1))

    def test_weight_flip_breaks_row_check(self, pipeline, requests):
        state = pipeline.clean_state()
        flip_int8_bit(state.weight_values, 10, 6)
        result = pipeline.serve(requests, state)
        assert not result.abft_row_ok
        assert result.abft_col_ok  # col check recomputes with corrupt W
        assert result.row_hash_ok  # the table is untouched

    def test_table_flip_breaks_row_hash_not_abft(self, pipeline, requests):
        state = pipeline.clean_state()
        flip_fp16_bit(state.table, 33, 2)
        result = pipeline.serve(requests, state)
        assert not result.row_hash_ok
        assert result.abft_ok  # checksums postdate the gather

    def test_exponent_blowup_trips_embed_guard(self, pipeline, requests):
        state = pipeline.clean_state()
        # Force a huge exponent on an element some request gathers.
        state.table.reshape(-1).view(np.uint16)[5] = 0x7A00  # ~5e4
        result = pipeline.serve(requests, state)
        assert not result.embed_guard_ok
        assert not result.row_hash_ok

    def test_serve_is_deterministic(self, pipeline, requests):
        first = pipeline.serve(requests, pipeline.clean_state())
        again = pipeline.serve(requests, pipeline.clean_state())
        assert np.array_equal(first.predictions, again.predictions)


class TestCampaign:
    CONFIG = CampaignConfig(trials=200, requests=4000, seed=0)

    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(self.CONFIG)

    def test_bit_identical_rerun(self, result):
        assert run_campaign(self.CONFIG) == result

    def test_seed_changes_the_fault_list(self, result):
        other = run_campaign(dataclasses.replace(self.CONFIG, seed=3))
        assert other != result

    def test_ladder_monotone(self, result):
        """Adding detectors never reduces coverage or increases the
        silent NE-impacting residue (identical fault list per rung)."""
        coverages = [s.coverage for s in result.profiles]
        assert coverages == sorted(coverages)
        residue = [s.undetected_ne_impacting for s in result.profiles]
        assert residue == sorted(residue, reverse=True)
        overheads = [s.overhead_fraction for s in result.profiles]
        assert overheads == sorted(overheads)

    def test_acceptance_ratio_at_least_10x(self, result):
        """The subsystem's acceptance bar: ECC + ABFT cut undetected
        NE-impacting corruptions >= 10x versus no protection."""
        assert result.summary_for("none").undetected_ne_impacting >= 10
        assert result.undetected_impacting_ratio() >= 10

    def test_none_profile_detects_nothing(self, result):
        none = result.summary_for("none")
        assert none.coverage == 0.0
        assert none.overhead_fraction == 0.0

    def test_full_profile_near_total_coverage(self, result):
        full = result.summary_for("full")
        assert full.coverage > 0.95
        assert full.undetected_ne_impacting == 0

    def test_every_profile_faces_the_same_faults(self, result):
        lists = [
            tuple(o.injection for o in s.outcomes) for s in result.profiles
        ]
        assert all(faults == lists[0] for faults in lists[1:])

    def test_three_plus_sites_and_detectors_exercised(self, result):
        assert sum(1 for c in result.site_counts.values() if c > 0) >= 3
        full = result.summary_for("full")
        assert len(full.detector_counts) >= 3


class TestResilienceLink:
    CONFIG = CampaignConfig(trials=120, requests=2500, seed=2)

    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(self.CONFIG)

    def test_only_sdc_fields_replaced(self, result):
        base = fault_rates_from_reliability()
        rates = sdc_fault_rates(result.summary_for("full"), base=base)
        assert rates.deadlock_per_device_hour == base.deadlock_per_device_hour
        assert rates.ecc_ue_per_device_hour == base.ecc_ue_per_device_hour
        assert rates.throttle_per_device_hour == base.throttle_per_device_hour
        assert rates.sdc_per_device_hour == pytest.approx(
            FleetScreeningModel().sdc_rate_per_chip_hour()
        )

    def test_protection_shrinks_the_blast_window(self, result):
        """Undetected-impacting events poison traffic for the out-of-band
        window; detection replaces that with measured latency."""
        unprotected = expected_blast_window_s(result.summary_for("none"))
        protected = expected_blast_window_s(result.summary_for("full"))
        assert protected < unprotected
        assert unprotected > 0

    def test_window_validation(self, result):
        with pytest.raises(ValueError):
            expected_blast_window_s(
                result.summary_for("none"), undetected_window_s=0.0
            )


def test_standard_profiles_ladder():
    names = [p.name for p in standard_profiles()]
    assert names == ["none", "ecc", "ecc+abft", "full"]
