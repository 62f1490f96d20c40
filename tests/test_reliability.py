"""Reliability-plane tests: fault model, overlap, schemes, Monte-Carlo."""

import pytest

from repro.reliability.analytical import (
    chip_correcting_failure_probability,
    effective_mac_strength_bits,
    empirical_overlap_probability,
    large_fault_fraction,
    sdc_estimate,
    secded_failure_probability,
)
from repro.reliability.faults import FaultInstance, faults_overlap
from repro.reliability.fitrates import (
    FAULT_MODES,
    FaultGranularity,
    fit_by_granularity,
    single_bit_fraction,
    total_fit_per_chip,
)
from repro.reliability.montecarlo import (
    MonteCarloConfig,
    simulate_failure_probability,
)
from repro.reliability.schemes import (
    CHIPKILL_SCHEME,
    IVEC_SCHEME,
    SECDED_SCHEME,
    SYNERGY_SCHEME,
)
from repro.util.rng import DeterministicRng

from oracles import (
    footprints_intersect,
    reference_device_fails,
    sample_device_faults,
    simulate_device,
)


def fault(chip, granularity, bank=0, row=0, column=0, start=0.0, end=None, bit=0):
    return FaultInstance(
        chip=chip,
        granularity=granularity,
        transient=end is not None,
        start_hour=start,
        end_hour=end,
        bank=bank,
        row=row,
        column=column,
        bit=bit,
    )


def intersects(a, b):
    """Footprint intersection of two permanent faults that start at hour 0.

    Such faults are always active together, so the shipped overlap test
    must agree with the oracle's footprint predicate.
    """
    expected = footprints_intersect(a, b)
    assert faults_overlap(a, b) == expected
    return expected


def fails(scheme, faults):
    """``scheme.device_fails``, checked against the oracle predicate."""
    outcome = scheme.device_fails(faults)
    assert outcome == reference_device_fails(scheme, faults)
    return outcome


class TestFitRates:
    def test_table_total(self):
        # Sum of Table I: 14.2+18.6+1.4+0.3+1.4+5.6+0.2+8.2+0.8+10+0.3+1.4+0.9+2.8
        assert total_fit_per_chip() == pytest.approx(66.1)

    def test_single_bit_is_about_half(self):
        # Section II-B: single-bit failures make up ~50% of failures.
        assert 0.45 < single_bit_fraction() < 0.55

    def test_mode_count(self):
        assert len(FAULT_MODES) == 14

    def test_granularity_totals(self):
        totals = fit_by_granularity()
        assert totals[FaultGranularity.SINGLE_BIT] == pytest.approx(32.8)
        assert totals[FaultGranularity.SINGLE_BANK] == pytest.approx(10.8)

    def test_is_large_flag(self):
        for mode in FAULT_MODES:
            assert mode.is_large == (
                mode.granularity is not FaultGranularity.SINGLE_BIT
            )


class TestOverlap:
    def test_same_word_bits_intersect(self):
        a = fault(0, FaultGranularity.SINGLE_BIT, bank=1, row=2, column=3)
        b = fault(1, FaultGranularity.SINGLE_BIT, bank=1, row=2, column=3)
        assert intersects(a, b)

    def test_different_word_bits_disjoint(self):
        a = fault(0, FaultGranularity.SINGLE_BIT, bank=1, row=2, column=3)
        b = fault(1, FaultGranularity.SINGLE_BIT, bank=1, row=2, column=4)
        assert not intersects(a, b)

    def test_row_and_column_cross_in_same_bank(self):
        row_fault = fault(0, FaultGranularity.SINGLE_ROW, bank=2, row=5)
        column_fault = fault(1, FaultGranularity.SINGLE_COLUMN, bank=2, column=9)
        assert intersects(row_fault, column_fault)

    def test_row_and_column_different_banks_disjoint(self):
        row_fault = fault(0, FaultGranularity.SINGLE_ROW, bank=2, row=5)
        column_fault = fault(1, FaultGranularity.SINGLE_COLUMN, bank=3, column=9)
        assert not intersects(row_fault, column_fault)

    def test_bank_fault_covers_its_bank(self):
        bank_fault = fault(0, FaultGranularity.SINGLE_BANK, bank=4)
        bit = fault(1, FaultGranularity.SINGLE_BIT, bank=4, row=9, column=9)
        other = fault(1, FaultGranularity.SINGLE_BIT, bank=5, row=9, column=9)
        assert intersects(bank_fault, bit)
        assert not intersects(bank_fault, other)

    def test_chip_scale_faults_cover_everything(self):
        chip_fault = fault(0, FaultGranularity.MULTI_BANK)
        anything = fault(1, FaultGranularity.SINGLE_BIT, bank=7, row=1, column=1)
        assert intersects(chip_fault, anything)

    def test_temporal_disjoint_transients(self):
        a = fault(0, FaultGranularity.SINGLE_BANK, bank=0, start=0.0, end=10.0)
        b = fault(1, FaultGranularity.SINGLE_BANK, bank=0, start=20.0, end=30.0)
        assert footprints_intersect(a, b)
        assert not faults_overlap(a, b)

    def test_permanent_overlaps_later_transient(self):
        a = fault(0, FaultGranularity.SINGLE_BANK, bank=0, start=0.0, end=None)
        b = fault(1, FaultGranularity.SINGLE_BANK, bank=0, start=500.0, end=510.0)
        assert faults_overlap(a, b)


class TestSchemes:
    def test_secded_survives_single_bit(self):
        assert not fails(
            SECDED_SCHEME,
            [fault(0, FaultGranularity.SINGLE_BIT, bank=0, row=0, column=0)],
        )

    def test_secded_fails_any_large_fault(self):
        for granularity in (
            FaultGranularity.SINGLE_WORD,
            FaultGranularity.SINGLE_ROW,
            FaultGranularity.SINGLE_BANK,
        ):
            assert fails(SECDED_SCHEME, [fault(0, granularity)])

    def test_secded_fails_double_bit_same_word(self):
        faults = [
            fault(0, FaultGranularity.SINGLE_BIT, bank=1, row=1, column=1, bit=0),
            fault(3, FaultGranularity.SINGLE_BIT, bank=1, row=1, column=1, bit=0),
        ]
        assert fails(SECDED_SCHEME, faults)

    def test_secded_survives_double_bit_different_words(self):
        faults = [
            fault(0, FaultGranularity.SINGLE_BIT, bank=1, row=1, column=1),
            fault(3, FaultGranularity.SINGLE_BIT, bank=1, row=1, column=2),
        ]
        assert not fails(SECDED_SCHEME, faults)

    def test_chip_correcting_survives_one_dead_chip(self):
        for scheme in (CHIPKILL_SCHEME, SYNERGY_SCHEME, IVEC_SCHEME):
            assert not fails(scheme, [fault(0, FaultGranularity.MULTI_BANK)])

    def test_chip_correcting_survives_two_faults_same_chip(self):
        faults = [
            fault(2, FaultGranularity.SINGLE_BANK, bank=0),
            fault(2, FaultGranularity.SINGLE_BANK, bank=0),
        ]
        assert not fails(SYNERGY_SCHEME, faults)

    def test_chip_correcting_fails_two_overlapping_chips(self):
        faults = [
            fault(2, FaultGranularity.SINGLE_BANK, bank=0),
            fault(5, FaultGranularity.SINGLE_BANK, bank=0),
        ]
        assert fails(SYNERGY_SCHEME, faults)

    def test_chip_correcting_survives_disjoint_chips(self):
        faults = [
            fault(2, FaultGranularity.SINGLE_BANK, bank=0),
            fault(5, FaultGranularity.SINGLE_BANK, bank=1),
        ]
        assert not fails(SYNERGY_SCHEME, faults)

    def test_group_sizes(self):
        assert SECDED_SCHEME.chips == 9
        assert CHIPKILL_SCHEME.chips == 18
        assert SYNERGY_SCHEME.chips == 9
        assert IVEC_SCHEME.chips == 16

    def test_empty_history_survives(self):
        assert not fails(SECDED_SCHEME, [])


class TestMonteCarlo:
    def test_reference_device_simulation(self):
        rng = DeterministicRng(1)
        config = MonteCarloConfig(devices=1)
        outcomes = [simulate_device(rng, SECDED_SCHEME, config) for _ in range(500)]
        # With ~1.6e-2 failure probability, expect a few failures in 500.
        assert 0 <= sum(outcomes) < 40

    def test_sampled_faults_have_valid_fields(self):
        rng = DeterministicRng(2)
        config = MonteCarloConfig()
        geometry = config.geometry
        # Force many samples by repeating.
        collected = []
        for _ in range(2000):
            collected.extend(sample_device_faults(rng, CHIPKILL_SCHEME, config))
            if len(collected) > 20:
                break
        assert collected
        for instance in collected:
            assert 0 <= instance.chip < 18
            assert 0 <= instance.bank < geometry.banks
            assert 0 <= instance.row < geometry.rows_per_bank
            assert 0 <= instance.column < geometry.words_per_row
            assert 0 <= instance.start_hour <= config.lifetime_hours
            if instance.transient:
                assert instance.end_hour is not None

    def test_paper_ratios(self):
        config = MonteCarloConfig(devices=400_000)
        secded = simulate_failure_probability(SECDED_SCHEME, config)
        chipkill = simulate_failure_probability(CHIPKILL_SCHEME, config)
        synergy = simulate_failure_probability(SYNERGY_SCHEME, config)
        assert secded > chipkill > synergy > 0
        # Shape targets (paper: 37x and 185x; generous MC tolerance bands).
        assert 15 < secded / chipkill < 120
        assert 80 < secded / synergy < 500
        assert 2 < chipkill / synergy < 10

    def test_longer_lifetime_increases_risk(self):
        short = simulate_failure_probability(
            SECDED_SCHEME, MonteCarloConfig(devices=150_000, lifetime_years=1)
        )
        long = simulate_failure_probability(
            SECDED_SCHEME, MonteCarloConfig(devices=150_000, lifetime_years=7)
        )
        assert long > short

    def test_deterministic_given_seed(self):
        config = MonteCarloConfig(devices=50_000, seed=7)
        a = simulate_failure_probability(SYNERGY_SCHEME, config)
        b = simulate_failure_probability(SYNERGY_SCHEME, config)
        assert a == b


class TestAnalytical:
    def test_secded_matches_monte_carlo(self):
        config = MonteCarloConfig(devices=400_000)
        analytical = secded_failure_probability(config)
        simulated = simulate_failure_probability(SECDED_SCHEME, config)
        assert analytical == pytest.approx(simulated, rel=0.2)

    def test_chip_correcting_matches_monte_carlo(self):
        config = MonteCarloConfig(devices=2_000_000)
        overlap = empirical_overlap_probability(config)
        analytical = chip_correcting_failure_probability(
            CHIPKILL_SCHEME, config, overlap
        )
        simulated = simulate_failure_probability(CHIPKILL_SCHEME, config)
        assert analytical == pytest.approx(simulated, rel=0.5)

    def test_overlap_probability_pinned(self):
        # The kernel's sampler reproduces the FaultInstance-era draws, so
        # the estimate is the exact value the per-call sampler gave.
        assert empirical_overlap_probability(MonteCarloConfig()) == 0.1472

    def test_large_fraction(self):
        assert large_fault_fraction() == pytest.approx(1 - single_bit_fraction())

    def test_sdc_estimate_matches_paper(self):
        estimate = sdc_estimate()
        # Paper: SDC FIT ~1e-19, about once per 1e14 billion years... the
        # order of magnitude is what matters.
        assert estimate.sdc_fit < 1e-15
        assert estimate.years_between_sdc > 1e20

    def test_effective_mac_strength(self):
        assert effective_mac_strength_bits(64, 16) == pytest.approx(60.0)
        assert effective_mac_strength_bits(64, 8) == pytest.approx(61.0)
