"""Tests for the fault injector and the analytical reliability model."""

import pytest

from repro.ecc.fault_injection import (
    FaultInjector,
    FaultModel,
    InjectionOutcome,
    InjectionRecord,
    InjectionReport,
)
from repro.ecc.hamming import HammingSecCode
from repro.ecc.parity import ParityCode
from repro.ecc.reliability import ReliabilityModel, word_outcome_probabilities
from repro.ecc.secded import HsiaoSecDedCode


def exhaustive_report(injector, data, flips):
    """Flip each bit-position tuple of ``flips`` in ``data``'s codeword."""
    code = injector.code
    report = InjectionReport(code_name=code.name)
    codeword = code.encode(data)
    for positions in flips:
        corrupted = codeword
        for position in positions:
            corrupted ^= 1 << position
        result = code.decode(corrupted)
        outcome = injector._classify(data, positions, result.data, result.status)
        report.records.append(
            InjectionRecord(
                data=data, flipped_bits=positions, status=result.status, outcome=outcome
            )
        )
    return report


class TestFaultInjector:
    def test_single_bit_campaign_on_secded_all_corrected(self):
        injector = FaultInjector(HsiaoSecDedCode(), seed=1)
        report = injector.run_campaign(
            trials=300, fault_model=FaultModel({1: 1.0})
        )
        assert report.total == 300
        assert report.rate(InjectionOutcome.CORRECTED) == 1.0
        assert report.rate(InjectionOutcome.SILENT_DATA_CORRUPTION) == 0.0

    def test_double_bit_campaign_on_secded_all_detected(self):
        injector = FaultInjector(HsiaoSecDedCode(), seed=2)
        report = injector.run_campaign(
            trials=300, fault_model=FaultModel({2: 1.0})
        )
        assert report.rate(InjectionOutcome.DETECTED) == 1.0

    def test_double_bit_campaign_on_hamming_has_sdc(self):
        injector = FaultInjector(HammingSecCode(), seed=3)
        report = injector.run_campaign(
            trials=300, fault_model=FaultModel({2: 1.0})
        )
        assert report.rate(InjectionOutcome.SILENT_DATA_CORRUPTION) > 0.5

    def test_parity_even_flips_are_silent(self):
        injector = FaultInjector(ParityCode(), seed=4)
        report = injector.run_campaign(
            trials=200, fault_model=FaultModel({2: 1.0})
        )
        silent = report.rate(InjectionOutcome.SILENT_DATA_CORRUPTION)
        masked = report.rate(InjectionOutcome.MASKED)
        assert silent + masked == 1.0

    def test_exhaustive_single_bit(self):
        injector = FaultInjector(HsiaoSecDedCode(), seed=5)
        singles = [(position,) for position in range(39)]
        for data in (0, 0xFFFFFFFF, 0x12345678):
            report = exhaustive_report(injector, data, singles)
            assert report.total == 39
            assert report.rate(InjectionOutcome.CORRECTED) == 1.0

    def test_exhaustive_double_bit(self):
        injector = FaultInjector(HsiaoSecDedCode(), seed=6)
        pairs = [(first, second) for first in range(39) for second in range(first + 1, 39)]
        report = exhaustive_report(injector, 0xCAFED00D, pairs)
        assert report.total == 39 * 38 // 2
        assert report.rate(InjectionOutcome.DETECTED) == 1.0

    def test_injection_uses_supplied_data_words(self):
        injector = FaultInjector(HsiaoSecDedCode(), seed=7)
        report = injector.run_campaign(
            trials=5, data_source=[1, 2, 3, 4, 5], fault_model=FaultModel({1: 1.0})
        )
        assert [record.data for record in report.records] == [1, 2, 3, 4, 5]

    def test_report_by_multiplicity(self):
        injector = FaultInjector(HsiaoSecDedCode(), seed=8)
        report = injector.run_campaign(
            trials=100, fault_model=FaultModel({1: 0.5, 2: 0.5})
        )
        multiplicities = [len(record.flipped_bits) for record in report.records]
        assert set(multiplicities) <= {1, 2}
        assert len(multiplicities) == 100

    def test_fault_model_sampling_respects_weights(self):
        import random

        model = FaultModel({1: 0.0, 3: 1.0})
        assert model.sample_multiplicity(random.Random(0)) == 3


class TestReliabilityModel:
    def test_word_probabilities_sum_to_one(self):
        for code in (ParityCode(), HammingSecCode(), HsiaoSecDedCode()):
            outcomes = word_outcome_probabilities(code, 1e-4)
            assert sum(outcomes.values()) == pytest.approx(1.0, abs=1e-9)

    def test_secded_beats_parity_and_hamming(self):
        model = ReliabilityModel(words=4096, bit_upset_rate_per_hour=1e-6)
        secded = model.array_failure_probability(HsiaoSecDedCode())
        parity = model.array_failure_probability(ParityCode())
        hamming = model.array_failure_probability(HammingSecCode())
        assert secded < hamming
        assert secded < parity

    def test_failure_scaling_with_scrub_interval(self):
        fast = ReliabilityModel(
            words=4096, bit_upset_rate_per_hour=1e-6, scrub_interval_hours=0.1
        )
        slow = ReliabilityModel(
            words=4096, bit_upset_rate_per_hour=1e-6, scrub_interval_hours=10.0
        )
        code = HsiaoSecDedCode()
        assert fast.array_failure_probability(code) < slow.array_failure_probability(code)

    def test_fit_like_rate_positive(self):
        model = ReliabilityModel(words=4096, bit_upset_rate_per_hour=1e-6)
        assert model.failures_in_time(HsiaoSecDedCode(), hours=1e9) > 0.0
