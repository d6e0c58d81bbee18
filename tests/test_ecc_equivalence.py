"""Equivalence of the table-driven codecs against the reference bit loops.

The fast codecs in ``repro.ecc`` must be *bit-identical* to the seed
implementations preserved in :mod:`repro.ecc.reference`: same codewords,
same :class:`~repro.ecc.codec.DecodeResult` (data, status, syndrome,
corrected bit) for clean words, for every possible single-bit flip and
for sampled double-bit flips.  The fault campaign percentages depend on
nothing else, so these tests are what lets the experiments trust the
fast path.
"""

from __future__ import annotations

import random

import pytest

from repro.ecc.fault_injection import FaultInjector, FaultModel
from repro.ecc.hamming import HammingSecCode
from repro.ecc.parity import ParityCode
from repro.ecc.secded import HsiaoSecDedCode

from oracles.ecc import (
    REFERENCE_CODES,
    ReferenceHammingSecCode,
    ReferenceHsiaoSecDedCode,
    ReferenceParityCode,
)

PAIRS = [
    pytest.param(ParityCode, ReferenceParityCode, id="parity"),
    pytest.param(HammingSecCode, ReferenceHammingSecCode, id="hamming"),
    pytest.param(HsiaoSecDedCode, ReferenceHsiaoSecDedCode, id="secded"),
]


def sample_words(data_bits: int, count: int = 24, seed: int = 99):
    rng = random.Random(seed)
    corners = [0, 1, (1 << data_bits) - 1, 0x5555_5555 & ((1 << data_bits) - 1)]
    return corners + [rng.getrandbits(data_bits) for _ in range(count)]


@pytest.mark.parametrize("fast_cls, ref_cls", PAIRS)
class TestCodecEquivalence:
    def test_encode_identical(self, fast_cls, ref_cls):
        fast, ref = fast_cls(), ref_cls()
        for word in sample_words(fast.data_bits):
            assert fast.encode(word) == ref.encode(word)

    def test_clean_and_exhaustive_single_bit_decode_identical(self, fast_cls, ref_cls):
        fast, ref = fast_cls(), ref_cls()
        for word in sample_words(fast.data_bits, count=12):
            codeword = ref.encode(word)
            assert fast.decode(codeword) == ref.decode(codeword)
            for position in range(fast.total_bits):
                corrupted = codeword ^ (1 << position)
                assert fast.decode(corrupted) == ref.decode(corrupted), (
                    f"single-bit flip at {position} of word {word:#x}"
                )

    def test_sampled_double_bit_decode_identical(self, fast_cls, ref_cls):
        fast, ref = fast_cls(), ref_cls()
        rng = random.Random(2019)
        for word in sample_words(fast.data_bits, count=8):
            codeword = ref.encode(word)
            for _ in range(64):
                first, second = rng.sample(range(fast.total_bits), 2)
                corrupted = codeword ^ (1 << first) ^ (1 << second)
                assert fast.decode(corrupted) == ref.decode(corrupted), (
                    f"double-bit flip at ({first}, {second}) of word {word:#x}"
                )

    def test_batch_apis_match_scalar(self, fast_cls, ref_cls):
        fast, ref = fast_cls(), ref_cls()
        words = sample_words(fast.data_bits)
        codewords = fast.encode_many(words)
        assert codewords == [ref.encode(word) for word in words]
        rng = random.Random(5)
        corrupted = [
            codeword ^ (1 << rng.randrange(fast.total_bits))
            for codeword in codewords
        ]
        assert fast.decode_many(corrupted) == [ref.decode(c) for c in corrupted]
        # The reference classes inherit the generic batch implementation.
        assert ref.encode_many(words) == codewords

    def test_batch_decode_multi_bit_identical(self, fast_cls, ref_cls):
        """Randomized codeword arrays with 0–4 flips per word.

        The batched replay backend triages SECDED-correctable flips
        analytically and leans on ``decode_many`` for everything else,
        so the batch path must agree with the scalar reference codec on
        multi-bit (detect-but-uncorrectable, and for plain Hamming
        miscorrected) patterns too — not just the single-flip campaign
        common case.
        """
        fast, ref = fast_cls(), ref_cls()
        rng = random.Random(77)
        corrupted = []
        for word in sample_words(fast.data_bits, count=40, seed=7):
            codeword = ref.encode(word)
            flips = rng.randrange(5)
            for position in rng.sample(range(fast.total_bits), flips):
                codeword ^= 1 << position
            corrupted.append(codeword)
        batch = fast.decode_many(corrupted)
        assert batch == [ref.decode(c) for c in corrupted]
        # The sample must actually exercise the uncorrectable branch:
        # parity detects every odd-weight flip, SECDED every double.
        # (Hamming is excluded — double errors usually miscorrect, which
        # is exactly why the paper's caches don't use it.)
        if fast_cls is not HammingSecCode:
            from repro.ecc.codec import DecodeStatus

            statuses = {result.status for result in batch}
            assert DecodeStatus.DETECTED_UNCORRECTABLE in statuses

    def test_batch_apis_are_the_scalar_paths(self, fast_cls, ref_cls):
        # One implementation of each code's math: the batch entry points
        # are the base-class loop over encode/decode, never an override.
        from repro.ecc.codec import EccCode

        assert fast_cls.encode_many is EccCode.encode_many
        assert fast_cls.decode_many is EccCode.decode_many

    def test_batch_apis_validate_range(self, fast_cls, ref_cls):
        fast = fast_cls()
        with pytest.raises(ValueError):
            fast.encode_many([0, 1 << fast.data_bits])
        with pytest.raises(ValueError):
            fast.decode_many([0, 1 << fast.total_bits])

    def test_smaller_width_equivalence(self, fast_cls, ref_cls):
        fast, ref = fast_cls(16), ref_cls(16)
        for word in sample_words(16, count=8):
            codeword = ref.encode(word)
            assert fast.encode(word) == codeword
            for position in range(fast.total_bits):
                corrupted = codeword ^ (1 << position)
                assert fast.decode(corrupted) == ref.decode(corrupted)


class TestCampaignEquivalence:
    """The seeded campaign must report identical trials on both codecs."""

    @pytest.mark.parametrize("name", sorted(REFERENCE_CODES))
    @pytest.mark.parametrize("flips", [1, 2])
    def test_campaign_records_identical(self, name, flips):
        fast = {"parity": ParityCode, "hamming": HammingSecCode,
                "secded": HsiaoSecDedCode}[name]()
        ref = REFERENCE_CODES[name]()
        model = FaultModel(multiplicity_weights={flips: 1.0})
        fast_report = FaultInjector(fast, rng=random.Random(2019)).run_campaign(
            trials=300, fault_model=model
        )
        ref_report = FaultInjector(ref, rng=random.Random(2019)).run_campaign(
            trials=300, fault_model=model
        )
        assert [
            (r.data, tuple(r.flipped_bits), r.status, r.outcome)
            for r in fast_report.records
        ] == [
            (r.data, tuple(r.flipped_bits), r.status, r.outcome)
            for r in ref_report.records
        ]


class TestRngThreading:
    """Explicit RNG instances: reproducible and parallel-safe."""

    def test_same_seed_same_report(self):
        code = HsiaoSecDedCode()
        first = FaultInjector(code, seed=7).run_campaign(trials=200)
        second = FaultInjector(code, rng=random.Random(7)).run_campaign(trials=200)
        assert [
            (r.data, tuple(r.flipped_bits), r.outcome) for r in first.records
        ] == [(r.data, tuple(r.flipped_bits), r.outcome) for r in second.records]

    def test_interleaved_injectors_are_independent(self):
        """Two injectors with private RNGs do not perturb each other —
        the property that makes per-worker campaigns safe."""
        sequential = FaultInjector(ParityCode(), seed=11).run_campaign(trials=120)

        first = FaultInjector(ParityCode(), rng=random.Random(11))
        second = FaultInjector(HsiaoSecDedCode(), rng=random.Random(11))
        interleaved_records = []
        for _ in range(4):
            interleaved_records.extend(first.run_campaign(trials=30).records)
            second.run_campaign(trials=17)  # noise on a different stream
        assert [
            (r.data, tuple(r.flipped_bits), r.outcome)
            for r in interleaved_records
        ] == [
            (r.data, tuple(r.flipped_bits), r.outcome) for r in sequential.records
        ]

    def test_global_random_state_untouched(self):
        random.seed(1234)
        expected = random.random()
        random.seed(1234)
        FaultInjector(HsiaoSecDedCode(), seed=3).run_campaign(trials=64)
        assert random.random() == expected
