"""Tests for the parity, Hamming and Hsiao SECDED codes."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.ecc.hamming import HammingSecCode
from repro.ecc.parity import ParityCode
from repro.ecc.secded import HsiaoSecDedCode
from repro.ecc.codec import DecodeStatus

words = st.integers(min_value=0, max_value=0xFFFFFFFF)


def flip(codeword, positions):
    """``codeword`` with the given bit positions flipped."""
    for position in positions:
        codeword ^= 1 << position
    return codeword


def roundtrip(code, data):
    """Encode then decode ``data`` (always CLEAN for a working code)."""
    return code.decode(code.encode(data))


class TestParity:
    def test_clean_round_trip(self):
        code = ParityCode()
        result = roundtrip(code, 0x12345678)
        assert result.status is DecodeStatus.CLEAN
        assert result.data == 0x12345678

    def test_single_flip_detected(self):
        code = ParityCode()
        codeword = code.encode(0xA5A5A5A5)
        corrupted = flip(codeword, [7])
        assert code.decode(corrupted).status is DecodeStatus.DETECTED_UNCORRECTABLE

    def test_double_flip_escapes_detection(self):
        code = ParityCode()
        codeword = code.encode(0xA5A5A5A5)
        corrupted = flip(codeword, [3, 17])
        # Even number of flips is invisible to parity (and data is wrong).
        result = code.decode(corrupted)
        assert result.status is DecodeStatus.CLEAN
        assert result.data != 0xA5A5A5A5

    def test_odd_parity_variant(self):
        code = ParityCode(even=False)
        assert roundtrip(code, 0).status is DecodeStatus.CLEAN

    @given(words)
    def test_parity_bit_matches_popcount(self, data):
        code = ParityCode()
        parity_bit = code.encode(data) >> 32
        assert parity_bit == bin(data).count("1") % 2

    def test_storage_overhead(self):
        code = ParityCode()
        assert (code.data_bits, code.check_bits, code.total_bits) == (32, 1, 33)


class TestHamming:
    def test_geometry(self):
        code = HammingSecCode()
        assert code.data_bits == 32
        assert code.check_bits == 6

    @given(words)
    @settings(max_examples=50)
    def test_clean_round_trip(self, data):
        assert roundtrip(HammingSecCode(), data).status is DecodeStatus.CLEAN

    @given(words, st.integers(min_value=0, max_value=37))
    @settings(max_examples=50)
    def test_single_error_corrected(self, data, bit):
        code = HammingSecCode()
        corrupted = flip(code.encode(data), [bit])
        result = code.decode(corrupted)
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == data

    def test_double_error_is_not_reliable(self):
        # Plain Hamming SEC mis-corrects most double errors: that is the
        # documented reason the paper's DL1 uses SECDED instead.
        code = HammingSecCode()
        data = 0x0F0F0F0F
        corrupted = flip(code.encode(data), [0, 1])
        result = code.decode(corrupted)
        assert result.data != data or result.status is not DecodeStatus.CLEAN


class TestHsiaoSecDed:
    def test_geometry_39_32(self):
        code = HsiaoSecDedCode()
        assert code.total_bits == 39
        assert code.check_bits == 7

    def test_columns_are_odd_weight_and_unique(self):
        code = HsiaoSecDedCode()
        columns = code._data_columns
        assert len(set(columns)) == 32
        assert all(bin(column).count("1") % 2 == 1 for column in columns)

    @given(words)
    @settings(max_examples=50)
    def test_clean_round_trip(self, data):
        assert roundtrip(HsiaoSecDedCode(), data).status is DecodeStatus.CLEAN

    @given(words, st.integers(min_value=0, max_value=38))
    @settings(max_examples=80)
    def test_every_single_error_corrected(self, data, bit):
        code = HsiaoSecDedCode()
        corrupted = flip(code.encode(data), [bit])
        result = code.decode(corrupted)
        assert result.status is DecodeStatus.CORRECTED
        assert result.data == data

    @given(
        words,
        st.lists(
            st.integers(min_value=0, max_value=38), min_size=2, max_size=2, unique=True
        ),
    )
    @settings(max_examples=80)
    def test_every_double_error_detected_not_miscorrected(self, data, bits):
        code = HsiaoSecDedCode()
        corrupted = flip(code.encode(data), bits)
        result = code.decode(corrupted)
        assert result.status is DecodeStatus.DETECTED_UNCORRECTABLE

    def test_exhaustive_single_and_double_for_one_word(self):
        code = HsiaoSecDedCode()
        data = 0xDEADBEEF
        codeword = code.encode(data)
        for bit in range(code.total_bits):
            assert code.decode(codeword ^ (1 << bit)).data == data
        for first in range(code.total_bits):
            for second in range(first + 1, code.total_bits):
                corrupted = codeword ^ (1 << first) ^ (1 << second)
                assert (
                    code.decode(corrupted).status
                    is DecodeStatus.DETECTED_UNCORRECTABLE
                )

    def test_out_of_range_data_rejected(self):
        with pytest.raises(ValueError):
            HsiaoSecDedCode().encode(1 << 32)

    def test_out_of_range_codeword_rejected(self):
        with pytest.raises(ValueError):
            HsiaoSecDedCode().decode(1 << 39)
