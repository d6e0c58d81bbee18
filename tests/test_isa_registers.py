"""Tests for register naming, and for the reference interpreter's register
file and condition codes."""

import pytest
from hypothesis import given, strategies as st

from repro.isa.registers import RegisterError, register_name, register_number

from oracles.isa import ConditionCodes, RegisterFile, to_signed, to_unsigned


class TestRegisterNaming:
    def test_plain_names(self):
        assert register_number("r0") == 0
        assert register_number("r31") == 31
        assert register_number("R7") == 7

    def test_aliases(self):
        assert register_number("sp") == 14
        assert register_number("fp") == 30
        assert register_number("lr") == 31
        assert register_number("zero") == 0

    def test_unknown_register_raises(self):
        with pytest.raises(RegisterError):
            register_number("r32")
        with pytest.raises(RegisterError):
            register_number("x5")

    def test_round_trip_names(self):
        for number in range(32):
            assert register_number(register_name(number)) == number

    def test_alias_preference(self):
        assert register_name(14, prefer_alias=True) == "sp"
        assert register_name(14) == "r14"

    def test_out_of_range_name(self):
        with pytest.raises(RegisterError):
            register_name(32)


class TestRegisterFile:
    def test_r0_is_hardwired_zero(self):
        rf = RegisterFile()
        rf.write(0, 12345)
        assert rf.read(0) == 0

    def test_write_and_read(self):
        rf = RegisterFile()
        rf.write(5, 0xDEADBEEF)
        assert rf.read(5) == 0xDEADBEEF

    def test_values_truncated_to_32_bits(self):
        rf = RegisterFile()
        rf.write(3, 1 << 40 | 7)
        assert rf.read(3) == 7

    def test_out_of_range_access(self):
        rf = RegisterFile()
        with pytest.raises(RegisterError):
            rf.read(40)
        with pytest.raises(RegisterError):
            rf.write(-1, 0)


class TestConditionCodes:
    def test_logical_update(self):
        cc = ConditionCodes()
        cc.update_logical(0)
        assert cc.zero and not cc.negative
        cc.update_logical(0x80000000)
        assert cc.negative and not cc.zero

    def test_arithmetic_update_flags(self):
        cc = ConditionCodes()
        cc.update_arithmetic(0, carry=True, overflow=True)
        assert cc.zero and cc.carry and cc.overflow

    def test_copy_is_independent(self):
        cc = ConditionCodes(zero=True)
        copy = cc.copy()
        copy.zero = False
        assert cc.zero


class TestSignConversions:
    @given(st.integers(min_value=0, max_value=0xFFFFFFFF))
    def test_signed_unsigned_round_trip(self, value):
        assert to_unsigned(to_signed(value)) == value

    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1))
    def test_to_signed_range(self, value):
        assert to_signed(to_unsigned(value)) == value
