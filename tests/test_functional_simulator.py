"""Tests for the reference (object) interpreter's architectural semantics.

The production interpreter is pinned to it column by column in
``tests/test_batched_replay.py::TestLeanGoldenPass``.
"""

import pytest

from repro.functional.memory import FlatMemory, MemoryAccessError
from repro.functional.interpreter import ExecutionLimitExceeded
from repro.functional.reference import FunctionalSimulator, run_reference
from repro.isa.assembler import assemble
from repro.isa.instructions import InstructionClass


def _run(source: str, **kwargs):
    return run_reference(assemble(source), **kwargs)


class TestFlatMemory:
    def test_default_zero(self):
        memory = FlatMemory()
        assert memory.read_word(0x1000) == 0

    def test_word_round_trip(self):
        memory = FlatMemory()
        memory.write_word(0x2000, 0xCAFEBABE)
        assert memory.read_word(0x2000) == 0xCAFEBABE

    def test_little_endian_layout(self):
        memory = FlatMemory()
        memory.write_word(0x100, 0x11223344)
        assert memory.read_byte(0x100) == 0x44
        assert memory.read_byte(0x103) == 0x11

    def test_misaligned_access_rejected(self):
        memory = FlatMemory()
        with pytest.raises(MemoryAccessError):
            memory.read(0x101, 4)
        with pytest.raises(MemoryAccessError):
            memory.write(0x102, 1, 4)

    def test_halfword_and_byte(self):
        memory = FlatMemory()
        memory.write(0x200, 0xBEEF, 2)
        memory.write(0x204, 0xAB, 1)
        assert memory.read(0x200, 2) == 0xBEEF
        assert memory.read(0x204, 1) == 0xAB


class TestArithmetic:
    def test_add_sub_results(self):
        trace = _run(
            """
            main:
                set 40, r1
                add r1, 2, r2
                sub r2, 7, r3
                halt
            """
        )
        assert trace[1].value == 42
        assert trace[2].value == 35

    def test_condition_codes_drive_branches(self):
        trace = _run(
            """
            main:
                set 3, r1
            loop:
                subcc r1, 1, r1
                bg loop
                halt
            """
        )
        # 3 iterations of (subcc, bg) plus set and halt.
        assert len(trace) == 1 + 3 * 2 + 1
        taken = [d for d in trace if d.instruction.is_branch and d.branch_taken]
        assert len(taken) == 2

    def test_signed_comparison_branches(self):
        trace = _run(
            """
            main:
                set 5, r1
                set 9, r2
                cmp r1, r2
                bl smaller
                set 0, r3
                halt
            smaller:
                set 1, r3
                halt
            """
        )
        assert trace[-2].value == 1  # the "set 1, r3" before halt

    def test_multiplication_and_shifts(self):
        trace = _run(
            """
            main:
                set 6, r1
                set -3, r2
                smul r1, r2, r3
                sll r1, 4, r4
                sra r2, 1, r5
                srl r2, 28, r6
                halt
            """
        )
        values = {d.instruction.rd: d.value for d in trace if d.instruction.rd}
        assert values[3] == (-18) & 0xFFFFFFFF
        assert values[4] == 96
        assert values[5] == (-2) & 0xFFFFFFFF
        assert values[6] == 0xF

    def test_division_by_zero_is_defined(self):
        trace = _run(
            """
            main:
                set 10, r1
                udiv r1, r0, r2
                halt
            """
        )
        assert trace[1].value == 0xFFFFFFFF


class TestMemoryInstructions:
    def test_load_store_round_trip(self):
        trace = _run(
            """
            .data
            cell:
                .word 0
            .text
            main:
                set cell, r1
                set 123, r2
                st r2, [r1]
                ld [r1], r3
                halt
            """
        )
        load = trace[3]
        assert load.is_load and load.value == 123

    def test_byte_and_half_access_with_sign_extension(self):
        trace = _run(
            """
            .data
            bytes:
                .byte 0xF0, 0x7F
            halves:
                .half 0x8000
            .text
            main:
                set bytes, r1
                ldub [r1], r2
                ldsb [r1], r3
                set halves, r4
                ldsh [r4], r5
                lduh [r4], r6
                halt
            """
        )
        values = {d.instruction.rd: d.value for d in trace if d.is_load}
        assert values[2] == 0xF0
        assert values[3] == 0xFFFFFFF0
        assert values[5] == 0xFFFF8000
        assert values[6] == 0x8000

    def test_effective_addresses_recorded(self):
        trace = _run(
            """
            .data
            arr:
                .word 1, 2, 3, 4
            .text
            main:
                set arr, r1
                ld [r1+8], r2
                halt
            """
        )
        load = trace[1]
        assert load.address == trace[0].value + 8
        assert load.size == 4


class TestControlFlow:
    def test_call_and_return(self):
        trace = _run(
            """
            main:
                call helper
                set 7, r2
                halt
            helper:
                set 5, r1
                ret
            """
        )
        executed = [d.instruction.render() for d in trace]
        assert "set 0x5, r1" in executed
        assert executed[-2] == "set 0x7, r2"

    def test_execution_limit(self):
        with pytest.raises(ExecutionLimitExceeded):
            _run("main:\n    ba main\n", max_instructions=100)

    def test_stack_pointer_initialised(self):
        program = assemble("main:\n    halt\n")
        simulator = FunctionalSimulator(program)
        assert simulator.registers.read(14) == program.stack_top


class TestTraceStatistics:
    def test_counts(self, tiny_trace):
        assert len(tiny_trace) == len(tiny_trace.instructions)
        assert tiny_trace.load_count == 8
        assert tiny_trace.count_class(InstructionClass.STORE) == 8
        assert 0 < tiny_trace.load_fraction < 1
        assert sum(address is not None for address in tiny_trace.addresses) == 16
        assert tiny_trace.halted
