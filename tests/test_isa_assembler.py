"""Tests for the two-pass assembler and the program container."""

import pytest

from repro.isa.assembler import AssemblerError, assemble
from repro.isa.instructions import InstructionClass, Mnemonic
from repro.isa.program import DATA_BASE, TEXT_BASE


def test_basic_instruction_encoding():
    program = assemble(
        """
        .text
        main:
            add r1, r2, r3
            sub r4, 10, r5
            nop
            halt
        """
    )
    instructions = program.instructions
    assert len(instructions) == 4
    assert instructions[0].mnemonic is Mnemonic.ADD
    assert (instructions[0].rs1, instructions[0].rs2, instructions[0].rd) == (1, 2, 3)
    assert not instructions[0].uses_imm
    assert instructions[1].uses_imm and instructions[1].imm == 10
    assert instructions[2].klass is InstructionClass.NOP


def test_addresses_are_sequential_words():
    program = assemble("main:\n    nop\n    nop\n    halt\n")
    addresses = [i.address for i in program.instructions]
    assert addresses == [TEXT_BASE, TEXT_BASE + 4, TEXT_BASE + 8]


def test_memory_operand_forms():
    program = assemble(
        """
        main:
            ld [r1], r2
            ld [r1+8], r3
            ld [r1-4], r4
            ld [r1+r5], r6
            st r2, [r7+12]
            halt
        """
    )
    load_plain, load_disp, load_neg, load_indexed, store = program.instructions[:5]
    assert load_plain.imm == 0 and load_plain.uses_imm
    assert load_disp.imm == 8
    assert load_neg.imm == -4
    assert not load_indexed.uses_imm and load_indexed.rs2 == 5
    assert store.rd == 2 and store.rs1 == 7 and store.imm == 12


def test_labels_and_branch_displacement():
    program = assemble(
        """
        main:
            set 3, r1
        loop:
            subcc r1, 1, r1
            bg loop
            halt
        """
    )
    branch = program.instructions[2]
    assert branch.target_label == "loop"
    # Branch at TEXT_BASE+8, loop label at TEXT_BASE+4.
    assert branch.imm == -4
    assert program.symbols["loop"] == TEXT_BASE + 4


def test_data_directives_and_symbols():
    program = assemble(
        """
        .data
        table:
            .word 1, 2, 3
        bytes:
            .byte 4, 5
        halves:
            .half 6
        gap:
            .space 8
        aligned:
            .align 4
            .word 7
        .text
        main:
            halt
        """
    )
    assert program.symbols["table"] == DATA_BASE
    assert program.symbols["bytes"] == DATA_BASE + 12
    assert program.symbols["halves"] == DATA_BASE + 14
    assert program.data.read_word(DATA_BASE) == 1
    assert program.data.read_word(DATA_BASE + 8) == 3
    # aligned word lands on the next 4-byte boundary after 14 + 2 + 8 = 24.
    assert program.data.read_word(program.symbols["aligned"]) == 7


def test_set_resolves_symbols():
    program = assemble(
        """
        .data
        buffer:
            .word 0
        .text
        main:
            set buffer, r1
            halt
        """
    )
    assert program.instructions[0].imm == DATA_BASE


def test_pseudo_instructions_expand():
    program = assemble(
        """
        main:
            mov 5, r1
            cmp r1, 3
            inc r1
            dec r1
            clr r2
            ret
            halt
        """
    )
    mnemonics = [i.mnemonic for i in program.instructions]
    assert mnemonics[0] is Mnemonic.OR
    assert mnemonics[1] is Mnemonic.SUBCC and program.instructions[1].rd == 0
    assert mnemonics[2] is Mnemonic.ADD
    assert mnemonics[3] is Mnemonic.SUB
    assert mnemonics[5] is Mnemonic.JMPL


def test_call_writes_link_register():
    program = assemble(
        """
        main:
            call helper
            halt
        helper:
            ret
        """
    )
    call = program.instructions[0]
    assert call.klass is InstructionClass.CALL
    assert call.rd == 31


def test_entry_defaults_to_main():
    program = assemble(
        """
        helper:
            nop
        main:
            halt
        """
    )
    assert program.entry == TEXT_BASE + 4


def test_duplicate_label_rejected():
    with pytest.raises(AssemblerError):
        assemble("a:\n    nop\na:\n    halt\n")


def test_unknown_mnemonic_rejected():
    with pytest.raises(AssemblerError):
        assemble("main:\n    frobnicate r1, r2, r3\n")


def test_data_directive_in_text_rejected():
    with pytest.raises(AssemblerError):
        assemble(".text\n    .word 5\n")


def test_unknown_symbol_rejected():
    with pytest.raises(AssemblerError):
        assemble("main:\n    set missing_symbol, r1\n    halt\n")


def test_comments_are_ignored():
    program = assemble(
        """
        main:            ; entry point
            nop          # a comment
            halt         ! another comment style
        """
    )
    assert len(program.instructions) == 2
