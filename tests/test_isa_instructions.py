"""Tests for instruction classification and def/use extraction."""

from repro.isa.assembler import assemble
from repro.isa.instructions import MEMORY_ACCESS_BYTES, Instruction, InstructionClass


def _single(source_line: str) -> Instruction:
    program = assemble(f"main:\n    {source_line}\n    halt\n")
    return program.instructions[0]


def _width(source_line: str) -> int:
    return MEMORY_ACCESS_BYTES.get(_single(source_line).mnemonic, 0)


class TestClassification:
    def test_alu_class(self):
        assert _single("add r1, r2, r3").klass is InstructionClass.ALU
        assert _single("xor r1, 5, r3").klass is InstructionClass.ALU

    def test_memory_classes(self):
        assert _single("ld [r1], r2").klass is InstructionClass.LOAD
        assert _single("st r2, [r1]").klass is InstructionClass.STORE

    def test_control_classes(self):
        assert _single("ba main").klass is InstructionClass.BRANCH
        assert _single("call main").klass is InstructionClass.CALL
        assert _single("jmpl r31, 0, r0").klass is InstructionClass.JUMP

    def test_mul_div_classes(self):
        assert _single("smul r1, r2, r3").klass is InstructionClass.MUL
        assert _single("udiv r1, r2, r3").klass is InstructionClass.DIV

    def test_memory_access_width(self):
        assert _width("ld [r1], r2") == 4
        assert _width("lduh [r1], r2") == 2
        assert _width("ldub [r1], r2") == 1
        assert _width("add r1, r2, r3") == 0


class TestDefUse:
    def test_alu_sources_and_destination(self):
        instr = _single("add r1, r2, r3")
        assert instr.source_registers() == (1, 2)
        assert instr.destination_register() == 3

    def test_immediate_form_has_single_source(self):
        instr = _single("add r1, 9, r3")
        assert instr.source_registers() == (1,)

    def test_zero_register_excluded(self):
        instr = _single("add r0, r0, r0")
        assert instr.source_registers() == ()
        assert instr.destination_register() is None

    def test_load_address_registers(self):
        displacement = _single("ld [r4+8], r2")
        indexed = _single("ld [r4+r6], r2")
        assert displacement.address_registers() == (4,)
        assert indexed.address_registers() == (4, 6)

    def test_store_sources_include_data_register(self):
        store = _single("st r7, [r4+8]")
        assert set(store.source_registers()) == {4, 7}
        # But the *address* registers exclude the stored data.
        assert store.address_registers() == (4,)
        assert store.destination_register() is None

    def test_branch_reads_condition_codes(self):
        assert _single("bne main").reads_condition_codes
        assert not _single("ba main").reads_condition_codes

    def test_cc_setting_instructions(self):
        assert _single("subcc r1, r2, r0").sets_condition_codes
        assert not _single("sub r1, r2, r0").sets_condition_codes

    def test_non_memory_has_no_address_registers(self):
        assert _single("add r1, r2, r3").address_registers() == ()


class TestRendering:
    def test_render_alu(self):
        assert _single("add r1, r2, r3").render() == "add r1, r2, r3"

    def test_render_load_store(self):
        assert _single("ld [r1+4], r2").render() == "ld [r1+4], r2"
        assert _single("st r2, [r1]").render() == "st r2, [r1]"

    def test_render_set(self):
        assert _single("set 255, r9").render() == "set 0xff, r9"
