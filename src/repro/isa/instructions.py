"""Instruction definitions for the mini SPARC-V8-like ISA.

Every architectural instruction occupies 4 bytes.  Instructions are kept
as decoded :class:`Instruction` records rather than binary encodings: the
timing model only needs the operand/def-use structure, the class of the
operation and, for memory operations, the addressing operands.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.isa.registers import ZERO_REGISTER, register_name

INSTRUCTION_BYTES = 4

REGISTER_COUNT = 32


class InstructionClass(enum.Enum):
    """Coarse functional class used by the hazard and timing logic."""

    ALU = "alu"
    MUL = "mul"
    DIV = "div"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    CALL = "call"
    JUMP = "jump"
    NOP = "nop"
    HALT = "halt"

    @property
    def is_memory(self) -> bool:
        return self in (InstructionClass.LOAD, InstructionClass.STORE)

    @property
    def is_control(self) -> bool:
        return self in (
            InstructionClass.BRANCH,
            InstructionClass.CALL,
            InstructionClass.JUMP,
        )


class Mnemonic(enum.Enum):
    """All mnemonics understood by the assembler and simulators."""

    # Arithmetic / logic (3-operand, optional condition-code update).
    ADD = "add"
    ADDCC = "addcc"
    SUB = "sub"
    SUBCC = "subcc"
    AND = "and"
    ANDCC = "andcc"
    OR = "or"
    ORCC = "orcc"
    XOR = "xor"
    XORCC = "xorcc"
    SLL = "sll"
    SRL = "srl"
    SRA = "sra"
    SMUL = "smul"
    UMUL = "umul"
    SDIV = "sdiv"
    UDIV = "udiv"
    # Immediate materialisation (full 32-bit constant in one instruction).
    SET = "set"
    # Loads.
    LD = "ld"
    LDUB = "ldub"
    LDSB = "ldsb"
    LDUH = "lduh"
    LDSH = "ldsh"
    # Stores.
    ST = "st"
    STB = "stb"
    STH = "sth"
    # Control transfer.
    BA = "ba"
    BN = "bn"
    BE = "be"
    BNE = "bne"
    BG = "bg"
    BLE = "ble"
    BGE = "bge"
    BL = "bl"
    BGU = "bgu"
    BLEU = "bleu"
    BCC = "bcc"
    BCS = "bcs"
    BPOS = "bpos"
    BNEG = "bneg"
    BVC = "bvc"
    BVS = "bvs"
    CALL = "call"
    JMPL = "jmpl"
    # Misc.
    NOP = "nop"
    HALT = "halt"

    # Members are singletons compared by identity, so the identity hash
    # fits and skips ``Enum.__hash__``'s Python-level call on every
    # ``mnemonic in <frozenset>`` test.  (That hash is the name's str
    # hash, randomised per process, so no output relied on set order.)
    __hash__ = object.__hash__


ALU_MNEMONICS = frozenset(
    {
        Mnemonic.ADD,
        Mnemonic.ADDCC,
        Mnemonic.SUB,
        Mnemonic.SUBCC,
        Mnemonic.AND,
        Mnemonic.ANDCC,
        Mnemonic.OR,
        Mnemonic.ORCC,
        Mnemonic.XOR,
        Mnemonic.XORCC,
        Mnemonic.SLL,
        Mnemonic.SRL,
        Mnemonic.SRA,
        Mnemonic.SET,
    }
)
CC_SETTING_MNEMONICS = frozenset(
    {
        Mnemonic.ADDCC,
        Mnemonic.SUBCC,
        Mnemonic.ANDCC,
        Mnemonic.ORCC,
        Mnemonic.XORCC,
    }
)
MUL_MNEMONICS = frozenset({Mnemonic.SMUL, Mnemonic.UMUL})
DIV_MNEMONICS = frozenset({Mnemonic.SDIV, Mnemonic.UDIV})
LOAD_MNEMONICS = frozenset(
    {Mnemonic.LD, Mnemonic.LDUB, Mnemonic.LDSB, Mnemonic.LDUH, Mnemonic.LDSH}
)
STORE_MNEMONICS = frozenset({Mnemonic.ST, Mnemonic.STB, Mnemonic.STH})
BRANCH_MNEMONICS = frozenset(
    {
        Mnemonic.BA,
        Mnemonic.BN,
        Mnemonic.BE,
        Mnemonic.BNE,
        Mnemonic.BG,
        Mnemonic.BLE,
        Mnemonic.BGE,
        Mnemonic.BL,
        Mnemonic.BGU,
        Mnemonic.BLEU,
        Mnemonic.BCC,
        Mnemonic.BCS,
        Mnemonic.BPOS,
        Mnemonic.BNEG,
        Mnemonic.BVC,
        Mnemonic.BVS,
    }
)

MEMORY_ACCESS_BYTES = {
    Mnemonic.LD: 4,
    Mnemonic.ST: 4,
    Mnemonic.LDUH: 2,
    Mnemonic.LDSH: 2,
    Mnemonic.STH: 2,
    Mnemonic.LDUB: 1,
    Mnemonic.LDSB: 1,
    Mnemonic.STB: 1,
}


def classify(mnemonic: Mnemonic) -> InstructionClass:
    """Map a mnemonic to its :class:`InstructionClass`."""
    if mnemonic in ALU_MNEMONICS:
        return InstructionClass.ALU
    if mnemonic in MUL_MNEMONICS:
        return InstructionClass.MUL
    if mnemonic in DIV_MNEMONICS:
        return InstructionClass.DIV
    if mnemonic in LOAD_MNEMONICS:
        return InstructionClass.LOAD
    if mnemonic in STORE_MNEMONICS:
        return InstructionClass.STORE
    if mnemonic in BRANCH_MNEMONICS:
        return InstructionClass.BRANCH
    if mnemonic is Mnemonic.CALL:
        return InstructionClass.CALL
    if mnemonic is Mnemonic.JMPL:
        return InstructionClass.JUMP
    if mnemonic is Mnemonic.NOP:
        return InstructionClass.NOP
    if mnemonic is Mnemonic.HALT:
        return InstructionClass.HALT
    raise ValueError(f"unclassifiable mnemonic: {mnemonic}")


@dataclass(frozen=True)
class Instruction:
    """A decoded static instruction.

    Operand conventions:

    * ALU / MUL / DIV: ``rd <- rs1 op (rs2 | imm)``.
    * ``set``: ``rd <- imm`` (``rs1``/``rs2`` unused).
    * loads:  ``rd <- MEM[rs1 + (rs2 | imm)]``.
    * stores: ``MEM[rs1 + (rs2 | imm)] <- rd`` (``rd`` is a *source*).
    * branches: ``imm`` holds the byte displacement to the target once the
      assembler has resolved ``target_label``.
    * ``call``: writes the return address to ``rd`` (the link register).
    * ``jmpl``: jumps to ``rs1 + imm`` and writes the return address to
      ``rd`` (``rd = r0`` for a plain return).
    """

    mnemonic: Mnemonic
    rd: int = ZERO_REGISTER
    rs1: int = ZERO_REGISTER
    rs2: int = ZERO_REGISTER
    imm: int = 0
    uses_imm: bool = True
    target_label: Optional[str] = None
    address: int = 0
    source_line: int = 0
    text: str = ""

    @property
    def klass(self) -> InstructionClass:
        return classify(self.mnemonic)

    @property
    def is_load(self) -> bool:
        return self.mnemonic in LOAD_MNEMONICS

    @property
    def is_store(self) -> bool:
        return self.mnemonic in STORE_MNEMONICS

    @property
    def is_branch(self) -> bool:
        return self.mnemonic in BRANCH_MNEMONICS

    @property
    def is_control(self) -> bool:
        return self.klass.is_control

    @property
    def sets_condition_codes(self) -> bool:
        return self.mnemonic in CC_SETTING_MNEMONICS

    @property
    def reads_condition_codes(self) -> bool:
        return self.is_branch and self.mnemonic not in (Mnemonic.BA, Mnemonic.BN)

    def source_registers(self) -> Tuple[int, ...]:
        """Architectural registers read by this instruction (r0 excluded)."""
        klass = self.klass
        sources = []
        if klass in (
            InstructionClass.ALU,
            InstructionClass.MUL,
            InstructionClass.DIV,
        ):
            if self.mnemonic is not Mnemonic.SET:
                sources.append(self.rs1)
                if not self.uses_imm:
                    sources.append(self.rs2)
        elif klass is InstructionClass.LOAD:
            sources.append(self.rs1)
            if not self.uses_imm:
                sources.append(self.rs2)
        elif klass is InstructionClass.STORE:
            sources.append(self.rs1)
            if not self.uses_imm:
                sources.append(self.rs2)
            sources.append(self.rd)
        elif klass is InstructionClass.JUMP:
            sources.append(self.rs1)
        return tuple(sorted({r for r in sources if r != ZERO_REGISTER}))

    def address_registers(self) -> Tuple[int, ...]:
        """Registers used to *form the effective address* (memory ops only).

        This is the register set the LAEC look-ahead unit must check for a
        data hazard with the preceding instruction: the loaded/stored data
        register of a store is not part of address formation.
        """
        if not self.klass.is_memory:
            return ()
        registers = [self.rs1]
        if not self.uses_imm:
            registers.append(self.rs2)
        return tuple(sorted({r for r in registers if r != ZERO_REGISTER}))

    def destination_register(self) -> Optional[int]:
        """Architectural register written by this instruction, if any."""
        klass = self.klass
        if klass in (
            InstructionClass.ALU,
            InstructionClass.MUL,
            InstructionClass.DIV,
            InstructionClass.LOAD,
        ):
            return self.rd if self.rd != ZERO_REGISTER else None
        if klass in (InstructionClass.CALL, InstructionClass.JUMP):
            return self.rd if self.rd != ZERO_REGISTER else None
        return None

    def render(self) -> str:
        """Render an assembly-like textual form (the chronogram labels)."""
        name = self.mnemonic.value
        if self.klass in (InstructionClass.NOP, InstructionClass.HALT):
            return name
        if self.mnemonic is Mnemonic.SET:
            return f"{name} {self.imm:#x}, {register_name(self.rd)}"
        if self.is_load:
            return f"{name} [{self._address_operand()}], {register_name(self.rd)}"
        if self.is_store:
            return f"{name} {register_name(self.rd)}, [{self._address_operand()}]"
        if self.is_branch:
            target = self.target_label or f"{self.imm:+d}"
            return f"{name} {target}"
        if self.mnemonic is Mnemonic.CALL:
            target = self.target_label or f"{self.imm:#x}"
            return f"{name} {target}"
        if self.mnemonic is Mnemonic.JMPL:
            return (
                f"{name} {register_name(self.rs1)}+{self.imm}, "
                f"{register_name(self.rd)}"
            )
        operand2 = str(self.imm) if self.uses_imm else register_name(self.rs2)
        return (
            f"{name} {register_name(self.rs1)}, {operand2}, "
            f"{register_name(self.rd)}"
        )

    def _address_operand(self) -> str:
        base = register_name(self.rs1)
        if self.uses_imm:
            if self.imm == 0:
                return base
            return f"{base}{self.imm:+d}"
        return f"{base}+{register_name(self.rs2)}"

    def __str__(self) -> str:  # pragma: no cover - convenience only
        return self.render()
