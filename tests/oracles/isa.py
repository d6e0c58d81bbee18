"""The ISA state and accessors only the reference interpreter uses.

The reference interpreter (:mod:`oracles.functional`) keeps the
architectural registers in a :class:`RegisterFile` and the integer
condition codes in :class:`ConditionCodes`, looks each instruction up
by address with :func:`instruction_at` and sizes memory accesses with
:func:`memory_bytes`; the production interpreter
(:mod:`repro.functional.interpreter`) keeps registers and codes in flat
lists and decodes each program once into its own table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.isa.instructions import MEMORY_ACCESS_BYTES, Instruction
from repro.isa.program import Program, ProgramError
from repro.isa.registers import REGISTER_COUNT, ZERO_REGISTER, RegisterError

WORD_MASK = 0xFFFFFFFF
SIGN_BIT = 0x80000000


def to_unsigned(value: int) -> int:
    """Truncate ``value`` to an unsigned 32-bit integer."""
    return value & WORD_MASK


def to_signed(value: int) -> int:
    """Interpret the low 32 bits of ``value`` as a signed integer."""
    value &= WORD_MASK
    if value & SIGN_BIT:
        return value - (1 << 32)
    return value


@dataclass
class ConditionCodes:
    """SPARC-style integer condition codes (negative, zero, overflow, carry)."""

    negative: bool = False
    zero: bool = False
    overflow: bool = False
    carry: bool = False

    def update_arithmetic(self, result: int, carry: bool, overflow: bool) -> None:
        """Set the codes from a 33-bit arithmetic ``result`` and flags."""
        value = to_unsigned(result)
        self.negative = bool(value & SIGN_BIT)
        self.zero = value == 0
        self.overflow = overflow
        self.carry = carry

    def update_logical(self, result: int) -> None:
        """Set the codes from a logical operation (carry/overflow cleared)."""
        value = to_unsigned(result)
        self.negative = bool(value & SIGN_BIT)
        self.zero = value == 0
        self.overflow = False
        self.carry = False

    def copy(self) -> "ConditionCodes":
        return ConditionCodes(self.negative, self.zero, self.overflow, self.carry)


@dataclass
class RegisterFile:
    """A 32-entry integer register file with a hard-wired zero register."""

    values: List[int] = field(default_factory=lambda: [0] * REGISTER_COUNT)

    def read(self, number: int) -> int:
        if not 0 <= number < REGISTER_COUNT:
            raise RegisterError(f"register number out of range: {number}")
        if number == ZERO_REGISTER:
            return 0
        return self.values[number]

    def write(self, number: int, value: int) -> None:
        if not 0 <= number < REGISTER_COUNT:
            raise RegisterError(f"register number out of range: {number}")
        if number == ZERO_REGISTER:
            return
        self.values[number] = to_unsigned(value)

    def snapshot(self) -> List[int]:
        """Return a copy of the architectural register values."""
        return list(self.values)

    def reset(self) -> None:
        self.values = [0] * REGISTER_COUNT


def memory_bytes(instruction: Instruction) -> int:
    """Access width in bytes for memory instructions (0 otherwise)."""
    return MEMORY_ACCESS_BYTES.get(instruction.mnemonic, 0)


def _by_address(program: Program) -> Dict[int, Instruction]:
    """The program's instructions by byte address, built on first use."""
    table = program.__dict__.get("_by_address")
    if table is None:
        table = program.__dict__["_by_address"] = {
            instr.address: instr for instr in program.instructions
        }
    return table


def instruction_at(program: Program, address: int) -> Instruction:
    """Return the instruction located at byte ``address``."""
    instr = _by_address(program).get(address)
    if instr is None:
        raise ProgramError(f"no instruction at address {address:#x}")
    return instr


def has_instruction_at(program: Program, address: int) -> bool:
    return address in _by_address(program)
