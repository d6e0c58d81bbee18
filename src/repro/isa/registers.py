"""Register file and condition-code models.

The register file has 32 general-purpose 32-bit registers.  Register 0 is
hard-wired to zero (writes are silently discarded), mirroring SPARC's
``%g0``.  A handful of registers have conventional aliases used by the
assembler and the workload kernels:

========  =====  =========================================
alias     reg    role
========  =====  =========================================
``zero``  r0     constant zero
``sp``    r14    stack pointer
``fp``    r30    frame pointer
``lr``    r31    link register (written by ``call``)
========  =====  =========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

REGISTER_COUNT = 32
ZERO_REGISTER = 0
STACK_POINTER = 14
FRAME_POINTER = 30
LINK_REGISTER = 31

WORD_MASK = 0xFFFFFFFF
SIGN_BIT = 0x80000000

_ALIASES: Dict[str, int] = {
    "zero": ZERO_REGISTER,
    "sp": STACK_POINTER,
    "fp": FRAME_POINTER,
    "lr": LINK_REGISTER,
}
_REVERSE_ALIASES: Dict[int, str] = {number: name for name, number in _ALIASES.items()}


class RegisterError(ValueError):
    """Raised for malformed register names or out-of-range numbers."""


def register_number(name: str) -> int:
    """Return the register number for ``name`` (``"r7"``, ``"sp"``, ...)."""
    token = name.strip().lower()
    if token in _ALIASES:
        return _ALIASES[token]
    if token.startswith("r") and token[1:].isdigit():
        number = int(token[1:])
        if 0 <= number < REGISTER_COUNT:
            return number
    raise RegisterError(f"unknown register {name!r}")


def register_name(number: int, *, prefer_alias: bool = False) -> str:
    """Return the canonical name for register ``number``."""
    if not 0 <= number < REGISTER_COUNT:
        raise RegisterError(f"register number out of range: {number}")
    if prefer_alias and number in _REVERSE_ALIASES:
        return _REVERSE_ALIASES[number]
    return f"r{number}"


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
