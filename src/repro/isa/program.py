"""Program image produced by the assembler.

A :class:`Program` bundles the instruction stream (text segment), the
initial data image (data segment), the symbol table, and the memory-layout
constants the functional simulator needs (entry point, stack top).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.isa.instructions import Instruction

#: Default segment bases, loosely modelled on a LEON bare-metal layout.
TEXT_BASE = 0x4000_0000
DATA_BASE = 0x4010_0000
STACK_TOP = 0x407F_FFF0


class ProgramError(ValueError):
    """Raised for malformed programs (bad addresses, missing symbols...)."""


@dataclass
class Segment:
    """A contiguous byte-addressed memory region with initial contents."""

    base: int
    data: bytearray = field(default_factory=bytearray)

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def end(self) -> int:
        """One past the last initialised byte address."""
        return self.base + len(self.data)

    def read_word(self, address: int) -> int:
        """Read a little-endian 32-bit word at ``address``."""
        offset = address - self.base
        if offset < 0 or offset + 4 > len(self.data):
            raise ProgramError(f"word read outside segment: {address:#x}")
        return int.from_bytes(self.data[offset : offset + 4], "little")

    def write_word(self, address: int, value: int) -> None:
        offset = address - self.base
        if offset < 0 or offset + 4 > len(self.data):
            raise ProgramError(f"word write outside segment: {address:#x}")
        self.data[offset : offset + 4] = (value & 0xFFFFFFFF).to_bytes(4, "little")


@dataclass
class Program:
    """An assembled program: instructions, data image and symbols."""

    instructions: List[Instruction]
    data: Segment
    symbols: Dict[str, int] = field(default_factory=dict)
    text_base: int = TEXT_BASE
    entry: int = TEXT_BASE
    stack_top: int = STACK_TOP
    name: str = "program"

    def __post_init__(self) -> None:
        self._by_address: Dict[int, Instruction] = {
            instr.address: instr for instr in self.instructions
        }

    def instruction_at(self, address: int) -> Instruction:
        """Return the instruction located at byte ``address``."""
        instr = self._by_address.get(address)
        if instr is None:
            raise ProgramError(f"no instruction at address {address:#x}")
        return instr

    def has_instruction_at(self, address: int) -> bool:
        return address in self._by_address


def find_entry(symbols: Dict[str, int], default: int, label: Optional[str] = None) -> int:
    """Resolve the entry point: explicit label, ``main``/``_start`` or default."""
    if label is not None:
        if label not in symbols:
            raise ProgramError(f"entry label {label!r} is not defined")
        return symbols[label]
    for candidate in ("main", "_start", "start"):
        if candidate in symbols:
            return symbols[candidate]
    return default
