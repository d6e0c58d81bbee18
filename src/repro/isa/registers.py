"""Register numbering and names.

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

from typing import Dict

REGISTER_COUNT = 32
ZERO_REGISTER = 0
STACK_POINTER = 14
FRAME_POINTER = 30
LINK_REGISTER = 31

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
