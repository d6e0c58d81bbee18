"""Two-pass assembler for the mini SPARC-V8-like ISA.

Syntax overview (one statement per line, ``;``/``#``/``!`` start comments)::

    .text                       ; switch to the text segment (default)
    .data                       ; switch to the data segment
    .word 1, 2, 3               ; 32-bit little-endian words
    .half 1, 2                  ; 16-bit values
    .byte 1, 2                  ; 8-bit values
    .space 64                   ; reserve zero-initialised bytes
    .align 8                    ; align the current location counter

    label:
        set   table, r1         ; load a 32-bit constant or symbol address
        ld    [r1+4], r2        ; displacement load
        ld    [r1+r3], r2       ; register-indexed load
        add   r2, 10, r2        ; register/immediate ALU op
        st    r2, [r1]          ; store
        subcc r4, r0, r0        ; compare (sets condition codes)
        bne   loop              ; conditional branch
        call  function          ; writes the return address to lr (r31)
        jmpl  lr, 0, r0         ; return
        halt

Pseudo-instructions: ``mov a, rd`` (expands to ``or r0, a, rd``),
``cmp a, b`` (expands to ``subcc a, b, r0``), ``inc rd``/``dec rd``,
``ret`` (expands to ``jmpl lr, 0, r0``), and ``clr rd``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.isa.instructions import (
    BRANCH_MNEMONICS,
    INSTRUCTION_BYTES,
    Instruction,
    Mnemonic,
)
from repro.isa.program import (
    DATA_BASE,
    Program,
    Segment,
    STACK_TOP,
    TEXT_BASE,
    find_entry,
)
from repro.isa.registers import LINK_REGISTER, RegisterError, ZERO_REGISTER, register_number

_COMMENT_RE = re.compile(r"[;#!].*$")
_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_MEM_OPERAND_RE = re.compile(r"^\[(?P<inner>[^\]]+)\]$")

_MNEMONIC_BY_NAME: Dict[str, Mnemonic] = {m.value: m for m in Mnemonic}
# "and"/"or" are Python keywords in the enum member names but the assembler
# accepts the plain mnemonic text, which is already covered by ``m.value``.


class AssemblerError(ValueError):
    """Raised when a source line cannot be assembled."""

    def __init__(self, message: str, line_number: int = 0, line: str = "") -> None:
        location = f" (line {line_number}: {line.strip()!r})" if line_number else ""
        super().__init__(f"{message}{location}")
        self.line_number = line_number
        self.line = line


@dataclass
class _Statement:
    """A single parsed source statement (directive or instruction)."""

    line_number: int
    text: str
    labels: Tuple[str, ...]
    mnemonic: Optional[str]
    operands: Tuple[str, ...]
    is_directive: bool


def _strip_comment(line: str) -> str:
    return _COMMENT_RE.sub("", line)


def _split_operands(operand_text: str) -> Tuple[str, ...]:
    """Split an operand list on commas that are not inside brackets."""
    operands: List[str] = []
    depth = 0
    current = []
    for char in operand_text:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            operands.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        operands.append(tail)
    return tuple(op for op in operands if op)


def _parse_lines(source: str) -> List[_Statement]:
    statements: List[_Statement] = []
    for line_number, raw_line in enumerate(source.splitlines(), start=1):
        line = _strip_comment(raw_line).strip()
        labels: List[str] = []
        while True:
            match = _LABEL_RE.match(line)
            if not match:
                break
            labels.append(match.group(1))
            line = line[match.end() :].strip()
        if not line and not labels:
            continue
        mnemonic: Optional[str] = None
        operands: Tuple[str, ...] = ()
        is_directive = False
        if line:
            parts = line.split(None, 1)
            mnemonic = parts[0].lower()
            operand_text = parts[1] if len(parts) > 1 else ""
            operands = _split_operands(operand_text)
            is_directive = mnemonic.startswith(".")
        statements.append(
            _Statement(
                line_number=line_number,
                text=raw_line,
                labels=tuple(labels),
                mnemonic=mnemonic,
                operands=operands,
                is_directive=is_directive,
            )
        )
    return statements


def _parse_integer(token: str, symbols: Optional[Dict[str, int]] = None) -> int:
    """Parse an integer literal or (second pass only) a symbol reference."""
    text = token.strip()
    negative = text.startswith("-")
    if negative:
        text = text[1:]
    try:
        if text.lower().startswith("0x"):
            value = int(text, 16)
        elif text.lower().startswith("0b"):
            value = int(text, 2)
        else:
            value = int(text, 10)
        return -value if negative else value
    except ValueError:
        pass
    if symbols is not None and token.strip() in symbols:
        return symbols[token.strip()]
    raise AssemblerError(f"cannot parse integer or symbol {token!r}")


def _try_register(token: str) -> Optional[int]:
    try:
        return register_number(token)
    except RegisterError:
        return None


@dataclass
class _MemoryOperand:
    base: int
    index: Optional[int]
    displacement: int


def _parse_memory_operand(token: str, symbols: Dict[str, int]) -> _MemoryOperand:
    match = _MEM_OPERAND_RE.match(token.strip())
    if not match:
        raise AssemblerError(f"malformed memory operand {token!r}")
    inner = match.group("inner").replace(" ", "")
    # Accept base, base+reg, base+imm, base-imm.
    split_at = None
    for position, char in enumerate(inner[1:], start=1):
        if char in "+-":
            split_at = position
            break
    if split_at is None:
        base = _try_register(inner)
        if base is None:
            raise AssemblerError(f"memory operand base must be a register: {token!r}")
        return _MemoryOperand(base=base, index=None, displacement=0)
    base_token = inner[:split_at]
    rest = inner[split_at:]
    base = _try_register(base_token)
    if base is None:
        raise AssemblerError(f"memory operand base must be a register: {token!r}")
    index = _try_register(rest.lstrip("+"))
    if index is not None and not rest.startswith("-"):
        return _MemoryOperand(base=base, index=index, displacement=0)
    displacement = _parse_integer(rest, symbols)
    return _MemoryOperand(base=base, index=None, displacement=displacement)


class Assembler:
    """Two-pass assembler producing :class:`repro.isa.program.Program`."""

    def __init__(
        self,
        *,
        text_base: int = TEXT_BASE,
        data_base: int = DATA_BASE,
        stack_top: int = STACK_TOP,
    ) -> None:
        self.text_base = text_base
        self.data_base = data_base
        self.stack_top = stack_top

    # ------------------------------------------------------------------ #
    # public API                                                         #
    # ------------------------------------------------------------------ #
    def assemble(
        self, source: str, *, name: str = "program", entry_label: Optional[str] = None
    ) -> Program:
        statements = _parse_lines(source)
        symbols = self._first_pass(statements)
        instructions, data = self._second_pass(statements, symbols)
        entry = find_entry(symbols, self.text_base, entry_label)
        return Program(
            instructions=instructions,
            data=data,
            symbols=symbols,
            text_base=self.text_base,
            entry=entry,
            stack_top=self.stack_top,
            name=name,
        )

    # ------------------------------------------------------------------ #
    # pass 1: symbol resolution                                          #
    # ------------------------------------------------------------------ #
    def _first_pass(self, statements: Sequence[_Statement]) -> Dict[str, int]:
        symbols: Dict[str, int] = {}
        text_counter = self.text_base
        data_counter = self.data_base
        in_text = True
        for statement in statements:
            counter = text_counter if in_text else data_counter
            for label in statement.labels:
                if label in symbols:
                    raise AssemblerError(
                        f"duplicate label {label!r}", statement.line_number, statement.text
                    )
                symbols[label] = counter
            if statement.mnemonic is None:
                continue
            if statement.is_directive:
                directive = statement.mnemonic
                if directive == ".text":
                    in_text = True
                elif directive == ".data":
                    in_text = False
                elif directive in (".word", ".half", ".byte", ".space", ".align"):
                    size = self._directive_size(statement)
                    if in_text:
                        raise AssemblerError(
                            "data directives are only allowed in .data",
                            statement.line_number,
                            statement.text,
                        )
                    if directive == ".align":
                        alignment = size
                        remainder = data_counter % alignment
                        if remainder:
                            data_counter += alignment - remainder
                    else:
                        data_counter += size
                else:
                    raise AssemblerError(
                        f"unknown directive {directive!r}",
                        statement.line_number,
                        statement.text,
                    )
            else:
                if not in_text:
                    raise AssemblerError(
                        "instructions are only allowed in .text",
                        statement.line_number,
                        statement.text,
                    )
                expansion = self._expansion_length(statement)
                text_counter += expansion * INSTRUCTION_BYTES
        return symbols

    def _directive_size(self, statement: _Statement) -> int:
        directive = statement.mnemonic
        if directive == ".word":
            return 4 * len(statement.operands)
        if directive == ".half":
            return 2 * len(statement.operands)
        if directive == ".byte":
            return len(statement.operands)
        if directive in (".space", ".align"):
            if len(statement.operands) != 1:
                raise AssemblerError(
                    f"{directive} takes exactly one operand",
                    statement.line_number,
                    statement.text,
                )
            return _parse_integer(statement.operands[0])
        raise AssemblerError(
            f"unknown directive {directive!r}", statement.line_number, statement.text
        )

    def _expansion_length(self, statement: _Statement) -> int:
        """Number of machine instructions produced by the statement."""
        # All instructions and pseudo-instructions expand to exactly one
        # machine instruction in this ISA (``set`` carries a 32-bit
        # immediate directly).
        return 1

    # ------------------------------------------------------------------ #
    # pass 2: encoding                                                   #
    # ------------------------------------------------------------------ #
    def _second_pass(
        self, statements: Sequence[_Statement], symbols: Dict[str, int]
    ) -> Tuple[List[Instruction], Segment]:
        instructions: List[Instruction] = []
        data = bytearray()
        in_text = True
        text_counter = self.text_base
        data_counter = self.data_base
        for statement in statements:
            if statement.mnemonic is None:
                continue
            if statement.is_directive:
                in_text, text_counter, data_counter = self._emit_directive(
                    statement, symbols, data, in_text, text_counter, data_counter
                )
                continue
            try:
                instruction = self._encode_instruction(
                    statement, symbols, address=text_counter
                )
            except AssemblerError:
                raise
            except Exception as exc:  # pragma: no cover - defensive
                raise AssemblerError(
                    str(exc), statement.line_number, statement.text
                ) from exc
            instructions.append(instruction)
            text_counter += INSTRUCTION_BYTES
        segment = Segment(base=self.data_base, data=data)
        return instructions, segment

    def _emit_directive(
        self,
        statement: _Statement,
        symbols: Dict[str, int],
        data: bytearray,
        in_text: bool,
        text_counter: int,
        data_counter: int,
    ) -> Tuple[bool, int, int]:
        directive = statement.mnemonic
        if directive == ".text":
            return True, text_counter, data_counter
        if directive == ".data":
            return False, text_counter, data_counter
        if directive == ".word":
            for operand in statement.operands:
                value = _parse_integer(operand, symbols)
                data.extend((value & 0xFFFFFFFF).to_bytes(4, "little"))
                data_counter += 4
        elif directive == ".half":
            for operand in statement.operands:
                value = _parse_integer(operand, symbols)
                data.extend((value & 0xFFFF).to_bytes(2, "little"))
                data_counter += 2
        elif directive == ".byte":
            for operand in statement.operands:
                value = _parse_integer(operand, symbols)
                data.append(value & 0xFF)
                data_counter += 1
        elif directive == ".space":
            size = _parse_integer(statement.operands[0])
            data.extend(bytes(size))
            data_counter += size
        elif directive == ".align":
            alignment = _parse_integer(statement.operands[0])
            remainder = data_counter % alignment
            if remainder:
                padding = alignment - remainder
                data.extend(bytes(padding))
                data_counter += padding
        else:  # pragma: no cover - rejected in pass 1
            raise AssemblerError(
                f"unknown directive {directive!r}", statement.line_number, statement.text
            )
        return in_text, text_counter, data_counter

    # ------------------------------------------------------------------ #
    # instruction encoding                                               #
    # ------------------------------------------------------------------ #
    def _encode_instruction(
        self, statement: _Statement, symbols: Dict[str, int], address: int
    ) -> Instruction:
        mnemonic_text = statement.mnemonic or ""
        operands = statement.operands
        line = statement.line_number
        text = statement.text.strip()

        # Pseudo-instruction expansion (single machine instruction each).
        if mnemonic_text == "mov":
            return self._encode_three_operand(
                Mnemonic.OR, (operands[0],), operands[0], operands[-1], statement, address
            )
        if mnemonic_text == "cmp":
            if len(operands) != 2:
                raise AssemblerError("cmp takes two operands", line, text)
            return self._encode_alu(
                Mnemonic.SUBCC, operands[0], operands[1], "r0", statement, address
            )
        if mnemonic_text == "tst":
            if len(operands) != 1:
                raise AssemblerError("tst takes one operand", line, text)
            return self._encode_alu(
                Mnemonic.ORCC, operands[0], "0", "r0", statement, address
            )
        if mnemonic_text == "inc":
            return self._encode_alu(
                Mnemonic.ADD, operands[0], "1", operands[0], statement, address
            )
        if mnemonic_text == "dec":
            return self._encode_alu(
                Mnemonic.SUB, operands[0], "1", operands[0], statement, address
            )
        if mnemonic_text == "clr":
            return self._encode_alu(
                Mnemonic.OR, "r0", "0", operands[0], statement, address
            )
        if mnemonic_text in ("ret", "retl"):
            return Instruction(
                mnemonic=Mnemonic.JMPL,
                rd=ZERO_REGISTER,
                rs1=LINK_REGISTER,
                imm=0,
                uses_imm=True,
                address=address,
                source_line=line,
                text=text,
            )

        mnemonic = _MNEMONIC_BY_NAME.get(mnemonic_text)
        if mnemonic is None:
            raise AssemblerError(f"unknown mnemonic {mnemonic_text!r}", line, text)

        if mnemonic in (Mnemonic.NOP, Mnemonic.HALT):
            return Instruction(
                mnemonic=mnemonic, address=address, source_line=line, text=text
            )
        if mnemonic is Mnemonic.SET:
            if len(operands) != 2:
                raise AssemblerError("set takes two operands", line, text)
            value = _parse_integer(operands[0], symbols)
            rd = self._register(operands[1], statement)
            return Instruction(
                mnemonic=mnemonic,
                rd=rd,
                imm=value & 0xFFFFFFFF,
                uses_imm=True,
                address=address,
                source_line=line,
                text=text,
            )
        if mnemonic in BRANCH_MNEMONICS or mnemonic is Mnemonic.CALL:
            if len(operands) != 1:
                raise AssemblerError(
                    f"{mnemonic.value} takes one operand", line, text
                )
            target = operands[0]
            if target in symbols:
                displacement = symbols[target] - address
                label: Optional[str] = target
            else:
                displacement = _parse_integer(target, symbols)
                label = None
            rd = LINK_REGISTER if mnemonic is Mnemonic.CALL else ZERO_REGISTER
            return Instruction(
                mnemonic=mnemonic,
                rd=rd,
                imm=displacement,
                uses_imm=True,
                target_label=label,
                address=address,
                source_line=line,
                text=text,
            )
        if mnemonic is Mnemonic.JMPL:
            # jmpl rs1, imm, rd   or   jmpl rs1, rd
            if len(operands) == 3:
                rs1 = self._register(operands[0], statement)
                imm = _parse_integer(operands[1], symbols)
                rd = self._register(operands[2], statement)
            elif len(operands) == 2:
                rs1 = self._register(operands[0], statement)
                imm = 0
                rd = self._register(operands[1], statement)
            else:
                raise AssemblerError("jmpl takes two or three operands", line, text)
            return Instruction(
                mnemonic=mnemonic,
                rd=rd,
                rs1=rs1,
                imm=imm,
                uses_imm=True,
                address=address,
                source_line=line,
                text=text,
            )
        if mnemonic.value.startswith("ld"):
            if len(operands) != 2:
                raise AssemblerError("loads take two operands", line, text)
            memory = _parse_memory_operand(operands[0], symbols)
            rd = self._register(operands[1], statement)
            return self._memory_instruction(
                mnemonic, rd, memory, statement, address
            )
        if mnemonic.value.startswith("st"):
            if len(operands) != 2:
                raise AssemblerError("stores take two operands", line, text)
            rd = self._register(operands[0], statement)
            memory = _parse_memory_operand(operands[1], symbols)
            return self._memory_instruction(
                mnemonic, rd, memory, statement, address
            )
        # Remaining: 3-operand ALU / MUL / DIV.
        if len(operands) != 3:
            raise AssemblerError(
                f"{mnemonic.value} takes three operands", line, text
            )
        return self._encode_alu(
            mnemonic, operands[0], operands[1], operands[2], statement, address
        )

    def _encode_three_operand(
        self,
        mnemonic: Mnemonic,
        _unused: Tuple[str, ...],
        source: str,
        destination: str,
        statement: _Statement,
        address: int,
    ) -> Instruction:
        """Encode ``mov``: ``or r0, source, destination``."""
        return self._encode_alu(mnemonic, "r0", source, destination, statement, address)

    def _encode_alu(
        self,
        mnemonic: Mnemonic,
        operand1: str,
        operand2: str,
        destination: str,
        statement: _Statement,
        address: int,
    ) -> Instruction:
        rs1 = self._register(operand1, statement)
        rd = self._register(destination, statement)
        rs2 = _try_register(operand2)
        if rs2 is not None:
            return Instruction(
                mnemonic=mnemonic,
                rd=rd,
                rs1=rs1,
                rs2=rs2,
                uses_imm=False,
                address=address,
                source_line=statement.line_number,
                text=statement.text.strip(),
            )
        imm = _parse_integer(operand2, None)
        return Instruction(
            mnemonic=mnemonic,
            rd=rd,
            rs1=rs1,
            imm=imm,
            uses_imm=True,
            address=address,
            source_line=statement.line_number,
            text=statement.text.strip(),
        )

    def _memory_instruction(
        self,
        mnemonic: Mnemonic,
        rd: int,
        memory: _MemoryOperand,
        statement: _Statement,
        address: int,
    ) -> Instruction:
        if memory.index is not None:
            return Instruction(
                mnemonic=mnemonic,
                rd=rd,
                rs1=memory.base,
                rs2=memory.index,
                uses_imm=False,
                address=address,
                source_line=statement.line_number,
                text=statement.text.strip(),
            )
        return Instruction(
            mnemonic=mnemonic,
            rd=rd,
            rs1=memory.base,
            imm=memory.displacement,
            uses_imm=True,
            address=address,
            source_line=statement.line_number,
            text=statement.text.strip(),
        )

    def _register(self, token: str, statement: _Statement) -> int:
        number = _try_register(token)
        if number is None:
            raise AssemblerError(
                f"expected a register, got {token!r}",
                statement.line_number,
                statement.text,
            )
        return number


def assemble(
    source: str,
    *,
    name: str = "program",
    entry_label: Optional[str] = None,
    text_base: int = TEXT_BASE,
    data_base: int = DATA_BASE,
) -> Program:
    """Assemble ``source`` and return the resulting :class:`Program`."""
    assembler = Assembler(text_base=text_base, data_base=data_base)
    return assembler.assemble(source, name=name, entry_label=entry_label)
