"""Reference (object) interpreter, kept as the behavioural specification.

:class:`FunctionalSimulator` interprets an assembled
:class:`~repro.isa.program.Program` one :class:`DynInstruction` record
per retired instruction, re-deriving each instruction's class from its
mnemonic on every step.  Like :mod:`repro.ecc.reference` and
:mod:`repro.pipeline.reference_timing`, it is a test oracle: the
production interpreter is :func:`repro.functional.interpreter.golden_pass`,
and the tests prove both produce identical columns, final memory images
and instruction limits.  It also feeds
:class:`~repro.pipeline.reference_timing.ReferenceTimingPipeline` and,
through its pluggable memory, the full faulty re-execution of the
fault-injection oracle :func:`repro.campaign.reference.run_injection`.
Nothing on a production path runs it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

from repro.functional.interpreter import ExecutionLimitExceeded, FunctionalTrace
from repro.functional.memory import FlatMemory
from repro.isa.instructions import INSTRUCTION_BYTES, Instruction, InstructionClass, Mnemonic
from repro.isa.program import Program
from repro.isa.registers import (
    ConditionCodes,
    RegisterFile,
    STACK_POINTER,
    to_signed,
    to_unsigned,
)


class SimulationFault(RuntimeError):
    """Raised when execution reaches an invalid state (bad PC, bad access)."""


@dataclass(frozen=True)
class DynInstruction:
    """A single retired (dynamic) instruction.

    Attributes
    ----------
    index:
        Zero-based position in the dynamic stream.
    pc:
        Byte address of the instruction.
    instruction:
        The static :class:`~repro.isa.instructions.Instruction`.
    address:
        Effective byte address for memory operations (``None`` otherwise).
    size:
        Access width in bytes for memory operations (0 otherwise).
    value:
        Value loaded (for loads) or stored (for stores); architectural
        result for ALU operations.  Used by verification tests and by the
        ECC fault-injection experiments; ignored by the timing model.
    branch_taken:
        Whether a control-transfer instruction redirected the PC.
    """

    index: int
    pc: int
    instruction: Instruction
    address: Optional[int] = None
    size: int = 0
    value: int = 0
    branch_taken: bool = False

    @property
    def is_load(self) -> bool:
        return self.instruction.is_load

    @property
    def is_store(self) -> bool:
        return self.instruction.is_store

    @property
    def destination_register(self) -> Optional[int]:
        return self.instruction.destination_register()

    @property
    def source_registers(self) -> Tuple[int, ...]:
        return self.instruction.source_registers()

    @property
    def address_registers(self) -> Tuple[int, ...]:
        return self.instruction.address_registers()

    @property
    def klass(self) -> InstructionClass:
        return self.instruction.klass


@dataclass
class ReferenceTrace:
    """The dynamic stream of a reference run, one record per instruction."""

    program_name: str
    instructions: List[DynInstruction] = field(default_factory=list)
    halted: bool = False

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[DynInstruction]:
        return iter(self.instructions)

    def __getitem__(self, index):
        return self.instructions[index]

    def columns(self) -> FunctionalTrace:
        """The same run as the production :class:`FunctionalTrace`."""
        trace = FunctionalTrace(program_name=self.program_name, halted=self.halted)
        for dyn in self.instructions:
            trace.append(dyn.pc, dyn.instruction, dyn.address, dyn.branch_taken)
        return trace


def reference_trace(trace: FunctionalTrace) -> ReferenceTrace:
    """Records for a columnar trace that no program produced (synthetic
    streams), so the reference timing engine can replay it."""
    return ReferenceTrace(
        program_name=trace.program_name,
        instructions=[
            DynInstruction(
                index=index,
                pc=pc,
                instruction=instruction,
                address=address,
                size=instruction.memory_bytes,
                branch_taken=bool(taken),
            )
            for index, (pc, instruction, address, taken) in enumerate(
                zip(trace.pcs, trace.instructions, trace.addresses, trace.taken)
            )
        ],
        halted=trace.halted,
    )


_BRANCH_PREDICATES = {
    Mnemonic.BA: lambda cc: True,
    Mnemonic.BN: lambda cc: False,
    Mnemonic.BE: lambda cc: cc.zero,
    Mnemonic.BNE: lambda cc: not cc.zero,
    Mnemonic.BG: lambda cc: not (cc.zero or (cc.negative != cc.overflow)),
    Mnemonic.BLE: lambda cc: cc.zero or (cc.negative != cc.overflow),
    Mnemonic.BGE: lambda cc: cc.negative == cc.overflow,
    Mnemonic.BL: lambda cc: cc.negative != cc.overflow,
    Mnemonic.BGU: lambda cc: not (cc.carry or cc.zero),
    Mnemonic.BLEU: lambda cc: cc.carry or cc.zero,
    Mnemonic.BCC: lambda cc: not cc.carry,
    Mnemonic.BCS: lambda cc: cc.carry,
    Mnemonic.BPOS: lambda cc: not cc.negative,
    Mnemonic.BNEG: lambda cc: cc.negative,
    Mnemonic.BVC: lambda cc: not cc.overflow,
    Mnemonic.BVS: lambda cc: cc.overflow,
}


class FunctionalSimulator:
    """Interprets a program and produces its dynamic instruction records."""

    def __init__(self, program: Program, *, max_instructions: int = 5_000_000) -> None:
        self.program = program
        self.max_instructions = max_instructions
        self.registers = RegisterFile()
        self.condition_codes = ConditionCodes()
        self.memory = FlatMemory()
        self.pc = program.entry
        self.halted = False
        self._retired = 0
        self.memory.load_bytes(program.data.base, program.data.data)
        self.registers.write(STACK_POINTER, program.stack_top)

    # ------------------------------------------------------------------ #
    # execution loop                                                     #
    # ------------------------------------------------------------------ #
    def run(self) -> ReferenceTrace:
        """Run until HALT (or the instruction limit) and return the trace."""
        trace = ReferenceTrace(program_name=self.program.name)
        while not self.halted:
            dyn = self.step()
            trace.instructions.append(dyn)
            if len(trace.instructions) > self.max_instructions:
                raise ExecutionLimitExceeded(
                    f"{self.program.name}: exceeded {self.max_instructions} "
                    "retired instructions without halting"
                )
        trace.halted = True
        return trace

    def step(self) -> DynInstruction:
        """Execute a single instruction and return its dynamic record."""
        if self.halted:
            raise SimulationFault("step() called after halt")
        if not self.program.has_instruction_at(self.pc):
            raise SimulationFault(f"PC outside text segment: {self.pc:#x}")
        instruction = self.program.instruction_at(self.pc)
        index = self._retired
        next_pc = self.pc + INSTRUCTION_BYTES
        address: Optional[int] = None
        size = 0
        value = 0
        branch_taken = False

        mnemonic = instruction.mnemonic
        klass = instruction.klass

        if klass is InstructionClass.HALT:
            self.halted = True
        elif klass is InstructionClass.NOP:
            pass
        elif klass in (
            InstructionClass.ALU,
            InstructionClass.MUL,
            InstructionClass.DIV,
        ):
            value = self._execute_alu(instruction)
        elif klass is InstructionClass.LOAD:
            address, size, value = self._execute_load(instruction)
        elif klass is InstructionClass.STORE:
            address, size, value = self._execute_store(instruction)
        elif klass is InstructionClass.BRANCH:
            predicate = _BRANCH_PREDICATES[mnemonic]
            branch_taken = predicate(self.condition_codes)
            if branch_taken:
                next_pc = to_unsigned(self.pc + instruction.imm)
        elif klass is InstructionClass.CALL:
            branch_taken = True
            self.registers.write(instruction.rd, self.pc + INSTRUCTION_BYTES)
            next_pc = to_unsigned(self.pc + instruction.imm)
        elif klass is InstructionClass.JUMP:
            branch_taken = True
            target = to_unsigned(self.registers.read(instruction.rs1) + instruction.imm)
            self.registers.write(instruction.rd, self.pc + INSTRUCTION_BYTES)
            next_pc = target
        else:  # pragma: no cover - all classes handled above
            raise SimulationFault(f"unhandled instruction class {klass}")

        dyn = DynInstruction(
            index=index,
            pc=self.pc,
            instruction=instruction,
            address=address,
            size=size,
            value=value,
            branch_taken=branch_taken,
        )
        self.pc = next_pc
        self._retired += 1
        return dyn

    # ------------------------------------------------------------------ #
    # per-class semantics                                                #
    # ------------------------------------------------------------------ #
    def _operand2(self, instruction: Instruction) -> int:
        if instruction.uses_imm:
            return to_unsigned(instruction.imm)
        return self.registers.read(instruction.rs2)

    def _execute_alu(self, instruction: Instruction) -> int:
        mnemonic = instruction.mnemonic
        a = self.registers.read(instruction.rs1)
        b = self._operand2(instruction)
        if mnemonic is Mnemonic.SET:
            result = to_unsigned(instruction.imm)
        elif mnemonic in (Mnemonic.ADD, Mnemonic.ADDCC):
            total = a + b
            result = to_unsigned(total)
            if mnemonic is Mnemonic.ADDCC:
                overflow = ((a ^ result) & (b ^ result) & 0x80000000) != 0
                self.condition_codes.update_arithmetic(result, total > 0xFFFFFFFF, overflow)
        elif mnemonic in (Mnemonic.SUB, Mnemonic.SUBCC):
            total = a - b
            result = to_unsigned(total)
            if mnemonic is Mnemonic.SUBCC:
                overflow = ((a ^ b) & (a ^ result) & 0x80000000) != 0
                self.condition_codes.update_arithmetic(result, a < b, overflow)
        elif mnemonic in (Mnemonic.AND, Mnemonic.ANDCC):
            result = a & b
            if mnemonic is Mnemonic.ANDCC:
                self.condition_codes.update_logical(result)
        elif mnemonic in (Mnemonic.OR, Mnemonic.ORCC):
            result = a | b
            if mnemonic is Mnemonic.ORCC:
                self.condition_codes.update_logical(result)
        elif mnemonic in (Mnemonic.XOR, Mnemonic.XORCC):
            result = a ^ b
            if mnemonic is Mnemonic.XORCC:
                self.condition_codes.update_logical(result)
        elif mnemonic is Mnemonic.SLL:
            result = to_unsigned(a << (b & 31))
        elif mnemonic is Mnemonic.SRL:
            result = a >> (b & 31)
        elif mnemonic is Mnemonic.SRA:
            result = to_unsigned(to_signed(a) >> (b & 31))
        elif mnemonic in (Mnemonic.SMUL, Mnemonic.UMUL):
            if mnemonic is Mnemonic.SMUL:
                result = to_unsigned(to_signed(a) * to_signed(b))
            else:
                result = to_unsigned(a * b)
        elif mnemonic in (Mnemonic.SDIV, Mnemonic.UDIV):
            if b == 0:
                result = 0xFFFFFFFF
            elif mnemonic is Mnemonic.SDIV:
                result = to_unsigned(int(to_signed(a) / to_signed(b)) if to_signed(b) else 0)
            else:
                result = to_unsigned(a // b)
        else:  # pragma: no cover - all ALU mnemonics handled above
            raise SimulationFault(f"unhandled ALU mnemonic {mnemonic}")
        self.registers.write(instruction.rd, result)
        return result

    def _effective_address(self, instruction: Instruction) -> int:
        base = self.registers.read(instruction.rs1)
        offset = (
            instruction.imm if instruction.uses_imm else self.registers.read(instruction.rs2)
        )
        return to_unsigned(base + offset)

    def _execute_load(self, instruction: Instruction) -> Tuple[int, int, int]:
        address = self._effective_address(instruction)
        size = instruction.memory_bytes
        raw = self.memory.read(address, size)
        if instruction.mnemonic is Mnemonic.LDSB and raw & 0x80:
            raw |= 0xFFFFFF00
        elif instruction.mnemonic is Mnemonic.LDSH and raw & 0x8000:
            raw |= 0xFFFF0000
        value = to_unsigned(raw)
        self.registers.write(instruction.rd, value)
        return address, size, value

    def _execute_store(self, instruction: Instruction) -> Tuple[int, int, int]:
        address = self._effective_address(instruction)
        size = instruction.memory_bytes
        value = self.registers.read(instruction.rd)
        self.memory.write(address, value, size)
        return address, size, value & ((1 << (8 * size)) - 1)


def run_reference(program: Program, *, max_instructions: int = 5_000_000) -> ReferenceTrace:
    """Convenience wrapper: run ``program`` to completion, return its trace."""
    simulator = FunctionalSimulator(program, max_instructions=max_instructions)
    return simulator.run()
