"""The functional interpreter: one pre-decoded pass per program run.

:func:`golden_pass` interprets an assembled
:class:`~repro.isa.program.Program` in its *pre-decoded* form — one flat
tuple per static instruction, integer opcodes, registers in a plain
list, memory as a word dictionary — and records what every consumer of
a clean run needs:

* the architectural stream as a columnar :class:`FunctionalTrace` (pc,
  static instruction, effective address and taken flag per retired
  instruction), which the timing engine in :mod:`repro.pipeline`
  replays — a functional-first / timing-directed decomposition;
* the memory-op stream (word address / size / store flag per ordinal),
  a per-word store-value history (the one record of golden memory: the
  value of any word before any op, and the whole image before any
  instruction, follow from it and the initial image), register and
  flag checkpoints every :data:`SNAPSHOT_INTERVAL` instructions in two
  flat buffers, and the final memory image, which a fault campaign
  shares across every fault of a (kernel, scale) group
  (:mod:`repro.campaign`).

Its loop is :func:`execute`, the only production loop that runs
the whole ISA: from any :class:`Snapshot`, recording or not, and with
an optional :class:`Watch` on one faulted word, which is how a fault
campaign resumes a diverged point from the golden state at a
checkpoint (:mod:`repro.campaign.replay`).  The object interpreter
:mod:`oracles.functional` is its test oracle: the tests pin
both to identical columns, final memory images and instruction limits.
"""

from __future__ import annotations

import bisect
from array import array
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.isa.instructions import (
    INSTRUCTION_BYTES,
    MEMORY_ACCESS_BYTES,
    Instruction,
    InstructionClass,
    Mnemonic,
)
from repro.isa.program import Program
from repro.isa.registers import STACK_POINTER

if TYPE_CHECKING:
    from repro.memory.cache import LruSet


class ExecutionLimitExceeded(RuntimeError):
    """Raised when a program executes more instructions than allowed."""


_M32 = 0xFFFFFFFF
_SIGN = 0x80000000

#: Checkpoint cadence (retired instructions) of a recording run.  A
#: checkpoint is 32 registers and one flag byte (129 bytes), so golden
#: registers anywhere are at most 63 replayed instructions away for
#: about two bytes per instruction of the run.
SNAPSHOT_INTERVAL = 64

# Integer opcodes.  The interpreter dispatch chains test these in
# listed order, tuned to kernel instruction frequency.
(
    _OP_ADD,
    _OP_SET,
    _OP_SUB,
    _OP_ADDCC,
    _OP_SUBCC,
    _OP_SLL,
    _OP_SRL,
    _OP_SRA,
    _OP_AND,
    _OP_OR,
    _OP_XOR,
    _OP_ANDCC,
    _OP_ORCC,
    _OP_XORCC,
    _OP_SMUL,
    _OP_UMUL,
    _OP_SDIV,
    _OP_UDIV,
) = range(18)
_OP_LOAD = 18
_OP_STORE = 19
(
    _OP_BA,
    _OP_BN,
    _OP_BE,
    _OP_BNE,
    _OP_BG,
    _OP_BLE,
    _OP_BGE,
    _OP_BL,
    _OP_BGU,
    _OP_BLEU,
    _OP_BCC,
    _OP_BCS,
    _OP_BPOS,
    _OP_BNEG,
    _OP_BVC,
    _OP_BVS,
) = range(20, 36)
_OP_CALL = 36
_OP_JUMP = 37
_OP_NOP = 38
_OP_HALT = 39

_ALU_OPCODES = {
    Mnemonic.ADD: _OP_ADD,
    Mnemonic.SET: _OP_SET,
    Mnemonic.SUB: _OP_SUB,
    Mnemonic.ADDCC: _OP_ADDCC,
    Mnemonic.SUBCC: _OP_SUBCC,
    Mnemonic.SLL: _OP_SLL,
    Mnemonic.SRL: _OP_SRL,
    Mnemonic.SRA: _OP_SRA,
    Mnemonic.AND: _OP_AND,
    Mnemonic.OR: _OP_OR,
    Mnemonic.XOR: _OP_XOR,
    Mnemonic.ANDCC: _OP_ANDCC,
    Mnemonic.ORCC: _OP_ORCC,
    Mnemonic.XORCC: _OP_XORCC,
    Mnemonic.SMUL: _OP_SMUL,
    Mnemonic.UMUL: _OP_UMUL,
    Mnemonic.SDIV: _OP_SDIV,
    Mnemonic.UDIV: _OP_UDIV,
}
_BRANCH_OPCODES = {
    Mnemonic.BA: _OP_BA,
    Mnemonic.BN: _OP_BN,
    Mnemonic.BE: _OP_BE,
    Mnemonic.BNE: _OP_BNE,
    Mnemonic.BG: _OP_BG,
    Mnemonic.BLE: _OP_BLE,
    Mnemonic.BGE: _OP_BGE,
    Mnemonic.BL: _OP_BL,
    Mnemonic.BGU: _OP_BGU,
    Mnemonic.BLEU: _OP_BLEU,
    Mnemonic.BCC: _OP_BCC,
    Mnemonic.BCS: _OP_BCS,
    Mnemonic.BPOS: _OP_BPOS,
    Mnemonic.BNEG: _OP_BNEG,
    Mnemonic.BVC: _OP_BVC,
    Mnemonic.BVS: _OP_BVS,
}


class LeanExecutionError(RuntimeError):
    """The golden pass reached a state the object interpreter would
    have faulted on (bad PC, misaligned access) — golden runs must not."""


def predecode(program: Program) -> Dict[int, tuple]:
    """Flatten every static instruction into one dispatch tuple.

    Tuple layout (fixed positions, consumed positionally by the
    interpreter loops)::

        (op, rd, rs1, rs2, imm, imm_u, uses_imm, size, fall, target, sx)

    ``fall`` is the fall-through PC, ``target`` the pre-resolved
    branch/call target (0 when not a control transfer), ``sx`` the
    sign-extension width for sub-word loads (0 none, 1 byte, 2 half).
    """
    table: Dict[int, tuple] = {}
    for ins in program.instructions:
        mn = ins.mnemonic
        fall = ins.address + INSTRUCTION_BYTES
        imm_u = ins.imm & _M32
        target = 0
        sx = 0
        if mn in _ALU_OPCODES:
            op = _ALU_OPCODES[mn]
        elif mn in MEMORY_ACCESS_BYTES:
            if mn in (Mnemonic.ST, Mnemonic.STH, Mnemonic.STB):
                op = _OP_STORE
            else:
                op = _OP_LOAD
                if mn is Mnemonic.LDSB:
                    sx = 1
                elif mn is Mnemonic.LDSH:
                    sx = 2
        elif mn in _BRANCH_OPCODES:
            op = _BRANCH_OPCODES[mn]
            target = (ins.address + ins.imm) & _M32
        elif mn is Mnemonic.CALL:
            op = _OP_CALL
            target = (ins.address + ins.imm) & _M32
        elif mn is Mnemonic.JMPL:
            op = _OP_JUMP
        elif mn is Mnemonic.NOP:
            op = _OP_NOP
        elif mn is Mnemonic.HALT:
            op = _OP_HALT
        else:  # pragma: no cover - ISA fully enumerated above
            raise LeanExecutionError(f"unhandled mnemonic {mn}")
        table[ins.address] = (
            op,
            ins.rd,
            ins.rs1,
            ins.rs2,
            ins.imm,
            imm_u,
            ins.uses_imm,
            MEMORY_ACCESS_BYTES.get(mn, 0),
            fall,
            target,
            sx,
        )
    return table


def initial_memory_words(program: Program) -> Dict[int, int]:
    """The program's initial data image as a word-address dictionary."""
    words: Dict[int, int] = {}
    base = program.data.base
    for offset, byte in enumerate(program.data.data):
        if not byte:
            continue
        address = base + offset
        wa = address & ~0x3
        words[wa] = words.get(wa, 0) | (byte << ((address & 0x3) * 8))
    return words


@dataclass
class FunctionalTrace:
    """The architectural stream of one run: one column entry per retired
    instruction.

    ``instructions[i]`` is the static instruction retired at position
    *i* (shared, never copied), ``addresses[i]`` its effective byte
    address (``None`` unless it accesses memory) and ``taken[i]`` whether
    it redirected the PC.  The flag is recorded rather than derived from
    ``pcs``: a branch to its own fall-through (``ba .+4``) looks the same
    taken or not, and synthetic streams keep ``pc += 4`` past a taken
    branch.
    """

    program_name: str
    pcs: List[int] = field(default_factory=list)
    instructions: List[Instruction] = field(default_factory=list)
    addresses: List[Optional[int]] = field(default_factory=list)
    taken: bytearray = field(default_factory=bytearray)
    halted: bool = False
    #: The timing pre-pass caches of :mod:`repro.pipeline.timing`, filled
    #: on demand; they take no part in equality and are not pickled.
    static_facts: Dict[tuple, list] = field(default_factory=dict, compare=False, repr=False)
    memory_tapes: Dict[object, object] = field(default_factory=dict, compare=False, repr=False)
    front_ends: Dict[tuple, object] = field(default_factory=dict, compare=False, repr=False)

    def __getstate__(self):
        return {**self.__dict__, "static_facts": {}, "memory_tapes": {}, "front_ends": {}}

    def __len__(self) -> int:
        return len(self.pcs)

    def append(
        self, pc: int, instruction: Instruction, address: Optional[int] = None, taken: bool = False
    ) -> None:
        """Record one retired instruction."""
        self.pcs.append(pc)
        self.instructions.append(instruction)
        self.addresses.append(address)
        self.taken.append(taken)

    def count_class(self, klass: InstructionClass) -> int:
        return sum(1 for instr in self.instructions if instr.klass is klass)

    @property
    def load_count(self) -> int:
        return self.count_class(InstructionClass.LOAD)

    @property
    def load_fraction(self) -> float:
        if not self.pcs:
            return 0.0
        return self.load_count / len(self.pcs)


@dataclass
class Snapshot:
    """Golden machine state right before executing instruction ``index``."""

    index: int
    pc: int
    regs: List[int]
    cc: Tuple[bool, bool, bool, bool]
    mem: Dict[int, int]


@dataclass
class GoldenRun:
    """Everything one clean execution produced (shared per (kernel, scale))."""

    program: Program
    table: Dict[int, tuple]
    pcs: List[int]
    #: Retired-instruction indices of the control transfers that
    #: redirected the PC: the trace's ``taken`` column, kept sparse.
    taken_at: array
    #: Per memory operation (1-based ordinal ``i`` lives at index ``i-1``):
    op_instr: List[int]  #: retired-instruction index of the op
    op_wa: List[int]  #: word address touched
    op_store: List[bool]
    op_size: List[int]
    op_shift: List[int]  #: bit shift of a sub-word access inside its word
    #: word address -> [(op ordinal, merged word value after the store)]
    store_hist: Dict[int, List[Tuple[int, int]]]
    #: The state before every :data:`SNAPSHOT_INTERVAL`-th instruction,
    #: see :class:`Execution`.
    checkpoint_regs: array
    checkpoint_flags: bytearray
    mem_init: Dict[int, int]
    mem_final: Dict[int, int]
    #: CacheGeometry -> per-word event timelines, filled on demand by
    #: :func:`repro.campaign.timeline.golden_timelines`.
    timelines: Dict[object, Dict[int, list]] = field(default_factory=dict)
    #: word address -> ascending ordinals of its ops, see :meth:`word_ops`.
    op_index: Dict[int, array] = field(default_factory=dict)
    #: The :attr:`trace`, once assembled.
    columns: Optional[FunctionalTrace] = field(default=None, repr=False, compare=False)

    @property
    def instructions(self) -> int:
        return len(self.pcs)

    @property
    def trace(self) -> FunctionalTrace:
        """The run as a :class:`FunctionalTrace`, assembled on first use.

        It shares the ``pcs`` column; the other columns follow from the
        pcs, the op stream and ``taken_at``, so a campaign that never
        times the run never holds them.
        """
        if self.columns is None:
            self.columns = assemble_trace(
                self.program, self.pcs, self.taken_at, self.op_instr,
                self.op_wa, self.op_shift, halted=True,
            )
        return self.columns

    @property
    def total_ops(self) -> int:
        return len(self.op_wa)

    def value_at(self, word_address: int, op_ordinal: int) -> int:
        """Architecturally visible value of a word *before* op ``op_ordinal``.

        Stores merge sub-word writes, so the history holds full merged
        words; the value before ordinal ``k`` is the last merge strictly
        below ``k`` (the initial image when none).
        """
        history = self.store_hist.get(word_address)
        if not history:
            return self.mem_init.get(word_address, 0)
        position = bisect.bisect_left(history, (op_ordinal, -1))
        if position == 0:
            return self.mem_init.get(word_address, 0)
        return history[position - 1][1]

    def memory_before(self, instr_index: int) -> Dict[int, int]:
        """The golden memory image right before instruction ``instr_index``:
        the initial image overlaid with each stored word's last merge
        before that instruction."""
        ordinal = bisect.bisect_left(self.op_instr, instr_index) + 1
        mem = dict(self.mem_init)
        for word_address, history in self.store_hist.items():
            position = bisect.bisect_left(history, (ordinal, -1))
            if position:
                mem[word_address] = history[position - 1][1]
        return mem

    def checkpoint_before(self, instr_index: int) -> Tuple[int, List[int]]:
        """The latest checkpoint at or before instruction ``instr_index``:
        its instruction index and a copy of its registers."""
        number = min(instr_index // SNAPSHOT_INTERVAL, len(self.checkpoint_flags) - 1)
        regs = self.checkpoint_regs[32 * number : 32 * number + 32].tolist()
        return number * SNAPSHOT_INTERVAL, regs

    def snapshot_before(self, instr_index: int) -> Snapshot:
        """The full golden state at the latest checkpoint at or before
        instruction ``instr_index``, freshly built (the caller owns it)."""
        index, regs = self.checkpoint_before(instr_index)
        flags = self.checkpoint_flags[index // SNAPSHOT_INTERVAL]
        cc = (bool(flags & 8), bool(flags & 4), bool(flags & 2), bool(flags & 1))
        return Snapshot(index, self.pcs[index], regs, cc, self.memory_before(index))

    def word_ops(self) -> Dict[int, array]:
        """Per-word op-ordinal index, built once from ``op_wa``."""
        index = self.op_index
        if not index:
            for ordinal, wa in enumerate(self.op_wa, 1):
                ops = index.get(wa)
                if ops is None:
                    ops = index[wa] = array("I")
                ops.append(ordinal)
        return index


def assemble_trace(
    program: Program,
    pcs: List[int],
    taken_at: Iterable[int],
    op_instr: List[int],
    op_wa: List[int],
    op_shift: List[int],
    *,
    halted: bool,
    prefix: Optional[FunctionalTrace] = None,
    start: int = 0,
) -> FunctionalTrace:
    """The :class:`FunctionalTrace` of a run: ``pcs`` retired from
    instruction ``start`` on (shared, not copied, when ``start`` is 0),
    the retired-instruction indices of its taken control transfers and
    its op stream.  A run resumed at ``start`` takes its first ``start``
    instructions from ``prefix`` (the golden trace it resumed from), so
    only the resumed suffix is built."""
    static = {ins.address: ins for ins in program.instructions}
    addresses: List[Optional[int]] = [None] * len(pcs)
    for index, wa, shift in zip(op_instr, op_wa, op_shift):
        addresses[index - start] = wa | shift >> 3
    taken = bytearray(len(pcs))
    for index in taken_at:
        taken[index - start] = 1
    trace = FunctionalTrace(
        program_name=program.name,
        pcs=pcs,
        instructions=[static[pc] for pc in pcs],
        addresses=addresses,
        taken=taken,
        halted=halted,
    )
    if prefix is not None:
        for column in ("pcs", "instructions", "addresses", "taken"):
            head = getattr(prefix, column)[:start]
            head += getattr(trace, column)
            setattr(trace, column, head)
    return trace


@dataclass
class Watch:
    """One faulted word followed through a run (a fault campaign's resume).

    ``lru`` is the word's DL1 set, in its golden state at the start of
    the run.  Every access to that set replays it; when the word's line
    is evicted or refilled, the run's memory (the cache-visible copy)
    and ``backing`` (the below-DL1 copy) exchange the word as a
    write-back / refill would, so a corrupted cache copy is written
    back, discarded or re-imported exactly when the cache would do it.
    ``backing`` is updated in place; a run that does not record
    compares its pcs with ``golden_pcs`` as it goes.
    """

    word: int
    backing: int
    lru: LruSet
    line_bits: int
    set_mask: int
    golden_pcs: List[int]


#: How an :func:`execute` run ended.
HALTED = "halted"
CRASH = "crash"  #: a PC outside the text segment or a misaligned access
LIMIT = "limit"  #: more than ``limit`` instructions retired


@dataclass
class Execution:
    """What one :func:`execute` run produced.

    The columns are filled only by a recording run.  ``pcs`` holds the
    pcs retired from ``start.index`` on; ``taken_at`` and ``op_instr``
    hold absolute retired-instruction indices, so a run's columns extend
    the columns of the run it resumed.  ``store_hist`` numbers the run's
    own ops from 1.
    """

    status: str
    #: Why a :data:`CRASH` run stopped.
    detail: str
    #: The machine state right before instruction ``state.index``: the
    #: instruction that crashed, or the first one not retired.
    state: Snapshot
    pcs: List[int]
    taken_at: array
    op_instr: List[int]
    op_wa: List[int]
    op_store: List[bool]
    op_size: List[int]
    op_shift: List[int]
    store_hist: Dict[int, List[Tuple[int, int]]]
    #: A recording run's checkpoints: the state before every retired
    #: instruction whose index is a multiple of :data:`SNAPSHOT_INTERVAL`,
    #: checkpoint ``j`` being the ``j``-th from ``start.index`` on.  Its
    #: 32 registers are ``checkpoint_regs[32 * j : 32 * j + 32]`` and its
    #: flags ``checkpoint_flags[j]``, packed as ``n<<3 | z<<2 | v<<1 | c``;
    #: its pc is the pc retired at that index.
    checkpoint_regs: array
    checkpoint_flags: bytearray
    #: A watched run that does not record: whether every retired pc
    #: equalled ``watch.golden_pcs`` at its index.
    stream_match: bool


def execute(
    table: Dict[int, tuple],
    start: Snapshot,
    limit: int,
    *,
    record: bool = True,
    watch: Optional[Watch] = None,
) -> Execution:
    """Run the pre-decoded ``table`` from ``start`` until HALT retires,
    a crash, or more than ``limit`` instructions (``start.index``
    included) have retired.  ``start`` is never mutated."""
    mem = dict(start.mem)
    regs = list(start.regs)
    n, z, v, c = start.cc
    pc = start.pc
    retired = start.index
    pcs: List[int] = []
    taken_at = array("I")
    op_instr: List[int] = []
    op_wa: List[int] = []
    op_store: List[bool] = []
    op_size: List[int] = []
    op_shift: List[int] = []
    store_hist: Dict[int, List[Tuple[int, int]]] = {}
    checkpoint_regs = array("I")
    checkpoint_flags = bytearray()
    next_checkpoint = -(-retired // SNAPSHOT_INTERVAL) * SNAPSHOT_INTERVAL if record else -1
    status = detail = ""
    tget = table.get
    mget = mem.get
    pcs_append = pcs.append
    taken_append = taken_at.append
    if watch is not None:
        line_bits = watch.line_bits
        set_mask = watch.set_mask
        fault_wa = watch.word
        line_mask = ~((1 << line_bits) - 1)
        w_line = fault_wa & line_mask
        w_set = (fault_wa >> line_bits) & set_mask
        w_back = watch.backing
        set_access = watch.lru.access
        golden_pcs = watch.golden_pcs
        golden_len = len(golden_pcs)
    stream_match = watch is not None

    while True:
        if retired == next_checkpoint:
            checkpoint_regs.fromlist(regs)
            checkpoint_flags.append(n << 3 | z << 2 | v << 1 | c)
            next_checkpoint += SNAPSHOT_INTERVAL
        t = tget(pc)
        if t is None:
            status, detail = CRASH, f"PC outside text segment: {pc:#x}"
            break
        op, rd, rs1, rs2, imm, imm_u, uses_imm, size, fall, target, sx = t
        next_pc = fall
        if op < 18:
            a = regs[rs1]
            b = imm_u if uses_imm else regs[rs2]
            if op == _OP_ADD:
                r = (a + b) & _M32
            elif op == _OP_SET:
                r = imm_u
            elif op == _OP_SUB:
                r = (a - b) & _M32
            elif op == _OP_ADDCC:
                total = a + b
                r = total & _M32
                v = ((a ^ r) & (b ^ r) & _SIGN) != 0
                c = total > _M32
                n = r >= _SIGN
                z = r == 0
            elif op == _OP_SUBCC:
                total = a - b
                r = total & _M32
                v = ((a ^ b) & (a ^ r) & _SIGN) != 0
                c = a < b
                n = r >= _SIGN
                z = r == 0
            elif op == _OP_SLL:
                r = (a << (b & 31)) & _M32
            elif op == _OP_SRL:
                r = a >> (b & 31)
            elif op == _OP_SRA:
                sa = a - 0x100000000 if a & _SIGN else a
                r = (sa >> (b & 31)) & _M32
            elif op == _OP_AND:
                r = a & b
            elif op == _OP_OR:
                r = a | b
            elif op == _OP_XOR:
                r = a ^ b
            elif op == _OP_ANDCC:
                r = a & b
                n = r >= _SIGN
                z = r == 0
                v = c = False
            elif op == _OP_ORCC:
                r = a | b
                n = r >= _SIGN
                z = r == 0
                v = c = False
            elif op == _OP_XORCC:
                r = a ^ b
                n = r >= _SIGN
                z = r == 0
                v = c = False
            elif op == _OP_SMUL:
                sa = a - 0x100000000 if a & _SIGN else a
                sb = b - 0x100000000 if b & _SIGN else b
                r = (sa * sb) & _M32
            elif op == _OP_UMUL:
                r = (a * b) & _M32
            elif op == _OP_SDIV:
                if b == 0:
                    r = _M32
                else:
                    sa = a - 0x100000000 if a & _SIGN else a
                    sb = b - 0x100000000 if b & _SIGN else b
                    r = (int(sa / sb) if sb else 0) & _M32
            else:  # _OP_UDIV
                r = _M32 if b == 0 else (a // b) & _M32
            if rd:
                regs[rd] = r
        elif op < 20:  # _OP_LOAD, _OP_STORE
            is_store = op == _OP_STORE
            address = (regs[rs1] + (imm if uses_imm else regs[rs2])) & _M32
            if address & (size - 1):
                status = CRASH
                detail = f"misaligned {size}-byte {'write' if is_store else 'read'} at {address:#x}"
                break
            wa = address & ~0x3
            shift = (address & 0x3) * 8
            if record:
                op_instr.append(retired)
                op_wa.append(wa)
                op_store.append(is_store)
                op_size.append(size)
                op_shift.append(shift)
            if watch is not None and (address >> line_bits) & set_mask == w_set:
                evicted_line, evicted_dirty, filled = set_access(
                    address & line_mask, is_store
                )
                if evicted_line == w_line:
                    if evicted_dirty:
                        w_back = mem[fault_wa]
                    else:
                        mem[fault_wa] = w_back
                if filled and address & line_mask == w_line:
                    mem[fault_wa] = w_back
            if is_store:
                value = regs[rd]
                if size == 4:
                    word = value
                else:
                    mask = ((1 << (8 * size)) - 1) << shift
                    word = (mget(wa, 0) & ~mask) | ((value << shift) & mask)
                mem[wa] = word
                if record:
                    store_hist.setdefault(wa, []).append((len(op_wa), word))
            else:
                word = mget(wa, 0)
                if size == 4:
                    raw = word
                else:
                    raw = (word >> shift) & (0xFF if size == 1 else 0xFFFF)
                    if sx == 1 and raw & 0x80:
                        raw |= 0xFFFFFF00
                    elif sx == 2 and raw & 0x8000:
                        raw |= 0xFFFF0000
                if rd:
                    regs[rd] = raw
        elif op < 36:
            if op == _OP_BA:
                taken = True
            elif op == _OP_BN:
                taken = False
            elif op == _OP_BE:
                taken = z
            elif op == _OP_BNE:
                taken = not z
            elif op == _OP_BG:
                taken = not (z or (n != v))
            elif op == _OP_BLE:
                taken = z or (n != v)
            elif op == _OP_BGE:
                taken = n == v
            elif op == _OP_BL:
                taken = n != v
            elif op == _OP_BGU:
                taken = not (c or z)
            elif op == _OP_BLEU:
                taken = c or z
            elif op == _OP_BCC:
                taken = not c
            elif op == _OP_BCS:
                taken = c
            elif op == _OP_BPOS:
                taken = not n
            elif op == _OP_BNEG:
                taken = n
            elif op == _OP_BVC:
                taken = not v
            else:  # _OP_BVS
                taken = v
            if taken:
                next_pc = target
                if record:
                    taken_append(retired)
        elif op == _OP_CALL:
            if rd:
                regs[rd] = pc + INSTRUCTION_BYTES
            next_pc = target
            if record:
                taken_append(retired)
        elif op == _OP_JUMP:
            jump_target = (regs[rs1] + imm) & _M32
            if rd:
                regs[rd] = pc + INSTRUCTION_BYTES
            next_pc = jump_target
            if record:
                taken_append(retired)
        # _OP_NOP and _OP_HALT fall through: HALT retires (and counts
        # against the limit) like any other instruction.
        if record:
            pcs_append(pc)
        elif stream_match and (retired >= golden_len or golden_pcs[retired] != pc):
            stream_match = False
        retired += 1
        pc = next_pc
        if retired > limit:
            status = LIMIT
            break
        if op == _OP_HALT:
            status = HALTED
            break

    if watch is not None:
        watch.backing = w_back
    return Execution(
        status=status,
        detail=detail,
        state=Snapshot(retired, pc, regs, (n, z, v, c), mem),
        pcs=pcs,
        taken_at=taken_at,
        op_instr=op_instr,
        op_wa=op_wa,
        op_store=op_store,
        op_size=op_size,
        op_shift=op_shift,
        store_hist=store_hist,
        checkpoint_regs=checkpoint_regs,
        checkpoint_flags=checkpoint_flags,
        stream_match=stream_match,
    )


def golden_pass(
    program: Program, *, max_instructions: int = 5_000_000
) -> GoldenRun:
    """Execute the clean program once, recording the shared golden artefacts."""
    table = predecode(program)
    mem_init = initial_memory_words(program)
    regs = [0] * 32
    regs[STACK_POINTER] = program.stack_top & _M32
    entry = Snapshot(0, program.entry, regs, (False, False, False, False), mem_init)
    run = execute(table, entry, max_instructions)
    if run.status == CRASH:
        raise LeanExecutionError(f"golden {run.detail}")
    if run.status == LIMIT:
        raise ExecutionLimitExceeded(
            f"{program.name}: exceeded {max_instructions} retired "
            "instructions without halting"
        )
    return GoldenRun(
        program=program,
        table=table,
        pcs=run.pcs,
        taken_at=run.taken_at,
        op_instr=run.op_instr,
        op_wa=run.op_wa,
        op_store=run.op_store,
        op_size=run.op_size,
        op_shift=run.op_shift,
        store_hist=run.store_hist,
        checkpoint_regs=run.checkpoint_regs,
        checkpoint_flags=run.checkpoint_flags,
        mem_init=mem_init,
        mem_final=run.state.mem,
    )


def run_program(program: Program, *, max_instructions: int = 5_000_000) -> FunctionalTrace:
    """Run ``program`` to completion and return its trace."""
    return golden_pass(program, max_instructions=max_instructions).trace
