"""Fault-tracking resume over a golden run: the campaign side of the interpreter.

The clean run of a (kernel, scale) comes from
:func:`repro.functional.interpreter.golden_pass`, the one interpreter
production paths run to completion; the object interpreter
(:mod:`repro.functional.reference`), about 11x slower on the 16 paper
kernels (PERFORMANCE.md §3), is its test oracle.  This module adds what
a fault campaign needs on top of the golden artefacts, on the same
pre-decoded tables:

* :func:`resume_faulty` re-executes a *diverged* injection from the
  nearest golden snapshot instead of from scratch.  The prefix up to
  the divergence point is golden by construction (the triage pass
  proved no corrupted value was architecturally visible before it), so
  only ``divergence → end`` runs with fault tracking: the faulted
  word's set, an :class:`~repro.memory.cache.LruSet` like every set of
  the timing caches, decides when the corrupted cache copy is written
  back, discarded or re-imported (it is the only set whose state is
  architecturally observable).

* :func:`golden_state_at` and :func:`replay_set_state` rebuild the
  golden register/memory state and one set's cache metadata at any
  point of the run, for triage and resume.

Semantics are bit-identical to the full re-execution of the test
oracle :mod:`repro.campaign.reference`; the differential tests in
``tests/test_batched_replay.py`` pin the equivalence over full grids.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.functional.interpreter import (  # the shared decode tables
    _M32, _SIGN, _OP_ADD, _OP_SET, _OP_SUB, _OP_ADDCC, _OP_SUBCC, _OP_SLL,
    _OP_SRL, _OP_SRA, _OP_AND, _OP_OR, _OP_XOR, _OP_ANDCC, _OP_ORCC,
    _OP_XORCC, _OP_SMUL, _OP_UMUL, _OP_SDIV, _OP_LOAD, _OP_STORE, _OP_BA,
    _OP_BN, _OP_BE, _OP_BNE, _OP_BG, _OP_BLE, _OP_BGE, _OP_BL, _OP_BGU,
    _OP_BLEU, _OP_BCC, _OP_BCS, _OP_BPOS, _OP_BNEG, _OP_BVC, _OP_CALL,
    _OP_JUMP, _OP_HALT, FunctionalTrace, GoldenRun,
)
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.memory.cache import LruSet


def _alu_eval(op: int, a: int, b: int, imm_u: int):
    """One ALU op on 32-bit operands -> ``(result, flags)``.

    ``flags`` is the resulting ``(n, z, v, c)`` tuple for cc-setting ops
    and None otherwise.  Bit-identical to the inline dispatch of
    :func:`golden_pass` / :func:`resume_faulty`; used where one op must
    be evaluated for *two* operand sets (the timeline-delta walk runs
    every tainted op once with golden and once with faulty values).
    """
    if op == _OP_ADD:
        return (a + b) & _M32, None
    if op == _OP_SET:
        return imm_u, None
    if op == _OP_SUB:
        return (a - b) & _M32, None
    if op == _OP_ADDCC:
        total = a + b
        r = total & _M32
        v = ((a ^ r) & (b ^ r) & _SIGN) != 0
        return r, (r >= _SIGN, r == 0, v, total > _M32)
    if op == _OP_SUBCC:
        total = a - b
        r = total & _M32
        v = ((a ^ b) & (a ^ r) & _SIGN) != 0
        return r, (r >= _SIGN, r == 0, v, a < b)
    if op == _OP_SLL:
        return (a << (b & 31)) & _M32, None
    if op == _OP_SRL:
        return a >> (b & 31), None
    if op == _OP_SRA:
        sa = a - 0x100000000 if a & _SIGN else a
        return (sa >> (b & 31)) & _M32, None
    if op == _OP_AND:
        return a & b, None
    if op == _OP_OR:
        return a | b, None
    if op == _OP_XOR:
        return a ^ b, None
    if op == _OP_ANDCC:
        r = a & b
        return r, (r >= _SIGN, r == 0, False, False)
    if op == _OP_ORCC:
        r = a | b
        return r, (r >= _SIGN, r == 0, False, False)
    if op == _OP_XORCC:
        r = a ^ b
        return r, (r >= _SIGN, r == 0, False, False)
    if op == _OP_SMUL:
        sa = a - 0x100000000 if a & _SIGN else a
        sb = b - 0x100000000 if b & _SIGN else b
        return (sa * sb) & _M32, None
    if op == _OP_UMUL:
        return (a * b) & _M32, None
    if op == _OP_SDIV:
        if b == 0:
            return _M32, None
        sa = a - 0x100000000 if a & _SIGN else a
        sb = b - 0x100000000 if b & _SIGN else b
        return (int(sa / sb) if sb else 0) & _M32, None
    # _OP_UDIV
    return (_M32 if b == 0 else (a // b) & _M32), None


def _branch_taken(op: int, n: bool, z: bool, v: bool, c: bool) -> bool:
    """Branch direction of ``op`` under condition codes ``(n, z, v, c)``."""
    if op == _OP_BA:
        return True
    if op == _OP_BN:
        return False
    if op == _OP_BE:
        return z
    if op == _OP_BNE:
        return not z
    if op == _OP_BG:
        return not (z or (n != v))
    if op == _OP_BLE:
        return z or (n != v)
    if op == _OP_BGE:
        return n == v
    if op == _OP_BL:
        return n != v
    if op == _OP_BGU:
        return not (c or z)
    if op == _OP_BLEU:
        return c or z
    if op == _OP_BCC:
        return not c
    if op == _OP_BCS:
        return c
    if op == _OP_BPOS:
        return not n
    if op == _OP_BNEG:
        return n
    if op == _OP_BVC:
        return not v
    return v  # _OP_BVS


def golden_state_at(
    golden: GoldenRun,
    instr_index: int,
    state: Optional[Tuple[int, List[int], Dict[int, int]]] = None,
) -> Tuple[List[int], Dict[int, int]]:
    """Exact golden ``(registers, memory)`` right before retiring
    instruction ``instr_index``, rebuilt from the nearest snapshot.

    An exact golden ``state = (index, registers, memory)`` with ``index``
    in ``[snapshot, instr_index]`` is advanced in place instead.

    Control flow is taken from the recorded PC stream, so only data
    effects (ALU results, loads, stores, link writes) are replayed —
    branch conditions never need evaluating.  Condition codes are not
    reconstructed: callers that need flags recompute them from operand
    values at the defining op.
    """
    snap = golden.snapshot_before(instr_index)
    if state is not None and snap.index <= state[0] <= instr_index:
        start, regs, mem = state
    else:
        start, regs, mem = snap.index, list(snap.regs), dict(snap.mem)
    pcs = golden.pcs
    table = golden.table
    mget = mem.get
    for index in range(start, instr_index):
        pc = pcs[index]
        op, rd, rs1, rs2, imm, imm_u, uses_imm, size, _fall, _target, sx = table[pc]
        if op < 18:
            if rd:
                regs[rd], _flags = _alu_eval(
                    op, regs[rs1], imm_u if uses_imm else regs[rs2], imm_u
                )
        elif op == _OP_LOAD:
            if rd:
                address = (regs[rs1] + (imm if uses_imm else regs[rs2])) & _M32
                word = mget(address & ~0x3, 0)
                if size == 4:
                    raw = word
                else:
                    shift = (address & 0x3) * 8
                    raw = (word >> shift) & (0xFF if size == 1 else 0xFFFF)
                    if sx == 1 and raw & 0x80:
                        raw |= 0xFFFFFF00
                    elif sx == 2 and raw & 0x8000:
                        raw |= 0xFFFF0000
                regs[rd] = raw
        elif op == _OP_STORE:
            address = (regs[rs1] + (imm if uses_imm else regs[rs2])) & _M32
            wa = address & ~0x3
            value = regs[rd]
            if size == 4:
                mem[wa] = value
            else:
                shift = (address & 0x3) * 8
                mask = ((1 << (8 * size)) - 1) << shift
                mem[wa] = (mget(wa, 0) & ~mask) | ((value << shift) & mask)
        elif op == _OP_CALL or op == _OP_JUMP:
            if rd:
                regs[rd] = pc + INSTRUCTION_BYTES
        # branches / NOP / HALT: no data effects
    return regs, mem


def replay_set_state(
    golden: GoldenRun,
    *,
    set_index: int,
    line_bits: int,
    set_mask: int,
    ways: int,
    write_allocate: bool,
    write_back: bool,
    until_op: int,
) -> LruSet:
    """Golden metadata state of one set right before op ``until_op`` (1-based)."""
    model = LruSet(ways, write_allocate=write_allocate, write_back=write_back)
    line_mask = ~((1 << line_bits) - 1)
    op_wa = golden.op_wa
    op_store = golden.op_store
    for position in range(min(until_op - 1, len(op_wa))):
        wa = op_wa[position]
        if (wa >> line_bits) & set_mask == set_index:
            model.access(wa & line_mask, op_store[position])
    return model


@dataclass
class FaultyRunResult:
    """What one resumed faulty execution produced."""

    faulty_instructions: int
    stream_matches_golden: bool
    extra_events: List[str]
    #: Final architectural memory image (word dict), flush semantics applied.
    final_mem: Dict[int, int]
    halted: bool
    #: The whole faulty run, golden prefix included (when recorded).
    trace: Optional[FunctionalTrace] = None


def resume_faulty(
    golden: GoldenRun,
    *,
    divergence_instr: int,
    fault_wa: int,
    cache_xor: int,
    backing_value: int,
    resident: bool,
    set_state: LruSet,
    line_bits: int,
    set_mask: int,
    limit: int,
    record: bool = False,
) -> FaultyRunResult:
    """Re-execute a diverged injection from the nearest golden snapshot.

    ``divergence_instr`` is the retired-instruction index of the first
    load that observes a corrupted value.  The caller (triage) supplies
    the corruption state at that point: ``cache_xor`` is the XOR mask
    between the faulted word's cache-visible value and its golden value
    (0 when the corruption lives only below the DL1), ``backing_value``
    the word's below-DL1 copy, ``resident``/``set_state`` the golden
    metadata of the word's set right before the diverging op.

    ``record`` also returns the faulty run as a :class:`FunctionalTrace`:
    the golden columns up to the snapshot, then what the resume retired
    (taken control transfers and memory addresses recorded sparsely, as
    :func:`~repro.functional.interpreter.golden_pass` does).
    """
    program = golden.program
    table = golden.table
    pcs = golden.pcs
    golden_len = len(pcs)
    snap = golden.snapshot_before(divergence_instr)
    regs = list(snap.regs)
    n, z, v, c = snap.cc
    mem = dict(snap.mem)
    pc = snap.pc
    retired = snap.index

    line_mask = ~((1 << line_bits) - 1)
    w_line = fault_wa & line_mask
    w_set = (fault_wa >> line_bits) & set_mask
    w_back = backing_value
    faulty = False  # switches at the divergence instruction
    stream_match = True
    extra_events: List[str] = []
    halted = False

    tget = table.get
    mget = mem.get
    set_access = set_state.access
    rec_pcs: List[int] = []
    rec_taken: List[int] = []
    rec_addresses: List[Tuple[int, int]] = []

    while True:
        if not faulty and retired == divergence_instr:
            faulty = True
            if resident:
                mem[fault_wa] = mget(fault_wa, 0) ^ cache_xor
            else:
                mem[fault_wa] = w_back
        t = tget(pc)
        if t is None:
            extra_events.append("crash")
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
        elif op == _OP_LOAD:
            address = (regs[rs1] + (imm if uses_imm else regs[rs2])) & _M32
            if address & (size - 1):
                extra_events.append("crash")
                break
            wa = address & ~0x3
            if faulty and (address >> line_bits) & set_mask == w_set:
                evicted_line, evicted_dirty, filled = set_access(
                    address & line_mask, False
                )
                if evicted_line == w_line:
                    if evicted_dirty:
                        w_back = mem[fault_wa]
                    else:
                        mem[fault_wa] = w_back
                if filled and address & line_mask == w_line:
                    mem[fault_wa] = w_back
            word = mget(wa, 0)
            if size == 4:
                raw = word
            else:
                shift = (address & 0x3) * 8
                raw = (word >> shift) & (0xFF if size == 1 else 0xFFFF)
                if sx == 1 and raw & 0x80:
                    raw |= 0xFFFFFF00
                elif sx == 2 and raw & 0x8000:
                    raw |= 0xFFFF0000
            if rd:
                regs[rd] = raw
            if record:
                rec_addresses.append((retired, address))
        elif op == _OP_STORE:
            address = (regs[rs1] + (imm if uses_imm else regs[rs2])) & _M32
            if address & (size - 1):
                extra_events.append("crash")
                break
            wa = address & ~0x3
            if faulty and (address >> line_bits) & set_mask == w_set:
                evicted_line, evicted_dirty, filled = set_access(
                    address & line_mask, True
                )
                if evicted_line == w_line:
                    if evicted_dirty:
                        w_back = mem[fault_wa]
                    else:
                        mem[fault_wa] = w_back
                if filled and address & line_mask == w_line:
                    mem[fault_wa] = w_back
            value = regs[rd]
            if size == 4:
                mem[wa] = value
            else:
                shift = (address & 0x3) * 8
                mask = ((1 << (8 * size)) - 1) << shift
                mem[wa] = (mget(wa, 0) & ~mask) | ((value << shift) & mask)
            if record:
                rec_addresses.append((retired, address))
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
                    rec_taken.append(retired)
        elif op == _OP_CALL:
            if rd:
                regs[rd] = pc + INSTRUCTION_BYTES
            next_pc = target
            if record:
                rec_taken.append(retired)
        elif op == _OP_JUMP:
            jump_target = (regs[rs1] + imm) & _M32
            if rd:
                regs[rd] = pc + INSTRUCTION_BYTES
            next_pc = jump_target
            if record:
                rec_taken.append(retired)
        # _OP_NOP and _OP_HALT fall through: a HALT past the limit is a
        # hang, as in the object interpreter's re-execution.
        if faulty and stream_match and (
            retired >= golden_len or pcs[retired] != pc
        ):
            stream_match = False
        if record:
            rec_pcs.append(pc)
        retired += 1
        if retired > limit:
            extra_events.append("hang")
            break
        if op == _OP_HALT:
            halted = True
            break
        pc = next_pc

    # End-of-run flush semantics for the faulted word: dirty resident
    # lines are written back (the corrupted cache copy becomes the
    # final value), clean resident copies are discarded (the backing
    # copy is final).  Every other word's cache and backing copies are
    # architecturally identical, so `mem` already is the final image.
    if set_state.resident(w_line):
        if set_state.line_dirty(w_line):
            w_back = mem.get(fault_wa, 0)
        else:
            mem[fault_wa] = w_back
    else:
        mem[fault_wa] = w_back

    if halted and retired != golden_len:
        stream_match = False

    return FaultyRunResult(
        faulty_instructions=retired,
        stream_matches_golden=stream_match and halted and not extra_events,
        extra_events=extra_events,
        final_mem=mem,
        halted=halted,
        trace=_faulty_trace(golden, snap.index, rec_pcs, rec_taken, rec_addresses, halted)
        if record
        else None,
    )


def _faulty_trace(
    golden: GoldenRun,
    start: int,
    pcs: List[int],
    taken_at: List[int],
    addresses_at: List[Tuple[int, int]],
    halted: bool,
) -> FunctionalTrace:
    """The golden columns before instruction ``start``, then the resumed
    instructions ``pcs`` with their sparse taken indices and addresses."""
    prefix = golden.trace
    static = {ins.address: ins for ins in golden.program.instructions}
    addresses = prefix.addresses[:start] + [None] * len(pcs)
    for index, address in addresses_at:
        addresses[index] = address
    taken = prefix.taken[:start] + bytearray(len(pcs))
    for index in taken_at:
        taken[index] = 1
    return FunctionalTrace(
        program_name=golden.program.name,
        pcs=prefix.pcs[:start] + pcs,
        instructions=prefix.instructions[:start] + [static[pc] for pc in pcs],
        addresses=addresses,
        taken=taken,
        halted=halted,
    )


def memories_equal(mine: Dict[int, int], theirs: Dict[int, int]) -> bool:
    """Word-dict equality with absent-means-zero semantics."""
    for wa, value in mine.items():
        if value != theirs.get(wa, 0):
            return False
    for wa, value in theirs.items():
        if value and wa not in mine:
            return False
    return True
