"""Analytical fault triage for the batched replay backend.

Given the golden artefacts of one (kernel, scale) group — the golden
run and the per-word cache event timelines — this module
classifies most fault points with *zero* re-execution:

* a flip that fires while the word's line is not resident corrupts no
  live data → ``masked``;
* a SECDED-protected flip is healed (and recorded) by whichever decode
  touches it first: a load or sub-word RMW store (``load_corrected``),
  a dirty writeback (``writeback_corrected``) — or dies silently under
  a full-word overwrite / clean eviction → ``corrected`` / ``masked``;
* a parity-protected flip under write-through is refetched on first
  read (``load_detected_refetch``) or silently discarded → ``detected``
  / ``masked``;
* an unprotected (raw) flip is walked as an XOR mask through the
  word's event stream — overwrites shrink it, dirty writebacks push it
  into the backing store, clean evictions discard it, fills re-import
  it — until it either dies (``masked``), survives to the final image
  unread (``sdc``), or becomes visible to a load;
* an L2-targeted flip is superseded by the first backing write, healed
  by the first backing read under a SECDED L2 (``l2_corrected``), or —
  under the unprotected baseline — enters the DL1 on first fill and
  joins the same raw mask walk.

The last bullet's endpoint — a load that observes a corrupted value —
is followed by the sparse timeline-delta walk (:func:`_walk_divergent`),
which interprets only while a register or the flags are corrupted and
otherwise jumps from one access of a corrupted word to the next.  Only
a walk that gives up yields a :class:`ResiduePlan`, re-run from the
golden state at the nearest checkpoint by
:func:`repro.campaign.replay._run_residue`.

Every verdict is one of the two: the tree is total over the inputs the
system can build — the five policies of :mod:`repro.core.policies`
(parity only under write-through, raw words only under write-back, a
SECDED L2 or an unprotected one), LRU replacement, lines of at least
one word.  Under those inputs a single-bit flip always changes a raw
word, SECDED corrects every single-bit flip, and a write-through
timeline has no dirty or line-store events (``tests/test_triage_inputs.py``).

The equivalence of every branch against the full re-execution oracle
(:mod:`oracles.campaign`) is pinned by the full-grid
differential tests in ``tests/test_batched_replay.py``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.campaign.timeline import (
    EV_END_DISCARD,
    EV_END_FLUSH,
    EV_EVICT_CLEAN,
    EV_EVICT_DIRTY,
    EV_FILL,
    EV_LINE_STORE,
    EV_LOAD,
    EV_STORE,
    CacheGeometry,
    Event,
    subword_mask,
)
from repro.ecc.codec import DecodeResult, DecodeStatus
from repro.functional.interpreter import (  # the shared decode tables
    _M32, _SIGN, _OP_ADD, _OP_SET, _OP_SUB, _OP_ADDCC, _OP_SUBCC, _OP_SLL,
    _OP_SRL, _OP_SRA, _OP_AND, _OP_OR, _OP_XOR, _OP_ANDCC, _OP_ORCC,
    _OP_XORCC, _OP_SMUL, _OP_UMUL, _OP_SDIV, _OP_LOAD, _OP_STORE, _OP_BA,
    _OP_BN, _OP_BE, _OP_BNE, _OP_BG, _OP_BLE, _OP_BGE, _OP_BL, _OP_BGU,
    _OP_BLEU, _OP_BCC, _OP_BCS, _OP_BPOS, _OP_BNEG, _OP_BVC, _OP_CALL,
    _OP_JUMP, _OP_NOP, GoldenRun,
)
from repro.isa.instructions import INSTRUCTION_BYTES
from repro.memory.config import CacheConfig, WritePolicy
from repro.telemetry.metrics import inc


def _alu_eval(op: int, a: int, b: int, imm_u: int):
    """One ALU op on 32-bit operands -> ``(result, flags)``.

    ``flags`` is the resulting ``(n, z, v, c)`` tuple for cc-setting ops
    and None otherwise.  Bit-identical to the inline dispatch of
    :func:`repro.functional.interpreter.execute`; used where one op must
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
    state: Optional[Tuple[int, List[int]]] = None,
) -> List[int]:
    """Exact golden registers right before retiring instruction
    ``instr_index``, replayed from the latest register checkpoint at or
    before it: at most ``SNAPSHOT_INTERVAL - 1`` instructions.

    An exact golden ``state = (index, registers)`` with ``index`` in
    ``[checkpoint, instr_index]`` is advanced in place instead.

    Control flow is taken from the recorded PC stream and loads read
    the store history (:meth:`~repro.functional.interpreter.GoldenRun.value_at`),
    so only register effects (ALU results, loads, link writes) are
    replayed — branch conditions and stores never need evaluating.
    Condition codes are not reconstructed: callers that need flags
    recompute them from operand values at the defining op.
    """
    start, regs = golden.checkpoint_before(instr_index)
    if state is not None and start <= state[0] <= instr_index:
        start, regs = state
    pcs = golden.pcs
    table = golden.table
    op_wa = golden.op_wa
    op_shift = golden.op_shift
    value_at = golden.value_at
    k = bisect_left(golden.op_instr, start)  # memory ops retired before `start`
    for index in range(start, instr_index):
        pc = pcs[index]
        op, rd, rs1, rs2, _imm, imm_u, uses_imm, size, _fall, _target, sx = table[pc]
        if op < 18:
            if rd:
                regs[rd], _flags = _alu_eval(
                    op, regs[rs1], imm_u if uses_imm else regs[rs2], imm_u
                )
        elif op == _OP_LOAD:
            k += 1
            if rd:
                word = value_at(op_wa[k - 1], k)
                if size == 4:
                    raw = word
                else:
                    raw = (word >> op_shift[k - 1]) & (0xFF if size == 1 else 0xFFFF)
                    if sx == 1 and raw & 0x80:
                        raw |= 0xFFFFFF00
                    elif sx == 2 and raw & 0x8000:
                        raw |= 0xFFFF0000
                regs[rd] = raw
        elif op == _OP_STORE:
            k += 1
        elif op == _OP_CALL or op == _OP_JUMP:
            if rd:
                regs[rd] = pc + INSTRUCTION_BYTES
        # branches / NOP / HALT: no data effects
    return regs


@dataclass
class AnalyticOutcome:
    """A point fully classified from the golden artefacts."""

    outcome: str  #: ArchOutcome value string
    triggered: bool
    resident: bool
    dirty_at_injection: bool
    events: Tuple[str, ...] = ()
    #: True when a load *did* observe corrupted bits but the
    #: timeline-delta walk still proved the outcome without streaming.
    diverged: bool = False
    #: Faulty-minus-golden retired-instruction count; nonzero only for
    #: walk-proved stream deviations (NOP-reconvergent branch flips).
    instruction_delta: int = 0
    #: For a walk-proved divergence: the resume plan that re-executes it,
    #: which a faulty ``simulate_spec`` runs to record the faulty trace.
    plan: Optional["ResiduePlan"] = field(default=None, repr=False, compare=False)


@dataclass
class ResiduePlan:
    """A point whose corruption becomes load-visible: needs execution.

    Carries the exact machine state at the divergence point so
    :func:`~repro.campaign.replay._run_residue` can resume from the
    golden state at the nearest checkpoint instead of re-running from
    scratch.
    """

    divergence_op: int  #: 1-based ordinal of the first corrupted load
    divergence_instr: int  #: retired-instruction index of that load
    cache_xor: int  #: XOR of the faulted word's cache copy vs golden
    backing_value: int  #: absolute below-DL1 value of the word
    resident_before: bool  #: line resident right before the diverging op
    dirty_at_injection: bool  #: payload flag (state when the flip landed)


#: Triage verdicts: fully classified, or needs execution.
Verdict = Union[AnalyticOutcome, ResiduePlan]


def geometry_for(config: CacheConfig) -> CacheGeometry:
    """Timeline/resume geometry of a DL1 config."""
    return CacheGeometry(
        line_bits=config.line_bytes.bit_length() - 1,
        set_bits=config.sets.bit_length() - 1,
        ways=config.ways,
        write_back=config.write_policy is WritePolicy.WRITE_BACK,
        write_allocate=config.write_allocate,
    )


# --------------------------------------------------------------------- #
# residency / dirty state at the injection point                        #
# --------------------------------------------------------------------- #
def _state_before(
    events: Sequence[Event], ordinal: int, *, write_back: bool = True
) -> Tuple[int, bool, bool, Optional[int]]:
    """(scan position, resident, dirty, last backing-sync ordinal) right
    before op ``ordinal`` — i.e. after every event with ordinal < it."""
    resident = False
    dirty = False
    last_sync: Optional[int] = None
    position = 0
    for position, (ord_, kind, a, _b) in enumerate(events):
        if ord_ >= ordinal:
            return position, resident, dirty, last_sync
        if kind == EV_FILL:
            resident = True
            dirty = bool(a)
        elif kind in (EV_EVICT_CLEAN, EV_EVICT_DIRTY):
            if kind == EV_EVICT_DIRTY:
                last_sync = ord_
            resident = False
            dirty = False
        elif kind in (EV_STORE, EV_LINE_STORE):
            if write_back:
                dirty = True  # write-through stores never dirty a line
    return len(events), resident, dirty, last_sync


def _golden_backing(
    golden: GoldenRun, wa: int, last_sync: Optional[int]
) -> int:
    """Golden run's below-DL1 value of ``wa`` after its last writeback."""
    if last_sync is None:
        return golden.mem_init.get(wa, 0)
    return golden.value_at(wa, last_sync)


# --------------------------------------------------------------------- #
# protected-code walks (single decode heals or discards the flip)       #
# --------------------------------------------------------------------- #
def _walk_corrected(
    events: Sequence[Event], start: int
) -> Tuple[str, Tuple[str, ...]]:
    """SECDED-style flip: first decode of the word heals it."""
    for ord_, kind, a, _b in events[start:]:
        if kind == EV_LOAD:
            return "corrected", ("load_corrected",)
        if kind == EV_STORE:
            if a == 4:
                return "masked", ()  # full overwrite, never decoded
            return "corrected", ("load_corrected",)  # RMW decode
        if kind in (EV_EVICT_DIRTY, EV_END_FLUSH):
            return "corrected", ("writeback_corrected",)
        if kind in (EV_EVICT_CLEAN, EV_END_DISCARD):
            return "masked", ()
    return "masked", ()


def _walk_detected_wt(
    events: Sequence[Event], start: int
) -> Tuple[str, Tuple[str, ...]]:
    """Parity flip under write-through (never dirty): first read
    refetches clean data."""
    for ord_, kind, a, _b in events[start:]:
        if kind == EV_LOAD:
            return "detected", ("load_detected_refetch",)
        if kind == EV_STORE:
            if a == 4:
                return "masked", ()
            return "detected", ("load_detected_refetch",)  # RMW decode
        if kind == EV_EVICT_CLEAN or kind == EV_END_DISCARD:
            return "masked", ()
    return "masked", ()


# --------------------------------------------------------------------- #
# timeline-delta walk: prove load-visible corruptions without streaming #
# --------------------------------------------------------------------- #
#: Budget of one timeline-delta walk in golden instructions, interpreted
#: or skipped.  A walk that would exceed it bails to the streamed residue
#: path, trading analytical coverage against worst-case walk cost; 0
#: disables the walk entirely (every load-visible corruption streams).
TIMING_WALK_BUDGET = 100_000

#: Longest straight NOP run the reconvergence scan follows when a
#: corrupted condition code flips a branch.
_NOP_RECONVERGENCE_LIMIT = 64


def _nop_reconvergence(table, from_pc: int, to_pc: int) -> Optional[int]:
    """Number of straight fall-through NOPs leading from ``from_pc`` to
    ``to_pc``, or None when the path is not a short pure-NOP run."""
    count = 0
    pc = from_pc
    while count < _NOP_RECONVERGENCE_LIMIT:
        t = table.get(pc)
        if t is None or t[0] != _OP_NOP:
            return None
        pc = t[8]  # fall-through
        count += 1
        if pc == to_pc:
            return count
    return None


def _move_masks(kind: int, cache_mask: int, backing_mask: int) -> Tuple[int, int]:
    """The faulted word's ``(cache, backing)`` masks after one event that
    is not its own data access."""
    if kind == EV_FILL:
        return backing_mask, backing_mask
    if kind == EV_EVICT_DIRTY:
        return 0, cache_mask
    if kind == EV_EVICT_CLEAN:
        return 0, backing_mask
    if kind == EV_END_FLUSH:
        return cache_mask, cache_mask
    return cache_mask, backing_mask  # EV_LINE_STORE / EV_END_DISCARD: no data


def _bail(reason: str) -> None:
    """Count one walk that gave up; its point streams instead."""
    inc("campaign_triage_bailouts_total", labels={"reason": reason})


def _walk_divergent(
    golden: GoldenRun,
    wa: int,
    events: Sequence[Event],
    event_index: int,
    *,
    cache_mask: int,
    backing_mask: int,
    dirty_at_injection: bool,
    budget: Optional[int] = None,
) -> Optional[AnalyticOutcome]:
    """Prove a load-visible corruption's outcome without streaming it.

    Follows the *golden* instruction stream from the diverging load
    onward (control flow taken from the recorded PC stream) while
    tracking, exactly:

    * the faulty value of every tainted register — the golden value is
      in the interpreted register file, so every ALU op with tainted
      operands is evaluated once per machine and taints that die
      (``faulty == golden``) are dropped immediately;
    * the XOR delta of every word a tainted value was stored to
      (sub-word merges included), which later loads re-taint from;
    * the faulted word's cache/backing masks, continuing the raw-mask
      event walk — tainted stores *merge into* the cache mask instead of
      clearing it;
    * the faulty condition codes, only while they differ from golden.

    The walk is sparse.  While a register or the condition codes are
    corrupted it interprets instruction by instruction.  Otherwise only
    an op on a corrupted word can matter, so it jumps to the next event
    of the faulted word or op on a ``delta`` word (found through
    :meth:`~repro.functional.interpreter.GoldenRun.word_ops`) and applies it
    from the golden op stream.  Only a load that re-taints a register
    needs the register file, rebuilt by :func:`golden_state_at` from
    the last interpreted state or the nearest register checkpoint.
    Golden memory is never copied: every load reads the store history.
    Skipped instructions count against the budget like interpreted
    ones, so no verdict depends on how the walk got there.

    The faulty PC stream provably equals the golden one as long as no
    tainted value reaches an address computation, an indirect jump or a
    flipped branch.  The one provable deviation is a flipped branch
    whose divergent arm is a straight NOP run that reconverges with the
    other arm: the known fixed-penalty case, contributing a pure
    retired-instruction delta (→ ``timing`` when the final state
    matches).  Everything else returns None and the point streams
    through :func:`~repro.campaign.replay._run_residue`; correctness
    never depends on walk coverage.
    """
    budget = TIMING_WALK_BUDGET if budget is None else budget
    if budget <= 0:
        return None
    ord0 = events[event_index][0]
    table = golden.table
    pcs = golden.pcs
    golden_len = len(pcs)
    op_instr = golden.op_instr
    word_ops = golden.word_ops()
    end_ordinal = golden.total_ops + 1
    i = i0 = op_instr[ord0 - 1]
    stop = i0 + budget  # the walk gives up at this instruction
    synced = None  # (index, regs): the last golden state interpreted
    value_at = golden.value_at
    taint: Dict[int, int] = {}
    cc_f: Optional[Tuple[bool, bool, bool, bool]] = None
    delta: Dict[int, int] = {}
    k = ord0 - 1  # completed memory-op ordinal
    ei = event_index
    n_events = len(events)
    instr_delta = 0
    stream_diverged = False
    skipped = 0

    def pump() -> None:
        """Consume the faulted word's structural events up to op ``k``
        (the data access events at ``k`` are handled by the op itself)."""
        nonlocal ei, cache_mask, backing_mask
        while ei < n_events:
            e_ord, e_kind = events[ei][0], events[ei][1]
            if e_ord > k or (e_ord == k and e_kind in (EV_LOAD, EV_STORE)):
                return
            cache_mask, backing_mask = _move_masks(e_kind, cache_mask, backing_mask)
            ei += 1

    try:
        while i < golden_len:
            # Clean stretch: jump from one op on a corrupted word to the next.
            while True:
                if delta or cache_mask or backing_mask:
                    n = events[ei][0] if ei < n_events else end_ordinal
                    for word_address in delta:
                        ops = word_ops[word_address]
                        position = bisect_right(ops, k)
                        if position < len(ops) and ops[position] < n:
                            n = ops[position]
                    # Op n, or the final HALT when no op can matter any more.
                    j = op_instr[n - 1] if n < end_ordinal else golden_len - 1
                    if j >= stop:
                        return _bail("budget")
                else:
                    n = end_ordinal  # every corruption channel is dead
                if n == end_ordinal:
                    skipped += golden_len - i
                    i = golden_len
                    break
                skipped += j - i
                i = j
                k = n
                pump()
                word_address = golden.op_wa[n - 1]
                is_store = golden.op_store[n - 1]
                smask = subword_mask(golden.op_size[n - 1], golden.op_shift[n - 1])
                xor = cache_mask if word_address == wa else delta.get(word_address, 0)
                if not is_store and xor & smask and table[pcs[j]][1]:
                    k = n - 1  # a register reads corrupted bits: interpret op n
                    break
                skipped += 1
                i += 1
                if word_address == wa:
                    ei += 1  # consume this op's EV_LOAD / EV_STORE entry
                    if is_store:
                        cache_mask &= ~smask
                elif is_store and xor:
                    if xor & ~smask:
                        delta[word_address] = xor & ~smask
                    else:
                        del delta[word_address]
            if i >= golden_len:
                break
            regs = golden_state_at(golden, i, synced)
            # Tainted stretch: interpret until registers and flags are golden.
            while i < golden_len:
                if i >= stop:
                    return _bail("budget")
                pc = pcs[i]
                op, rd, rs1, rs2, imm, imm_u, uses_imm, size, fall, target, sx = table[pc]
                if op < 18:
                    a_g = regs[rs1]
                    b_g = imm_u if uses_imm else regs[rs2]
                    r_g, flags_g = _alu_eval(op, a_g, b_g, imm_u)
                    if rs1 in taint or (not uses_imm and rs2 in taint):
                        r_f, flags_f = _alu_eval(
                            op,
                            taint.get(rs1, a_g),
                            b_g if uses_imm else taint.get(rs2, b_g),
                            imm_u,
                        )
                    else:
                        r_f, flags_f = r_g, flags_g
                    if flags_g is not None:
                        cc_f = flags_f if flags_f != flags_g else None
                    if rd:
                        regs[rd] = r_g
                        if r_f != r_g:
                            taint[rd] = r_f
                        else:
                            taint.pop(rd, None)
                elif op == _OP_LOAD:
                    if rs1 in taint or (not uses_imm and rs2 in taint):
                        return _bail("tainted-address")
                    address = (regs[rs1] + (imm if uses_imm else regs[rs2])) & _M32
                    word_address = address & ~0x3
                    k += 1
                    pump()
                    word = value_at(word_address, k)
                    if word_address == wa:
                        ei += 1  # consume this op's EV_LOAD entry
                        xor = cache_mask
                    else:
                        xor = delta.get(word_address, 0)
                    if size == 4:
                        raw_g = word
                        raw_f = word ^ xor
                    else:
                        shift = (address & 0x3) * 8
                        sub = 0xFF if size == 1 else 0xFFFF
                        raw_g = (word >> shift) & sub
                        raw_f = ((word ^ xor) >> shift) & sub
                        if sx == 1:
                            if raw_g & 0x80:
                                raw_g |= 0xFFFFFF00
                            if raw_f & 0x80:
                                raw_f |= 0xFFFFFF00
                        elif sx == 2:
                            if raw_g & 0x8000:
                                raw_g |= 0xFFFF0000
                            if raw_f & 0x8000:
                                raw_f |= 0xFFFF0000
                    if rd:
                        regs[rd] = raw_g
                        if raw_f != raw_g:
                            taint[rd] = raw_f
                        else:
                            taint.pop(rd, None)
                elif op == _OP_STORE:
                    if rs1 in taint or (not uses_imm and rs2 in taint):
                        return _bail("tainted-address")
                    address = (regs[rs1] + (imm if uses_imm else regs[rs2])) & _M32
                    word_address = address & ~0x3
                    k += 1
                    pump()
                    shift = (address & 0x3) * 8
                    smask = subword_mask(size, shift)
                    value_g = regs[rd]
                    value_f = taint.get(rd, value_g)
                    xor_bits = ((value_f ^ value_g) << shift) & smask
                    if word_address == wa:
                        ei += 1  # consume this op's EV_STORE entry
                        cache_mask = (cache_mask & ~smask) | xor_bits
                    else:
                        d = (delta.get(word_address, 0) & ~smask) | xor_bits
                        if d:
                            delta[word_address] = d
                        else:
                            delta.pop(word_address, None)
                elif op < 36:  # branches
                    if cc_f is not None and i + 1 < golden_len:
                        f_next = target if _branch_taken(op, *cc_f) else fall
                        g_next = pcs[i + 1]
                        if f_next != g_next:
                            # The corrupted flags flipped this branch.  Provable
                            # only when the divergent arm is a straight NOP run
                            # reconverging with the golden arm.
                            extra = _nop_reconvergence(table, f_next, g_next)
                            if extra is not None:
                                # Faulty falls through `extra` NOPs golden skips.
                                instr_delta += extra
                                stream_diverged = True
                            else:
                                count = 0
                                j = i + 1
                                while (
                                    j < golden_len
                                    and count < _NOP_RECONVERGENCE_LIMIT
                                    and table[pcs[j]][0] == _OP_NOP
                                ):
                                    j += 1
                                    count += 1
                                if count and j < golden_len and pcs[j] == f_next:
                                    # Faulty skips `count` NOPs golden executes.
                                    instr_delta -= count
                                    stream_diverged = True
                                else:
                                    return _bail("divergent-branch")
                elif op == _OP_CALL:
                    if rd:
                        regs[rd] = pc + INSTRUCTION_BYTES
                        taint.pop(rd, None)
                elif op == _OP_JUMP:
                    if rs1 in taint:
                        return _bail("tainted-jump")
                    if rd:
                        regs[rd] = pc + INSTRUCTION_BYTES
                        taint.pop(rd, None)
                # _OP_NOP / _OP_HALT (always the last golden instruction): no effect
                i += 1
                if not taint and cc_f is None:
                    break
            synced = (i, regs)
    finally:
        inc("campaign_walk_instructions_total", i - i0 - skipped, {"mode": "interpreted"})
        inc("campaign_walk_instructions_total", skipped, {"mode": "skipped"})

    # The end-of-run flush decides where the faulted word's mask ends up.
    k = end_ordinal
    pump()
    if backing_mask or delta:
        outcome = "sdc"  # corrupt bits reached the final image unhealed
    elif stream_diverged:
        outcome = "timing"
    else:
        outcome = "masked"
    return AnalyticOutcome(
        outcome=outcome,
        triggered=True,
        resident=True,
        dirty_at_injection=dirty_at_injection,
        diverged=True,
        instruction_delta=instr_delta,
    )


# --------------------------------------------------------------------- #
# raw (unprotected) mask walk                                           #
# --------------------------------------------------------------------- #
def _walk_raw(
    golden: GoldenRun,
    wa: int,
    events: Sequence[Event],
    start: int,
    *,
    cache_mask: int,
    backing_mask: int,
    resident: bool,
    last_sync: Optional[int],
    dirty_at_injection: bool,
) -> Verdict:
    """Track an unprotected corruption as XOR masks on the word's two
    copies (cache / backing) through its event stream.

    The decode of a raw word is the identity, so nothing is ever healed
    or reported: the mask shrinks under stores, moves to the backing
    store on dirty writebacks, dies on clean evictions and full
    overwrites, re-enters on fills — until a load reads corrupted bits
    (→ :class:`ResiduePlan`) or the run ends (→ ``sdc`` / ``masked``).
    """
    resident_at_fill_ord: Optional[int] = None
    for index in range(start, len(events)):
        ord_, kind, a, b = events[index]
        if not cache_mask and not backing_mask:
            return AnalyticOutcome(
                outcome="masked",
                triggered=True,
                resident=True,
                dirty_at_injection=dirty_at_injection,
            )
        if kind == EV_LOAD:
            load_mask = subword_mask(a, b)
            if resident and cache_mask & load_mask:
                plan = ResiduePlan(
                    divergence_op=ord_,
                    divergence_instr=golden.op_instr[ord_ - 1],
                    cache_xor=cache_mask,
                    backing_value=_golden_backing(golden, wa, last_sync)
                    ^ backing_mask,
                    resident_before=resident_at_fill_ord != ord_,
                    dirty_at_injection=dirty_at_injection,
                )
                proved = _walk_divergent(
                    golden,
                    wa,
                    events,
                    index,
                    cache_mask=cache_mask,
                    backing_mask=backing_mask,
                    dirty_at_injection=dirty_at_injection,
                )
                if proved is None:
                    return plan
                proved.plan = plan
                return proved
        elif kind == EV_STORE:
            if a == 4:
                cache_mask = 0
            else:
                cache_mask &= ~(((1 << (8 * a)) - 1) << b)
        else:
            cache_mask, backing_mask = _move_masks(kind, cache_mask, backing_mask)
            if kind == EV_EVICT_DIRTY:
                last_sync = ord_
            if kind == EV_EVICT_DIRTY or kind == EV_EVICT_CLEAN:
                resident = False
            elif kind == EV_FILL:
                resident = True
                resident_at_fill_ord = ord_
    if backing_mask:
        # Survived to the final architectural image without ever being
        # read: silent data corruption, with no error event and no
        # divergence (the reference oracle reaches the same verdict with
        # `state_match=False, events=[], diverged=False`).
        return AnalyticOutcome(
            outcome="sdc",
            triggered=True,
            resident=True,
            dirty_at_injection=dirty_at_injection,
        )
    return AnalyticOutcome(
        outcome="masked",
        triggered=True,
        resident=True,
        dirty_at_injection=dirty_at_injection,
    )


# --------------------------------------------------------------------- #
# per-target triage                                                     #
# --------------------------------------------------------------------- #
def triage_dl1(
    golden: GoldenRun,
    geometry: CacheGeometry,
    wa: int,
    at_access: int,
    events: Sequence[Event],
    decode: DecodeResult,
    golden_value: int,
) -> Verdict:
    """Classify one DL1-targeted flip; ``decode`` is the (batched)
    decode of the corrupted codeword, ``golden_value`` the word's
    golden value when the flip landed."""
    total_ops = golden.total_ops
    a_eff = max(1, at_access)
    if total_ops < a_eff:
        return AnalyticOutcome(
            outcome="masked", triggered=False, resident=False,
            dirty_at_injection=False,
        )
    start, resident, dirty, last_sync = _state_before(
        events, a_eff, write_back=geometry.write_back
    )
    if not resident:
        return AnalyticOutcome(
            outcome="masked", triggered=True, resident=False,
            dirty_at_injection=False,
        )
    if decode.status is DecodeStatus.CORRECTED:
        outcome, evs = _walk_corrected(events, start)
        return AnalyticOutcome(
            outcome=outcome, triggered=True, resident=True,
            dirty_at_injection=dirty, events=evs,
        )
    if decode.status is DecodeStatus.DETECTED_UNCORRECTABLE:
        # Parity: a write-through DL1, whose lines are never dirty.
        outcome, evs = _walk_detected_wt(events, start)
        return AnalyticOutcome(
            outcome=outcome, triggered=True, resident=True,
            dirty_at_injection=dirty, events=evs,
        )
    # CLEAN decode: a raw, unprotected word (write-back), and the flip
    # changed it.
    mask = (decode.data ^ golden_value) & 0xFFFFFFFF
    return _walk_raw(
        golden, wa, events, start,
        cache_mask=mask, backing_mask=0, resident=True,
        last_sync=last_sync, dirty_at_injection=dirty,
    )


def triage_l2(
    golden: GoldenRun,
    geometry: CacheGeometry,
    wa: int,
    at_access: int,
    events: Sequence[Event],
    decode: DecodeResult,
    golden_backing_value: int,
) -> Verdict:
    """Classify one L2-targeted flip.

    ``decode`` is the L2 code's decode of the corrupted codeword that
    :meth:`oracles.campaign.Dl1ContentModel.inject_l2_fault`
    would have planted (encoded
    from ``golden_backing_value``, the backing copy at injection time).
    """
    total_ops = golden.total_ops
    # The oracle's `triggered` is `total_ops >= at_access` even in
    # the degenerate at_access < 1 case where the injection hook never
    # fires; replicate both the flag and the no-corruption behaviour.
    triggered = total_ops >= at_access
    if not triggered or at_access < 1:
        return AnalyticOutcome(
            outcome="masked", triggered=triggered, resident=triggered,
            dirty_at_injection=False,
        )
    position, resident, _dirty, last_sync = _state_before(
        events, at_access, write_back=geometry.write_back
    )
    write_back = geometry.write_back
    for index in range(position, len(events)):
        ord_, kind, a, _b = events[index]
        is_bwrite = (
            kind in (EV_EVICT_DIRTY, EV_END_FLUSH)
            or (not write_back and kind == EV_STORE)
        )
        if is_bwrite:
            # A backing write supersedes the not-yet-read corrupt
            # codeword; nothing was ever observed.
            return AnalyticOutcome(
                outcome="masked", triggered=True, resident=True,
                dirty_at_injection=False,
            )
        if kind == EV_FILL:
            # First backing read: the corrupt codeword is decoded.
            if decode.status is DecodeStatus.CORRECTED:
                return AnalyticOutcome(
                    outcome="corrected", triggered=True, resident=True,
                    dirty_at_injection=False, events=("l2_corrected",),
                )
            # Otherwise CLEAN (SECDED corrects every single-bit flip): the
            # unprotected baseline's raw L2 word, under a write-back DL1.
            # The corrupt word is now both in the backing store and in
            # the freshly filled line: join the raw mask walk at this
            # fill (which re-processes the fill event itself).
            verdict = _walk_raw(
                golden, wa, events, index,
                cache_mask=0,
                backing_mask=(decode.data ^ golden_backing_value) & 0xFFFFFFFF,
                resident=False, last_sync=last_sync, dirty_at_injection=False,
            )
            if isinstance(verdict, AnalyticOutcome):
                verdict.resident = True  # L2 flips always hit live data
            return verdict
    # The corrupt codeword is never read nor overwritten: it stays in
    # the L2 array, the architectural backing image is untouched.
    return AnalyticOutcome(
        outcome="masked", triggered=True, resident=True,
        dirty_at_injection=False,
    )
