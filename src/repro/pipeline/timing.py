"""The cycle-accurate timing engine.

The engine replays a functional trace through the in-order pipeline as a
*dependency-driven schedule*: instructions are processed in program order
and the cycle at which each one occupies each stage is derived from

* single-issue in-order flow (no stage may be occupied by instruction
  *i* before instruction *i-1* has left it),
* full bypassing (a value produced at the end of cycle *c* can be
  consumed by the Execute stage in cycle *c+1*),
* the Memory-stage behaviour of the active ECC policy (Section III of
  the paper): single or double-cycle DL1 hits, the optional ECC stage,
  and — for LAEC — the anticipated access when the look-ahead unit finds
  no hazard,
* the DL1/L2/bus miss latencies of the memory hierarchy,
* the write buffer rules of the NGMP (loads wait for an empty buffer;
  stores stall when it is full),
* taken-branch and instruction-cache-miss fetch bubbles.

Because the core is in order and single issue, this scheduling formulation
is cycle-equivalent to stepping stage registers one cycle at a time, but
it is far easier to instrument (every stall has an identifiable cause)
and to validate against the paper's chronograms.

What does not depend on the ECC policy is computed once per trace and
cached on it (see PERFORMANCE.md): :func:`static_facts` (operand sets,
class and Execute extras per static instruction), :func:`memory_tape`
(every fetch, load and store outcome of one replay through three
:class:`~repro.memory.cache.SetAssociativeCache` instances, the L1I, DL1
and L2, with main memory's open row and the bus charges in locals — no
access takes a cycle) and :func:`front_end` (Fetch, Decode and Register
Access, the branch counts and Table II's dependent loads: LAEC changes
only the Memory stage and the check after it, and nothing flows back
from Execute to fetch).  :class:`TimingPipeline` therefore takes a
hierarchy *config*; its loop starts at Execute, reading the front end's
register-access ends and the tape's data column.  It keeps the write
buffer in locals (a deque of drain completions and the last of them —
the one cycle-dependent memory model), evaluates the LAEC look-ahead
conditions inline and keeps register state in lists indexed by register
number, stage end cycles and statistics in locals, and chronogram
entries only inside the recording window.

The loop walks the trace by basic blocks (:func:`block_table`, cached
with the tape): each ends at a taken control transfer, so its successor
never starts behind a load.  The kernels are loops, and a block's
schedule depends only on its static block (instructions and tape
slice), the run's policy and configs and its entry state relative to
``b``, the last Execute end.  Each run keeps a dict from (block id,
entry state) to the block's exit record: a hit shifts the record by
``b`` and counts it, a miss runs the per-instruction body over the block
and records it.  Blocks that occur once, and blocks starting inside a
chronogram window, run unmemoized.  Each field of the entry state is
clamped at the earliest cycle any comparison in the block can read, so
every value below it keys alike:

========================  =============================  ===============================
field                     key value                      why
========================  =============================  ===============================
the block's ``ra_end``    ``None`` if all ``<= b``,      ``ex_start >= b+1``
                          else ``max(r-b, 0)`` each
live-in ``reg_ready``     ``r-b`` with ``(by_load,       operand wait at ``>= b+1``;
(read before written)     via_ecc)`` if ``r >= b``,      LAEC ``operands_late`` at
                          else ``-1``                    ``exec_cycle-2 >= b-1``
``cc_ready`` if read      same clamp                     same
before set
``pe_mem`` / ``pe_ecc``,  ``max(x-b, 1)`` / ``2`` /      ``m_start >= b+2``
``pe_xc`` / ``pe_wb``     ``3``
``wb_last`` (the block    ``max(x-b, 2)``                loads compare it with
loads or stores)                                         ``m_start``
pending drains (the       those ``> b+2``, relative      the first store pops the rest
block stores)                                            before the capacity check
LAEC data hazard (the     ``prev_dest in addr_regs``     --
first instruction loads)
========================  =============================  ===============================

The resource hazard needs no bit: a block's predecessor is a taken
control transfer, never a load.  The exit record holds the stage
trackers relative to ``b`` (the last Write-back end is the last
retirement), ``pe_ecc`` and ``cc_ready`` if the block set them, each
written register's ``(ready-b, by_load, via_ecc)``, the last
instruction's look-ahead flag, the write buffer if the block stores,
and the 16 counter deltas, added once per record times its hits.

The seed loop, its write buffer and the seed hierarchy object graph are
test oracles (``tests/oracles/timing.py``, ``tests/oracles/write_buffer.py``
and ``tests/oracles/hierarchy.py``); the
regression suite proves both engines produce identical cycle counts,
stall breakdowns and chronograms on every kernel, on synthetic streams,
on generated looping programs and on hand-built traces that enter a
block either side of each clamp, under every policy, and that the flat
tape equals the object hierarchy's on every tape the artefacts build.
"""

from __future__ import annotations

from array import array
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.lookahead import LookaheadStatistics
from repro.core.policies import EccPolicy
from repro.functional.interpreter import FunctionalTrace
from repro.isa.instructions import InstructionClass
from repro.isa.registers import REGISTER_COUNT
from repro.memory.bus import ContentionModel
from repro.memory.cache import SetAssociativeCache
from repro.memory.config import MemoryHierarchyConfig, WritePolicy
from repro.pipeline.chronogram import Chronogram, ChronogramEntry
from repro.pipeline.config import PipelineConfig
from repro.pipeline.stages import Stage
from repro.pipeline.statistics import PipelineStatistics


@dataclass
class PipelineResult:
    """Outcome of one timing run."""

    policy: EccPolicy
    stats: PipelineStatistics
    chronogram: Chronogram = field(default_factory=Chronogram)
    dl1_stats: Dict[str, float] = field(default_factory=dict)
    bus_transactions: int = 0
    bus_contention_cycles: int = 0

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def instructions(self) -> int:
        return self.stats.instructions

    @property
    def cpi(self) -> float:
        return self.stats.cpi

    def execution_time_increase_over(self, baseline: "PipelineResult") -> float:
        """Relative execution-time increase versus ``baseline`` (Figure 8)."""
        if baseline.cycles == 0:
            return 0.0
        return self.cycles / baseline.cycles - 1.0


# Control-flow kinds precomputed per static instruction (see _static_info).
_KIND_OTHER = 0
_KIND_BRANCH = 1
_KIND_CALL = 2
_KIND_JUMP = 3


# ---------------------------------------------------------------------- #
# Policy-independent pre-pass                                            #
# ---------------------------------------------------------------------- #
def _static_info(instr, mul_extra: int, div_extra: int) -> tuple:
    """Flatten the facts of one static instruction the scheduling loop needs."""
    klass = instr.klass
    if klass is InstructionClass.MUL:
        ex_extra = mul_extra
    elif klass is InstructionClass.DIV:
        ex_extra = div_extra
    else:
        ex_extra = 0
    if klass is InstructionClass.BRANCH:
        kind = _KIND_BRANCH
    elif klass is InstructionClass.CALL:
        kind = _KIND_CALL
    elif klass is InstructionClass.JUMP:
        kind = _KIND_JUMP
    else:
        kind = _KIND_OTHER
    return (
        instr.is_load,
        instr.is_store,
        instr.source_registers(),
        instr.destination_register(),
        instr.address_registers(),
        instr.reads_condition_codes,
        instr.sets_condition_codes,
        ex_extra,
        kind,
    )


def static_facts(trace: FunctionalTrace, mul_latency: int, div_latency: int) -> List[tuple]:
    """One shared fact tuple per dynamic instruction (cached on ``trace``).

    Traces share their static instructions (one per pc for programs, one
    per distinct shape for the synthetic generator), so the memo keyed by
    instruction object derives each one once.
    """
    key = (mul_latency, div_latency)
    facts = trace.static_facts.get(key)
    if facts is not None:
        return facts
    mul_extra = mul_latency - 1
    div_extra = div_latency - 1
    by_object: Dict[int, tuple] = {}
    facts = []
    append = facts.append
    for instr in trace.instructions:
        info = by_object.get(id(instr))
        if info is None:
            info = by_object[id(instr)] = _static_info(instr, mul_extra, div_extra)
        append(info)
    trace.static_facts[key] = facts
    return facts


@dataclass
class MemoryTape:
    """Hierarchy outcomes of one trace under one hierarchy configuration.

    ``fetch_extra[i]`` is instruction *i*'s fetch cycles beyond an L1I
    hit.  ``data[i]`` is, for a load, ``-1`` on a DL1 hit and the miss
    penalty otherwise; for a store, its write-buffer drain latency; 0
    for everything else.  Both columns are ``array('i')``.  ``blocks``
    is the trace's :class:`BlockTable` under these outcomes, built by
    the first timing run (:func:`block_table`).
    """

    fetch_extra: array
    data: array
    dl1_stats: Dict[str, float]
    bus_transactions: int
    bus_contention_cycles: int
    blocks: Optional["BlockTable"] = field(default=None, compare=False, repr=False)


#: Main memory: a line fetch from the most recently opened row costs
#: ``memory_latency - MEMORY_ROW_HIT_DISCOUNT`` cycles (at least one),
#: so streaming and pointer-chasing kernels differ beyond the caches.
MEMORY_ROW_BYTES = 1024
MEMORY_ROW_HIT_DISCOUNT = 6


def memory_tape(trace: FunctionalTrace, config: MemoryHierarchyConfig) -> MemoryTape:
    """The :class:`MemoryTape` of ``trace`` under ``config`` (cached on ``trace``).

    One replay, fetch(i) then the data access of *i* in program order:
    the L1I and DL1 share the L2, main memory's open row and the bus.
    Every bus transaction costs a fixed charge per config (a line or a
    word, plus the contention delay), so only their number is counted.
    """
    tape = trace.memory_tapes.get(config)
    if tape is not None:
        return tape
    l1i_access = SetAssociativeCache(config.l1i).access
    dl1 = SetAssociativeCache(config.l1d)
    dl1_access = dl1.access
    l2_access = SetAssociativeCache(config.l2).access
    contention = ContentionModel(
        contenders=config.bus_contenders,
        slot_cycles=config.bus_slot_cycles,
        mode=config.bus_contention_mode,
    ).delay()
    line_bus = config.bus_request_latency + config.bus_transfer_latency + contention
    word_bus = (
        config.bus_request_latency + max(1, config.bus_transfer_latency // 4) + contention
    )
    store_through = word_bus + config.store_through_latency
    write_back = config.l1d.write_policy is WritePolicy.WRITE_BACK
    l2_hit = config.l2_hit_latency
    row_miss = l2_hit + config.memory_latency
    row_hit = l2_hit + max(1, config.memory_latency - MEMORY_ROW_HIT_DISCOUNT)
    l2_writeback = config.memory_latency // 2
    open_row = None

    def l2_cycles(line: int, is_write: bool = False) -> int:
        """Cycles in the L2 (and main memory, on an L2 miss) for one line."""
        nonlocal open_row
        hit, victim = l2_access(line, is_write=is_write)
        if hit:
            return l2_hit
        row = line // MEMORY_ROW_BYTES
        if row == open_row:
            cycles = row_hit
        else:
            open_row = row
            cycles = row_miss
        # A dirty L2 victim adds the memory write (no row reuse credit).
        return cycles if victim is None else cycles + l2_writeback

    transactions = 0
    fetch_extra = array("i")
    data = array("i")
    fetch_line_mask = ~(config.l1i.line_bytes - 1)
    data_line_mask = ~(config.l1d.line_bytes - 1)
    fetched_line = None
    for pc, instr, address in zip(trace.pcs, trace.instructions, trace.addresses):
        line = pc & fetch_line_mask
        # The line fetched last is its set's MRU line: looking it up again
        # would only count an L1I hit, which no tape reports.
        if line == fetched_line or l1i_access(pc)[0]:
            fetch_extra.append(0)
        else:
            transactions += 1
            fetch_extra.append(line_bus + l2_cycles(line))
        fetched_line = line
        if address is None:  # only loads and stores carry an address
            data.append(0)
            continue
        is_store = instr.is_store
        hit, victim = dl1_access(address, is_write=is_store)
        if is_store and not write_back:
            # Write-through: every store pays a bus + L2 word write.
            transactions += 1
            data.append(store_through)
        elif hit:
            data.append(1 if is_store else -1)
        else:
            transactions += 1
            extra = line_bus + l2_cycles(address & data_line_mask)
            if victim is not None:
                # The dirty victim's write-back occupies the bus and the
                # L2 write port before the fill can complete.
                transactions += 1
                extra += line_bus + l2_cycles(victim, True) // 2
            data.append(1 + extra if is_store else extra)
    tape = MemoryTape(
        fetch_extra=fetch_extra,
        data=data,
        dl1_stats=dl1.stats.as_dict(),
        bus_transactions=transactions,
        bus_contention_cycles=transactions * contention,
    )
    trace.memory_tapes[config] = tape
    return tape


@dataclass
class FrontEnd:
    """Fetch, Decode and Register Access of one trace under one hierarchy
    and one pair of branch penalties.

    ``ra_end[i]`` is the cycle instruction *i* leaves Register Access:
    the floor of its Execute start.  ``fetch_decode[i]`` is ``(fetch
    start, fetch end, decode end)`` of instruction *i* inside a
    chronogram's recording window (empty when none was asked for).  The
    counters are the front end's share of :class:`PipelineStatistics`.
    """

    ra_end: array
    fetch_decode: List[Tuple[int, int, int]]
    branch_redirect: int
    icache_miss: int
    branches: int
    taken_branches: int
    dependent_loads: int
    dependent_load_distance_1: int
    dependent_load_distance_2: int


def front_end(
    trace: FunctionalTrace,
    hierarchy: MemoryHierarchyConfig,
    config: PipelineConfig,
    window: int = 0,
) -> FrontEnd:
    """The :class:`FrontEnd` of ``trace`` (cached on ``trace``).

    Nothing flows back from Execute to fetch in this model, so the
    front end depends only on the trace, its L1I outcomes and the branch
    penalties: one pass serves every policy, Execute latency and write
    buffer size.  It also counts the branches and Table II's dependent
    loads, which are properties of the trace.  A positive ``window``
    records the first ``window`` instructions' Fetch and Decode
    occupancy for a chronogram; such a pass is not cached.
    """
    key = (hierarchy, config.taken_branch_penalty, config.indirect_branch_penalty)
    if not window:
        front = trace.front_ends.get(key)
        if front is not None:
            return front
    fetch_extra = memory_tape(trace, hierarchy).fetch_extra
    infos = static_facts(trace, config.mul_latency, config.div_latency)
    taken = trace.taken
    taken_penalty = config.taken_branch_penalty
    indirect_penalty = config.indirect_branch_penalty
    ra_end = array("i")
    ra_append = ra_end.append
    rows: List[Tuple[int, int, int]] = []
    # A control transfer delays the next fetch by its penalty beyond the
    # sequential one (penalties are non-negative).
    f_end = pe_decode = pe_ra = bubble = 0
    st_redirect = st_icache = n_branches = n_taken = n_dep1 = n_dep2 = 0
    n = len(infos)
    for i in range(n):
        is_load, _, _, destination, _, _, _, _, kind = infos[i]
        st_redirect += bubble
        f_start = f_end + 1 + bubble
        icache_extra = fetch_extra[i]
        st_icache += icache_extra
        f_end = f_start + icache_extra
        d_end = f_end + 1 if f_end >= pe_decode else pe_decode + 1
        pe_decode = d_end
        pe_ra = d_end + 1 if d_end >= pe_ra else pe_ra + 1
        ra_append(pe_ra)
        if i < window:
            rows.append((f_start, f_end, d_end))
        if kind == _KIND_OTHER:
            bubble = 0
        elif kind == _KIND_BRANCH:
            n_branches += 1
            if taken[i]:
                n_taken += 1
                bubble = taken_penalty
            else:
                bubble = 0
        elif kind == _KIND_CALL:
            bubble = taken_penalty
        else:
            bubble = indirect_penalty
        # Table II: a load whose value the next or the one-after-next
        # instruction consumes (unless the next one overwrites it first).
        if is_load and destination is not None and i + 1 < n:
            follower = infos[i + 1]
            if destination in follower[2]:
                n_dep1 += 1
            elif follower[3] != destination and i + 2 < n and destination in infos[i + 2][2]:
                n_dep2 += 1
    front = FrontEnd(
        ra_end=ra_end,
        fetch_decode=rows,
        branch_redirect=st_redirect,
        icache_miss=st_icache,
        branches=n_branches,
        taken_branches=n_taken,
        dependent_loads=n_dep1 + n_dep2,
        dependent_load_distance_1=n_dep1,
        dependent_load_distance_2=n_dep2,
    )
    if not window:
        trace.front_ends[key] = front
    return front


class BlockTable:
    """The basic blocks of one trace under one memory tape.

    Block *k* is instructions ``starts[k]`` to ``ends[k] - 1``: it ends at
    a taken control transfer or at the end of the trace.  A block whose
    static block (instructions and tape outcomes) occurs more than once
    has ``ids[k] >= 0`` and ``shapes[ids[k]]`` is what keys and replays
    it (see :func:`_block_shape`); every other block has ``ids[k] == -1``
    and is never memoized.
    """

    __slots__ = ("starts", "ends", "ids", "shapes")

    def __init__(self, starts: array, ends: array, ids: array, shapes: Tuple[tuple, ...]):
        self.starts = starts
        self.ends = ends
        self.ids = ids
        self.shapes = shapes


def _block_shape(facts: List[tuple]) -> tuple:
    """``(live_in, cc_live_in, written, sets_cc, touches_memory, stores,
    first_address_registers)`` of the block whose static facts are
    ``facts``.

    ``live_in`` are the registers it reads before writing them and
    ``cc_live_in`` whether it reads the condition codes before setting
    them.  ``first_address_registers`` is ``None`` unless the first
    instruction is a load.
    """
    live_in: List[int] = []
    written: List[int] = []
    cc_live_in = sets_cc = touches_memory = stores = False
    for is_load, is_store, sources, destination, _, reads_cc, writes_cc, _, _ in facts:
        # A memory access's address registers are among its sources.
        for reg in sources:
            if reg not in written and reg not in live_in:
                live_in.append(reg)
        cc_live_in = cc_live_in or (reads_cc and not sets_cc)
        sets_cc = sets_cc or writes_cc
        if destination is not None and destination not in written:
            written.append(destination)
        touches_memory = touches_memory or is_load or is_store
        stores = stores or is_store
    first = facts[0]
    return (
        tuple(live_in),
        cc_live_in,
        tuple(written),
        sets_cc,
        touches_memory,
        stores,
        first[4] if first[0] else None,
    )


def block_table(trace: FunctionalTrace, tape: MemoryTape, infos: List[tuple]) -> BlockTable:
    """The :class:`BlockTable` of ``trace`` under ``tape`` (cached on the tape).

    A static block is interned by its first pc, its length and its slice
    of the tape's data column; a block whose first pc starts no other
    block occurs once and is not interned, so streams that repeat no
    code cost one pass over their block starts.  One pc may retire
    different instructions (hand-built and synthetic streams), so the
    instructions are compared as well and a mismatch gets a new id.  A
    taken load (only a malformed trace has one) ends no block, so no
    block starts right after a load.
    """
    table = tape.blocks
    if table is not None:
        return table
    taken = trace.taken
    pcs = trace.pcs
    instructions = trace.instructions
    data = tape.data
    n = len(instructions)
    starts = array("i")
    ends = array("i")
    start = search = 0
    while start < n:
        end = taken.find(1, search) + 1 or n
        if end < n and infos[end - 1][0]:
            search = end
            continue
        starts.append(start)
        ends.append(end)
        start = search = end
    first_pcs = Counter([pcs[start] for start in starts])
    interned: Dict[tuple, List[int]] = {}
    kept: List[list] = []  # per interned id: its instructions
    firsts: List[int] = []  # per interned id: where it first occurs
    counts: List[int] = []
    raw = []
    for start, end in zip(starts, ends):
        bid = -1
        if first_pcs[pcs[start]] > 1:
            block = instructions[start:end]
            static_key = (pcs[start], end - start, data[start:end].tobytes())
            candidates = interned.setdefault(static_key, [])
            for bid in candidates:
                if kept[bid] == block:
                    counts[bid] += 1
                    break
            else:
                bid = len(kept)
                candidates.append(bid)
                kept.append(block)
                firsts.append(start)
                counts.append(1)
        raw.append(bid)
    # The interned ids that occur more than once become 0, 1, ... in
    # order of first occurrence; every other block gets -1.
    renumber: Dict[int, int] = {}
    shapes = []
    for bid, count in enumerate(counts):
        if count > 1:
            renumber[bid] = len(shapes)
            first = firsts[bid]
            shapes.append(_block_shape(infos[first : first + len(kept[bid])]))
    ids = array("i", [renumber.get(bid, -1) for bid in raw])
    table = tape.blocks = BlockTable(starts, ends, ids, tuple(shapes))
    return table


class TimingPipeline:
    """Replays a functional trace under one ECC policy."""

    def __init__(
        self,
        policy: EccPolicy,
        hierarchy_config: MemoryHierarchyConfig,
        config: Optional[PipelineConfig] = None,
    ) -> None:
        self.policy = policy
        self.hierarchy_config = hierarchy_config
        self.config = config or PipelineConfig()

    # ------------------------------------------------------------------ #
    def run(self, trace: FunctionalTrace) -> PipelineResult:
        """Time the whole ``trace`` and return the collected results."""
        policy = self.policy
        config = self.config
        record_window = config.chronogram_window
        tape = memory_tape(trace, self.hierarchy_config)
        front = front_end(trace, self.hierarchy_config, config, record_window)

        stats = PipelineStatistics()
        chronogram = Chronogram()
        chron_add = chronogram.add

        # Policy constants ---------------------------------------------- #
        has_ecc_stage = policy.has_ecc_stage
        supports_lookahead = policy.supports_lookahead
        load_hit_cycles = policy.load_hit_memory_cycles

        # Write buffer: its drain-completion cycles, ascending, and the
        # last of them.  Memory starts strictly grow, so an entry that has
        # completed by one has completed for good.
        wb_capacity = config.write_buffer_entries
        wb_pending = deque()
        wb_popleft = wb_pending.popleft
        wb_append = wb_pending.append
        wb_last = 0

        # Register scoreboard (index = architectural register number) --- #
        reg_ready = [0] * REGISTER_COUNT
        reg_by_load = [False] * REGISTER_COUNT
        reg_via_ecc = [False] * REGISTER_COUNT

        # Per-stage in-order trackers (the last Write-back end is the
        # last retirement: Write-back ends strictly grow) --------------- #
        pe_ex = pe_mem = pe_ecc = pe_xc = pe_wb = 0
        cc_ready = 0
        prev_is_load = False
        prev_dest: Optional[int] = None
        prev_lookahead = False

        # Local statistic accumulators ---------------------------------- #
        n_loads = n_stores = n_load_hits = n_load_misses = 0
        st_operand = st_load_use = st_ecc_wait = st_mem_struct = 0
        st_dl1_miss = st_wb_full = st_wb_drain = 0
        la_seen = la_taken = la_data = la_resource = la_late = 0

        instructions = trace.instructions
        n = len(instructions)
        infos = static_facts(trace, config.mul_latency, config.div_latency)
        ra_end = front.ra_end
        mem_data = tape.data
        table = block_table(trace, tape, infos)
        shapes = table.shapes
        # (block id, entry state relative to Execute) -> exit record: a
        # list of the hits, the exit state relative to Execute and the
        # 16 counter deltas (added once per record, times its hits).
        memo: Dict[tuple, list] = {}

        for s, e, bid in zip(table.starts, table.ends, table.ids):
            key = None
            if bid >= 0 and s >= record_window:
                # ------------------------------------------------------ #
                # Key: the entry state relative to b = pe_ex, each field #
                # clamped where no comparison in the block can tell its  #
                # values apart (see the module docstring).               #
                # ------------------------------------------------------ #
                (
                    live_in,
                    cc_live_in,
                    written,
                    sets_any_cc,
                    touches_memory,
                    stores,
                    first_addr_regs,
                ) = shapes[bid]
                b = pe_ex
                key = (
                    bid,
                    tuple([r - b if r > b else 0 for r in ra_end[s:e]])
                    if ra_end[e - 1] > b
                    else None,
                    tuple(
                        [
                            (reg_ready[reg] - b) * 4 + reg_by_load[reg] * 2 + reg_via_ecc[reg]
                            if reg_ready[reg] >= b
                            else -1
                            for reg in live_in
                        ]
                    ),
                    (cc_ready - b if cc_ready >= b else -1) if cc_live_in else None,
                    pe_mem - b if pe_mem > b + 1 else 1,
                    pe_ecc - b if pe_ecc > b + 2 else 2,
                    pe_xc - b if pe_xc > b + 2 else 2,
                    pe_wb - b if pe_wb > b + 3 else 3,
                    (wb_last - b if wb_last > b + 2 else 2) if touches_memory else None,
                    tuple([p - b for p in wb_pending if p > b + 2]) if stores else None,
                    supports_lookahead
                    and first_addr_regs is not None
                    and prev_dest in first_addr_regs,
                )
                record = memo.get(key)
                if record is not None:
                    record[0] += 1
                    (
                        _,
                        r_ex,
                        r_mem,
                        r_ecc,
                        r_xc,
                        r_wb,
                        r_cc,
                        r_registers,
                        prev_lookahead,
                        r_pending,
                        r_wb_last,
                        _,
                    ) = record
                    pe_ex = b + r_ex
                    pe_mem = b + r_mem
                    if r_ecc is not None:
                        pe_ecc = b + r_ecc
                    pe_xc = b + r_xc
                    pe_wb = b + r_wb
                    if r_cc is not None:
                        cc_ready = b + r_cc
                    for reg, ready, by_load, via_ecc in r_registers:
                        reg_ready[reg] = b + ready
                        reg_by_load[reg] = by_load
                        reg_via_ecc[reg] = via_ecc
                    if r_pending is not None:
                        wb_pending.clear()
                        wb_pending.extend([b + p for p in r_pending])
                        wb_last = b + r_wb_last
                    last = infos[e - 1]
                    prev_is_load = last[0]
                    prev_dest = last[3]
                    continue
                entry_ecc = pe_ecc
                counters = (
                    n_loads, n_stores, n_load_hits, n_load_misses,
                    st_operand, st_load_use, st_ecc_wait, st_mem_struct,
                    st_dl1_miss, st_wb_full, st_wb_drain,
                    la_seen, la_taken, la_data, la_resource, la_late,
                )

            for i in range(s, e):
                (
                    is_load,
                    is_store,
                    sources,
                    destination,
                    addr_regs,
                    reads_cc,
                    sets_cc,
                    ex_extra,
                    _,
                ) = infos[i]

                # ------------------------------------------------------ #
                # Execute (operand wait happens here, matching the       #
                # figures)                                               #
                # ------------------------------------------------------ #
                ra = ra_end[i]
                ex_start = ra + 1 if ra >= pe_ex else pe_ex + 1
                source_ready = 0
                limiting = -1
                for reg in sources:
                    ready = reg_ready[reg]
                    if ready > source_ready:
                        source_ready = ready
                        limiting = reg
                if reads_cc and cc_ready > source_ready:
                    source_ready = cc_ready
                    limiting = -1
                if source_ready >= ex_start:
                    exec_cycle = source_ready + 1
                    wait = exec_cycle - ex_start
                    if limiting >= 0 and reg_by_load[limiting]:
                        if reg_via_ecc[limiting]:
                            st_ecc_wait += 1
                            st_load_use += wait - 1
                        else:
                            st_load_use += wait
                    else:
                        st_operand += wait
                else:
                    exec_cycle = ex_start
                ex_end = exec_cycle + ex_extra
                pe_ex = ex_end

                # ------------------------------------------------------ #
                # LAEC look-ahead evaluation                             #
                # ------------------------------------------------------ #
                # Anticipation moves the address add into the
                # Register-Access stage, i.e. one cycle before the load's
                # Execute cycle, so the address operands must be
                # available one cycle earlier than a normal execution
                # would need them.  The structural conditions (immediate
                # predecessor producing an address register, or being a
                # non-anticipated load) are the two hazards defined by
                # the paper.
                lookahead_taken = False
                if supports_lookahead and is_load:
                    address_ready = 0
                    for reg in addr_regs:
                        ready = reg_ready[reg]
                        if ready > address_ready:
                            address_ready = ready
                    data_hazard = prev_dest is not None and prev_dest in addr_regs
                    resource_hazard = prev_is_load and not prev_lookahead
                    operands_late = address_ready > exec_cycle - 2
                    la_seen += 1
                    if data_hazard or resource_hazard or operands_late:
                        la_data += data_hazard
                        la_resource += resource_hazard
                        la_late += operands_late
                    else:
                        lookahead_taken = True
                        la_taken += 1

                # ------------------------------------------------------ #
                # Memory                                                 #
                # ------------------------------------------------------ #
                unconstrained_m = ex_end + 1
                if pe_mem >= unconstrained_m:
                    m_start = pe_mem + 1
                    st_mem_struct += m_start - unconstrained_m
                else:
                    m_start = unconstrained_m
                m_occupancy = 1
                load_hit = False
                if is_load:
                    n_loads += 1
                    # Loads wait until the write buffer is empty.
                    if wb_last > m_start:
                        st_wb_drain += wb_last - m_start
                        m_start = wb_last
                    extra = mem_data[i]
                    if extra < 0:
                        load_hit = True
                        n_load_hits += 1
                        m_occupancy = load_hit_cycles
                    else:
                        n_load_misses += 1
                        m_occupancy = 1 + extra
                        st_dl1_miss += extra
                elif is_store:
                    n_stores += 1
                    while wb_pending and wb_pending[0] <= m_start:
                        wb_popleft()
                    if len(wb_pending) >= wb_capacity:
                        # Back-pressure: wait until the buffer fully drains.
                        st_wb_full += wb_last - m_start
                        m_start = wb_last
                        wb_pending.clear()
                    # Entries drain one after another.
                    wb_last = (wb_last if wb_last > m_start else m_start) + mem_data[i]
                    wb_append(wb_last)
                m_end = m_start + m_occupancy - 1
                pe_mem = m_end

                # ------------------------------------------------------ #
                # ECC stage (only traversed when the policy requires it) #
                # ------------------------------------------------------ #
                if has_ecc_stage and (
                    not supports_lookahead or (is_load and load_hit and not lookahead_taken)
                ):
                    # LAEC: only non-anticipated DL1 load hits need the
                    # dedicated check stage; anticipated loads complete
                    # their check in Memory and everything else skips it.
                    uses_ecc_stage = True
                    ecc_end = m_end + 1 if m_end >= pe_ecc else pe_ecc + 1
                    pe_ecc = ecc_end
                    before_xc = ecc_end
                else:
                    uses_ecc_stage = False
                    ecc_end = 0
                    before_xc = m_end

                # ------------------------------------------------------ #
                # Exception / Write-back                                 #
                # ------------------------------------------------------ #
                xc_end = before_xc + 1 if before_xc >= pe_xc else pe_xc + 1
                pe_xc = xc_end
                wb_end = xc_end + 1 if xc_end >= pe_wb else pe_wb + 1
                pe_wb = wb_end

                # ------------------------------------------------------ #
                # Result availability / bypass updates                   #
                # ------------------------------------------------------ #
                if destination is not None:
                    if is_load:
                        if load_hit and uses_ecc_stage:
                            # Data leaves the dedicated check stage;
                            # anticipated LAEC loads and miss data are
                            # ready at the end of Memory.
                            reg_ready[destination] = ecc_end
                            reg_via_ecc[destination] = True
                        else:
                            reg_ready[destination] = m_end
                            reg_via_ecc[destination] = False
                        reg_by_load[destination] = True
                    else:
                        reg_ready[destination] = ex_end
                        reg_by_load[destination] = False
                        reg_via_ecc[destination] = False
                if sets_cc:
                    cc_ready = ex_end

                # ------------------------------------------------------ #
                # Chronogram recording                                   #
                # ------------------------------------------------------ #
                if i < record_window:
                    f_start, f_end, d_end = front.fetch_decode[i]
                    entry = ChronogramEntry(index=i, label=instructions[i].render())
                    occupancy = entry.occupancy
                    occupancy[Stage.FETCH] = (f_start, f_end)
                    occupancy[Stage.DECODE] = (d_end, d_end)
                    occupancy[Stage.REGISTER_ACCESS] = (ra, ra)
                    occupancy[Stage.EXECUTE] = (ex_start, ex_end)
                    occupancy[Stage.MEMORY] = (m_start, m_end)
                    if uses_ecc_stage:
                        occupancy[Stage.ECC] = (ecc_end, ecc_end)
                    occupancy[Stage.EXCEPTION] = (xc_end, xc_end)
                    occupancy[Stage.WRITE_BACK] = (wb_end, wb_end)
                    chron_add(entry)

                prev_is_load = is_load
                prev_dest = destination
                prev_lookahead = lookahead_taken

            if key is not None:
                # ------------------------------------------------------ #
                # Exit record, relative to the entry's b                 #
                # ------------------------------------------------------ #
                after = (
                    n_loads, n_stores, n_load_hits, n_load_misses,
                    st_operand, st_load_use, st_ecc_wait, st_mem_struct,
                    st_dl1_miss, st_wb_full, st_wb_drain,
                    la_seen, la_taken, la_data, la_resource, la_late,
                )
                memo[key] = [
                    0,
                    pe_ex - b,
                    pe_mem - b,
                    pe_ecc - b if pe_ecc != entry_ecc else None,
                    pe_xc - b,
                    pe_wb - b,
                    cc_ready - b if sets_any_cc else None,
                    tuple(
                        [
                            (reg, reg_ready[reg] - b, reg_by_load[reg], reg_via_ecc[reg])
                            for reg in written
                        ]
                    ),
                    prev_lookahead,
                    tuple([p - b for p in wb_pending]) if stores else None,
                    wb_last - b,
                    tuple([now - then for now, then in zip(after, counters)]),
                ]

        # Add each record's counter deltas once per hit ----------------- #
        totals = [
            n_loads, n_stores, n_load_hits, n_load_misses,
            st_operand, st_load_use, st_ecc_wait, st_mem_struct,
            st_dl1_miss, st_wb_full, st_wb_drain,
            la_seen, la_taken, la_data, la_resource, la_late,
        ]
        for record in memo.values():
            hits = record[0]
            if hits:
                totals = [total + hits * delta for total, delta in zip(totals, record[11])]
        (
            n_loads, n_stores, n_load_hits, n_load_misses,
            st_operand, st_load_use, st_ecc_wait, st_mem_struct,
            st_dl1_miss, st_wb_full, st_wb_drain,
            la_seen, la_taken, la_data, la_resource, la_late,
        ) = totals

        # Write the local accumulators back into the stats objects ------- #
        stats.instructions = n
        stats.cycles = pe_wb
        stats.loads = n_loads
        stats.stores = n_stores
        stats.branches = front.branches
        stats.taken_branches = front.taken_branches
        stats.load_hits = n_load_hits
        stats.load_misses = n_load_misses
        stats.dependent_loads = front.dependent_loads
        stats.dependent_load_distance_1 = front.dependent_load_distance_1
        stats.dependent_load_distance_2 = front.dependent_load_distance_2
        stalls = stats.stalls
        stalls.operand_wait = st_operand
        stalls.load_use_wait = st_load_use
        stalls.ecc_wait = st_ecc_wait
        stalls.memory_structural = st_mem_struct
        stalls.dl1_miss = st_dl1_miss
        stalls.write_buffer_full = st_wb_full
        stalls.write_buffer_drain = st_wb_drain
        stalls.branch_redirect = front.branch_redirect
        stalls.icache_miss = front.icache_miss
        stats.lookahead = LookaheadStatistics(
            loads_seen=la_seen,
            lookaheads_taken=la_taken,
            blocked_data_hazard=la_data,
            blocked_resource_hazard=la_resource,
            blocked_operands_late=la_late,
        )
        return PipelineResult(
            policy=policy,
            stats=stats,
            chronogram=chronogram,
            dl1_stats=dict(tape.dl1_stats),
            bus_transactions=tape.bus_transactions,
            bus_contention_cycles=tape.bus_contention_cycles,
        )
