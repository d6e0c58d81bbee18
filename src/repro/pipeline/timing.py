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

This is the *fast-path* engine (see PERFORMANCE.md).  What does not
depend on the ECC policy is computed once per trace and cached on it:
:func:`static_facts` (operand sets, class and Execute extras per static
instruction) and :func:`memory_tape` (every fetch, load and store
outcome of one :class:`~repro.memory.hierarchy.MemoryHierarchy`
replay — no hierarchy accessor takes a cycle).  :class:`TimingPipeline`
therefore takes a hierarchy *config*; its loop reads both columns, owns
a fresh write buffer per run (the one cycle-dependent memory model) and
keeps register state in lists indexed by register number, stage end
cycles and statistics in locals, and chronogram entries only inside the
recording window.

The seed loop is preserved verbatim as
:class:`repro.pipeline.reference_timing.ReferenceTimingPipeline`, which
drives a live hierarchy; the regression suite proves both engines
produce identical cycle counts, stall breakdowns and chronograms on
every kernel and on synthetic streams under every policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.lookahead import LookaheadDecision, LookaheadStatistics
from repro.core.policies import EccPolicy
from repro.functional.interpreter import FunctionalTrace
from repro.isa.instructions import InstructionClass
from repro.isa.registers import REGISTER_COUNT
from repro.memory.config import MemoryHierarchyConfig
from repro.memory.hierarchy import MemoryHierarchy
from repro.memory.write_buffer import WriteBuffer
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


@dataclass
class _RegisterStatus:
    """Book-keeping for bypass/ready-time tracking of one register.

    The fast engine tracks the three fields in parallel lists; this class
    remains the per-register record used by the reference engine.
    """

    ready: int = 0
    produced_by_load: bool = False
    via_ecc_stage: bool = False


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
    for everything else.
    """

    fetch_extra: List[int]
    data: List[int]
    dl1_stats: Dict[str, float]
    bus_transactions: int
    bus_contention_cycles: int


def memory_tape(trace: FunctionalTrace, config: MemoryHierarchyConfig) -> MemoryTape:
    """The :class:`MemoryTape` of ``trace`` under ``config`` (cached on ``trace``).

    One replay, fetch(i) then the data access of *i* in program order:
    the L1I and DL1 share the L2, its open memory rows and the bus.
    """
    tape = trace.memory_tapes.get(config)
    if tape is not None:
        return tape
    hierarchy = MemoryHierarchy(config)
    fetch_cycles = hierarchy.instruction_fetch_cycles
    load_access = hierarchy.load_access
    store_access = hierarchy.store_access
    fetch_extra = []
    data = []
    line_mask = ~(config.l1i.line_bytes - 1)
    fetched_line = None
    for pc, instr, address in zip(trace.pcs, trace.instructions, trace.addresses):
        if pc & line_mask == fetched_line:
            # The line fetched last is its set's MRU line: a hit whose
            # only other effect is an L1I hit count no tape reports.
            fetch_extra.append(0)
        else:
            fetch_extra.append(fetch_cycles(pc))
            fetched_line = pc & line_mask
        if address is not None and instr.is_load:
            outcome = load_access(address)
            data.append(-1 if outcome.hit else outcome.extra_cycles)
        elif address is not None and instr.is_store:
            data.append(store_access(address).store_drain_latency)
        else:
            data.append(0)
    tape = MemoryTape(
        fetch_extra=fetch_extra,
        data=data,
        dl1_stats=hierarchy.dl1_statistics().as_dict(),
        bus_transactions=hierarchy.bus.stats.transactions,
        bus_contention_cycles=hierarchy.bus.stats.contention_cycles,
    )
    trace.memory_tapes[config] = tape
    return tape


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
        tape = memory_tape(trace, self.hierarchy_config)
        # The write buffer depends on cycles, so it is the one piece of
        # hierarchy state that lives in the scheduling loop.
        write_buffer = WriteBuffer(capacity=config.write_buffer_entries)

        stats = PipelineStatistics()
        lookahead_stats = LookaheadStatistics()
        stats.lookahead = lookahead_stats
        chronogram = Chronogram()

        # Policy constants ---------------------------------------------- #
        has_ecc_stage = policy.has_ecc_stage
        supports_lookahead = policy.supports_lookahead
        load_hit_cycles = policy.load_hit_memory_cycles
        taken_branch_penalty = config.taken_branch_penalty
        indirect_branch_penalty = config.indirect_branch_penalty

        # Hoisted bound methods ----------------------------------------- #
        wb_drain_complete = write_buffer.drain_complete_time
        wb_push = write_buffer.push
        record_lookahead = lookahead_stats.record
        chron_add = chronogram.add

        # Register scoreboard (index = architectural register number) --- #
        reg_ready = [0] * REGISTER_COUNT
        reg_by_load = [False] * REGISTER_COUNT
        reg_via_ecc = [False] * REGISTER_COUNT

        # Per-stage in-order trackers ----------------------------------- #
        pe_decode = pe_ra = pe_ex = pe_mem = pe_ecc = pe_xc = pe_wb = 0
        cc_ready = 0
        fetch_free = 0
        redirect_cycle = 1
        prev_is_load = False
        prev_dest: Optional[int] = None
        prev_lookahead = False
        last_retire = 0

        # Local statistic accumulators ---------------------------------- #
        n_loads = n_stores = n_branches = n_taken = 0
        n_load_hits = n_load_misses = 0
        n_dep_loads = n_dep1 = n_dep2 = 0
        st_operand = st_load_use = st_ecc_wait = st_mem_struct = 0
        st_dl1_miss = st_wb_full = st_wb_drain = st_redirect = st_icache = 0

        instructions = trace.instructions
        taken = trace.taken
        n = len(instructions)
        record_window = config.chronogram_window
        infos = static_facts(trace, config.mul_latency, config.div_latency)
        fetch_extra = tape.fetch_extra
        mem_data = tape.data

        for i in range(n):
            (
                is_load,
                is_store,
                sources,
                destination,
                addr_regs,
                reads_cc,
                sets_cc,
                ex_extra,
                kind,
            ) = infos[i]

            # ---------------------------------------------------------- #
            # Fetch                                                      #
            # ---------------------------------------------------------- #
            sequential_start = fetch_free + 1
            if redirect_cycle > sequential_start:
                f_start = redirect_cycle
                st_redirect += redirect_cycle - sequential_start
            else:
                f_start = sequential_start
            icache_extra = fetch_extra[i]
            if icache_extra:
                st_icache += icache_extra
                f_end = f_start + icache_extra
            else:
                f_end = f_start
            fetch_free = f_end

            # ---------------------------------------------------------- #
            # Decode / Register access                                   #
            # ---------------------------------------------------------- #
            d_end = f_end + 1 if f_end >= pe_decode else pe_decode + 1
            pe_decode = d_end
            ra_end = d_end + 1 if d_end >= pe_ra else pe_ra + 1
            pe_ra = ra_end

            # ---------------------------------------------------------- #
            # Execute (operand wait happens here, matching the figures)  #
            # ---------------------------------------------------------- #
            ex_start = ra_end + 1 if ra_end >= pe_ex else pe_ex + 1
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

            # ---------------------------------------------------------- #
            # LAEC look-ahead evaluation                                 #
            # ---------------------------------------------------------- #
            # Anticipation moves the address add into the Register-Access
            # stage, i.e. one cycle before the load's Execute cycle, so
            # the address operands must be available one cycle earlier
            # than a normal execution would need them.  The structural
            # conditions (immediate predecessor producing an address
            # register, or being a non-anticipated load) are the two
            # hazards defined by the paper.
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
                lookahead_taken = not (
                    data_hazard or resource_hazard or operands_late
                )
                record_lookahead(
                    LookaheadDecision(
                        taken=lookahead_taken,
                        data_hazard=data_hazard,
                        resource_hazard=resource_hazard,
                        operands_late=operands_late,
                    )
                )

            # ---------------------------------------------------------- #
            # Memory                                                     #
            # ---------------------------------------------------------- #
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
                drain_until = wb_drain_complete(m_start)
                if drain_until > m_start:
                    st_wb_drain += drain_until - m_start
                    m_start = drain_until
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
                stalled_until = wb_push(m_start, mem_data[i])
                if stalled_until > m_start:
                    st_wb_full += stalled_until - m_start
                    m_start = stalled_until
            m_end = m_start + m_occupancy - 1
            pe_mem = m_end

            # ---------------------------------------------------------- #
            # ECC stage (only traversed when the policy requires it)     #
            # ---------------------------------------------------------- #
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

            # ---------------------------------------------------------- #
            # Exception / Write-back                                     #
            # ---------------------------------------------------------- #
            xc_end = before_xc + 1 if before_xc >= pe_xc else pe_xc + 1
            pe_xc = xc_end
            wb_end = xc_end + 1 if xc_end >= pe_wb else pe_wb + 1
            pe_wb = wb_end
            if wb_end > last_retire:
                last_retire = wb_end

            # ---------------------------------------------------------- #
            # Result availability / bypass updates                       #
            # ---------------------------------------------------------- #
            if destination is not None:
                if is_load:
                    if load_hit and uses_ecc_stage:
                        # Data leaves the dedicated check stage (the seed's
                        # DataReadyStage.ECC case); anticipated LAEC loads
                        # and miss data are ready at the end of Memory.
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

            # ---------------------------------------------------------- #
            # Control flow                                               #
            # ---------------------------------------------------------- #
            if kind:
                if kind == _KIND_BRANCH:
                    n_branches += 1
                    if taken[i]:
                        n_taken += 1
                        redirect_cycle = f_end + 1 + taken_branch_penalty
                    else:
                        redirect_cycle = f_end + 1
                elif kind == _KIND_CALL:
                    redirect_cycle = f_end + 1 + taken_branch_penalty
                else:  # _KIND_JUMP
                    redirect_cycle = f_end + 1 + indirect_branch_penalty
            else:
                redirect_cycle = f_end + 1

            # ---------------------------------------------------------- #
            # Table II: dependent-load accounting                        #
            # ---------------------------------------------------------- #
            if is_load and destination is not None:
                follower = i + 1
                if follower < n:
                    f_info = infos[follower]
                    if destination in f_info[2]:
                        n_dep_loads += 1
                        n_dep1 += 1
                    elif f_info[3] != destination:
                        follower += 1
                        if follower < n and destination in infos[follower][2]:
                            n_dep_loads += 1
                            n_dep2 += 1

            # ---------------------------------------------------------- #
            # Chronogram recording                                       #
            # ---------------------------------------------------------- #
            if i < record_window:
                entry = ChronogramEntry(index=i, label=instructions[i].render())
                occupancy = entry.occupancy
                occupancy[Stage.FETCH] = (f_start, f_end)
                occupancy[Stage.DECODE] = (d_end, d_end)
                occupancy[Stage.REGISTER_ACCESS] = (ra_end, ra_end)
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

        # Write the local accumulators back into the stats objects ------- #
        stats.instructions = n
        stats.cycles = last_retire
        stats.loads = n_loads
        stats.stores = n_stores
        stats.branches = n_branches
        stats.taken_branches = n_taken
        stats.load_hits = n_load_hits
        stats.load_misses = n_load_misses
        stats.dependent_loads = n_dep_loads
        stats.dependent_load_distance_1 = n_dep1
        stats.dependent_load_distance_2 = n_dep2
        stalls = stats.stalls
        stalls.operand_wait = st_operand
        stalls.load_use_wait = st_load_use
        stalls.ecc_wait = st_ecc_wait
        stalls.memory_structural = st_mem_struct
        stalls.dl1_miss = st_dl1_miss
        stalls.write_buffer_full = st_wb_full
        stalls.write_buffer_drain = st_wb_drain
        stalls.branch_redirect = st_redirect
        stalls.icache_miss = st_icache
        return PipelineResult(
            policy=policy,
            stats=stats,
            chronogram=chronogram,
            dl1_stats=dict(tape.dl1_stats),
            bus_transactions=tape.bus_transactions,
            bus_contention_cycles=tape.bus_contention_cycles,
        )
