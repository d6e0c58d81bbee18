"""Reference (seed) timing engine, kept as the behavioural specification.

This is a verbatim copy of the original dictionary-based
``TimingPipeline.run`` scheduling loop.  The optimized engine in
:mod:`repro.pipeline.timing` must stay *cycle-identical* to this one —
same total cycles, same stall breakdown, same chronogram — and the
regression tests replay every kernel under every Figure 8 policy through
both engines to prove it.

Like the codec references in :mod:`oracles.ecc`, it lives with the
tests, outside the production package; it exists for equivalence
testing.

Unlike the optimized engine, which reads the columnar trace and its
per-trace memory tape, this engine replays the object records of
:mod:`oracles.functional` (``run_reference``, or
``reference_trace`` for a synthetic stream) and drives a live
:class:`~oracles.hierarchy.MemoryHierarchy`; hand it a fresh
hierarchy per run.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.policies import EccPolicy
from repro.isa.instructions import InstructionClass
from repro.pipeline.chronogram import Chronogram, ChronogramEntry
from repro.pipeline.config import PipelineConfig
from repro.pipeline.stages import Stage
from repro.pipeline.statistics import PipelineStatistics
from repro.pipeline.timing import PipelineResult

from oracles.functional import DynInstruction, ReferenceTrace
from oracles.hierarchy import MemoryHierarchy
from oracles.pipeline import (
    DataReadyStage,
    LookaheadUnit,
    _RegisterStatus,
    consumer_distance,
    load_hit_data_ready_stage,
    memory_stage_cycles,
    record_load_wait,
)
from oracles.write_buffer import WriteBuffer


class ReferenceTimingPipeline:
    """Replays a functional trace under one ECC policy (seed scheduling loop)."""

    def __init__(
        self,
        policy: EccPolicy,
        hierarchy: MemoryHierarchy,
        config: Optional[PipelineConfig] = None,
    ) -> None:
        self.policy = policy
        self.hierarchy = hierarchy
        self.config = config or PipelineConfig()
        self.lookahead_unit = LookaheadUnit()

    # ------------------------------------------------------------------ #
    def run(self, trace: ReferenceTrace) -> PipelineResult:
        """Time the whole ``trace`` and return the collected results."""
        policy = self.policy
        config = self.config
        hierarchy = self.hierarchy
        write_buffer = WriteBuffer(capacity=config.write_buffer_entries)

        stats = PipelineStatistics()
        stats.lookahead = self.lookahead_unit.stats
        chronogram = Chronogram()

        prev_end: Dict[Stage, int] = {stage: 0 for stage in Stage}
        registers: Dict[int, _RegisterStatus] = {}
        cc_ready = 0
        fetch_free = 0
        redirect_cycle = 1
        prev_dyn: Optional[DynInstruction] = None
        prev_lookahead = False
        last_retire = 0

        stream = trace.instructions
        record_window = config.chronogram_window

        for dyn in stream:
            instr = dyn.instruction
            klass = dyn.klass

            # ---------------------------------------------------------- #
            # Fetch                                                      #
            # ---------------------------------------------------------- #
            sequential_start = fetch_free + 1
            f_start = max(sequential_start, redirect_cycle)
            if f_start > sequential_start:
                stats.stalls.branch_redirect += f_start - sequential_start
            icache_extra = hierarchy.instruction_fetch_cycles(dyn.pc)
            if icache_extra:
                stats.stalls.icache_miss += icache_extra
            f_end = f_start + icache_extra
            fetch_free = f_end

            # ---------------------------------------------------------- #
            # Decode / Register access                                   #
            # ---------------------------------------------------------- #
            d_start = max(f_end + 1, prev_end[Stage.DECODE] + 1)
            d_end = d_start
            ra_start = max(d_end + 1, prev_end[Stage.REGISTER_ACCESS] + 1)
            ra_end = ra_start

            # ---------------------------------------------------------- #
            # Execute (operand wait happens here, matching the figures)  #
            # ---------------------------------------------------------- #
            ex_start = max(ra_end + 1, prev_end[Stage.EXECUTE] + 1)
            source_ready = 0
            limiting_register: Optional[_RegisterStatus] = None
            for reg in dyn.source_registers:
                status = registers.get(reg)
                if status is not None and status.ready > source_ready:
                    source_ready = status.ready
                    limiting_register = status
            if instr.reads_condition_codes and cc_ready > source_ready:
                source_ready = cc_ready
                limiting_register = None
            exec_cycle = max(ex_start, source_ready + 1)
            wait = exec_cycle - ex_start
            if wait > 0:
                if limiting_register is not None and limiting_register.produced_by_load:
                    if limiting_register.via_ecc_stage:
                        stats.stalls.ecc_wait += 1
                        stats.stalls.load_use_wait += wait - 1
                    else:
                        stats.stalls.load_use_wait += wait
                else:
                    stats.stalls.operand_wait += wait
            ex_extra = 0
            if klass is InstructionClass.MUL:
                ex_extra = config.mul_latency - 1
            elif klass is InstructionClass.DIV:
                ex_extra = config.div_latency - 1
            ex_end = exec_cycle + ex_extra

            # ---------------------------------------------------------- #
            # LAEC look-ahead evaluation                                 #
            # ---------------------------------------------------------- #
            lookahead_taken = False
            if policy.supports_lookahead and dyn.is_load:
                address_ready = max(
                    (registers[r].ready for r in dyn.address_registers if r in registers),
                    default=0,
                )
                operands_ok = address_ready <= exec_cycle - 2
                decision = self.lookahead_unit.evaluate(
                    dyn,
                    prev_dyn,
                    predecessor_lookahead=prev_lookahead,
                    address_operands_ready=operands_ok,
                )
                lookahead_taken = decision.taken

            # ---------------------------------------------------------- #
            # Memory                                                     #
            # ---------------------------------------------------------- #
            unconstrained_m = ex_end + 1
            m_start = max(unconstrained_m, prev_end[Stage.MEMORY] + 1)
            if m_start > unconstrained_m:
                stats.stalls.memory_structural += m_start - unconstrained_m
            m_occupancy = 1
            load_hit = False
            data_via_ecc = False
            if dyn.is_load:
                stats.loads += 1
                drain_until = write_buffer.drain_complete_time(m_start)
                if drain_until > m_start:
                    stats.stalls.write_buffer_drain += drain_until - m_start
                    record_load_wait(write_buffer, drain_until - m_start)
                    m_start = drain_until
                outcome = hierarchy.load_access(dyn.address)
                load_hit = outcome.hit
                if outcome.hit:
                    stats.load_hits += 1
                    m_occupancy = memory_stage_cycles(policy, is_load=True, hit=True)
                else:
                    stats.load_misses += 1
                    m_occupancy = 1 + outcome.extra_cycles
                    stats.stalls.dl1_miss += outcome.extra_cycles
            elif dyn.is_store:
                stats.stores += 1
                outcome = hierarchy.store_access(dyn.address)
                stalled_until = write_buffer.push(m_start, outcome.store_drain_latency)
                if stalled_until > m_start:
                    stats.stalls.write_buffer_full += stalled_until - m_start
                    m_start = stalled_until
            m_end = m_start + m_occupancy - 1

            # ---------------------------------------------------------- #
            # ECC stage (only traversed when the policy requires it)     #
            # ---------------------------------------------------------- #
            uses_ecc_stage = False
            ecc_start = ecc_end = 0
            if policy.has_ecc_stage:
                if policy.supports_lookahead:
                    uses_ecc_stage = dyn.is_load and load_hit and not lookahead_taken
                else:
                    uses_ecc_stage = True
            if uses_ecc_stage:
                ecc_start = max(m_end + 1, prev_end[Stage.ECC] + 1)
                ecc_end = ecc_start

            # ---------------------------------------------------------- #
            # Exception / Write-back                                     #
            # ---------------------------------------------------------- #
            before_xc = ecc_end if uses_ecc_stage else m_end
            xc_start = max(before_xc + 1, prev_end[Stage.EXCEPTION] + 1)
            xc_end = xc_start
            wb_start = max(xc_end + 1, prev_end[Stage.WRITE_BACK] + 1)
            wb_end = wb_start
            last_retire = max(last_retire, wb_end)

            # ---------------------------------------------------------- #
            # Result availability / bypass updates                       #
            # ---------------------------------------------------------- #
            destination = dyn.destination_register
            if destination is not None:
                if dyn.is_load:
                    if load_hit:
                        ready_stage = load_hit_data_ready_stage(policy, lookahead_taken)
                        if ready_stage is DataReadyStage.ECC and uses_ecc_stage:
                            ready = ecc_end
                            data_via_ecc = True
                        else:
                            ready = m_end
                    else:
                        # Miss data arrives already checked by the L2/memory.
                        ready = m_end
                    registers[destination] = _RegisterStatus(
                        ready=ready, produced_by_load=True, via_ecc_stage=data_via_ecc
                    )
                else:
                    registers[destination] = _RegisterStatus(ready=ex_end)
            if instr.sets_condition_codes:
                cc_ready = ex_end

            # ---------------------------------------------------------- #
            # Control flow                                               #
            # ---------------------------------------------------------- #
            if klass is InstructionClass.BRANCH:
                stats.branches += 1
                if dyn.branch_taken:
                    stats.taken_branches += 1
                    redirect_cycle = f_end + 1 + config.taken_branch_penalty
                else:
                    redirect_cycle = f_end + 1
            elif klass is InstructionClass.CALL:
                redirect_cycle = f_end + 1 + config.taken_branch_penalty
            elif klass is InstructionClass.JUMP:
                redirect_cycle = f_end + 1 + config.indirect_branch_penalty
            else:
                redirect_cycle = f_end + 1

            # ---------------------------------------------------------- #
            # Table II: dependent-load accounting                        #
            # ---------------------------------------------------------- #
            if dyn.is_load:
                distance = consumer_distance(stream, dyn.index, max_distance=2)
                if distance is not None:
                    stats.dependent_loads += 1
                    if distance == 1:
                        stats.dependent_load_distance_1 += 1
                    else:
                        stats.dependent_load_distance_2 += 1

            # ---------------------------------------------------------- #
            # Chronogram recording                                       #
            # ---------------------------------------------------------- #
            if record_window and dyn.index < record_window:
                entry = ChronogramEntry(index=dyn.index, label=instr.render())
                entry.record(Stage.FETCH, f_start, f_end)
                entry.record(Stage.DECODE, d_start, d_end)
                entry.record(Stage.REGISTER_ACCESS, ra_start, ra_end)
                entry.record(Stage.EXECUTE, ex_start, ex_end)
                entry.record(Stage.MEMORY, m_start, m_end)
                if uses_ecc_stage:
                    entry.record(Stage.ECC, ecc_start, ecc_end)
                entry.record(Stage.EXCEPTION, xc_start, xc_end)
                entry.record(Stage.WRITE_BACK, wb_start, wb_end)
                chronogram.add(entry)

            # ---------------------------------------------------------- #
            # Advance per-stage in-order trackers                        #
            # ---------------------------------------------------------- #
            prev_end[Stage.FETCH] = f_end
            prev_end[Stage.DECODE] = d_end
            prev_end[Stage.REGISTER_ACCESS] = ra_end
            prev_end[Stage.EXECUTE] = ex_end
            prev_end[Stage.MEMORY] = m_end
            if uses_ecc_stage:
                prev_end[Stage.ECC] = ecc_end
            prev_end[Stage.EXCEPTION] = xc_end
            prev_end[Stage.WRITE_BACK] = wb_end
            prev_dyn = dyn
            prev_lookahead = lookahead_taken
            stats.instructions += 1

        stats.cycles = last_retire
        dl1 = hierarchy.dl1_statistics()
        return PipelineResult(
            policy=policy,
            stats=stats,
            chronogram=chronogram,
            dl1_stats=dl1.as_dict(),
            bus_transactions=hierarchy.bus.stats.transactions,
            bus_contention_cycles=hierarchy.bus.stats.contention_cycles,
        )
