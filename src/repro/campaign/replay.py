"""Architectural fault-injection replay.

This is the subsystem that lets a soft error land in a *live* cache line
during a real kernel run — the missing link between the codec-level
campaigns in :mod:`repro.ecc.fault_injection` (isolated codewords, no
cache, no program) and the paper's actual claim, which is architectural:
SECDED makes dirty data in the DL1 safe because every corrupted word is
corrected *before* it can propagate to the register file, the L2 or
memory.

:func:`run_injection_batch` is the one engine that classifies (and,
for a faulty :func:`repro.simulation.simulate_spec`, times) a fault.
Each (kernel, scale) group shares one golden run, and every point goes
through three steps:

1. **Golden artefacts**: the golden run's op stream, store history and
   per-word cache event timelines (:mod:`repro.campaign.timeline`) are
   derived once per group; the flipped codewords of the whole group are
   decoded in one batched :meth:`~repro.ecc.codec.EccCode.decode_many`
   per code.

2. **Analytical triage** (:mod:`repro.campaign.triage`): a flip that
   lands on no live data, is healed or refetched by the code, dies
   under an overwrite or eviction, or whose load-visible corruption the
   timeline-delta walk follows to its end is classified with zero
   re-execution — the vast majority of sampled faults.

3. **Checkpoint resume**: a point whose corrupted value reaches a load
   the walk cannot follow is re-executed on the one interpreter,
   :func:`repro.functional.interpreter.execute`: golden from the nearest
   register checkpoint (at most 63 instructions) to the diverging load,
   then faulty to HALT, a crash or the instruction limit with the
   faulted word's DL1 set watched.  It is
   classified by diffing the final memory image and the pc stream
   against the golden run.

The full re-execution on the object interpreter over a data-carrying
cache model is the test oracle :mod:`oracles.campaign`.

Outcome taxonomy (:class:`~repro.campaign.outcome.ArchOutcome`):
``masked`` (no architectural effect), ``corrected`` (the DL1/L2 code
repaired the flip), ``detected`` (the system was informed:
uncorrectable-but-refetchable error, a crash or a hang), ``sdc`` (silent
data corruption: the final memory image differs with no error
indication) and ``timing`` (same final state, different dynamic path — a
pure execution-time deviation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.outcome import ArchOutcome
from repro.ecc.codec import DecodeResult
from repro.functional.interpreter import (
    CRASH,
    HALTED,
    LIMIT,
    ExecutionLimitExceeded,
    FunctionalTrace,
    GoldenRun,
    Watch,
    assemble_trace,
    execute,
    golden_pass,
)
from repro.isa.program import Program
from repro.memory.cache import LruSet
from repro.scenarios.spec import SimulationSpec
from repro.telemetry.metrics import observe_phase, phase_timer


#: Events that mean "the system was informed of an uncorrectable problem".
_DETECTED_EVENTS = frozenset(
    {
        "load_detected_refetch",
        "load_detected_dirty",
        "writeback_detected_dirty",
        "l2_detected",
        "crash",
        "hang",
    }
)
#: Events that mean "an error was transparently repaired".
_CORRECTED_EVENTS = frozenset(
    {"load_corrected", "writeback_corrected", "l2_corrected"}
)


@dataclass
class ArchInjectionResult:
    """Everything one architectural injection produced."""

    spec: SimulationSpec
    outcome: ArchOutcome
    #: Whether the armed fault fired before the run ended.
    triggered: bool
    #: Whether the flip landed in a valid resident line (live data).
    resident: bool
    #: Whether that line was dirty at the moment of injection.
    dirty_at_injection: bool
    #: Whether a load observed a corrupted value.
    diverged: bool
    #: Decode/propagation events, in occurrence order.
    events: Tuple[str, ...] = ()
    #: Dynamic instruction counts (golden vs faulty; equal when the run
    #: never diverged).
    golden_instructions: int = 0
    faulty_instructions: int = 0
    #: The divergent dynamic stream (recorded only for a faulty
    #: ``simulate_spec``; never serialised into store payloads).
    faulty_trace: Optional[FunctionalTrace] = field(default=None, repr=False)
    #: How the batch engine produced the result (``analytical`` or
    #: ``streamed``; empty for a store row or the reference oracle) —
    #: execution metadata for throughput accounting, never serialised
    #: into store payloads (payload byte-identity across replay modes is
    #: an acceptance criterion).
    replay_mode: str = field(default="", repr=False, compare=False)

    # ------------------------------------------------------------------ #
    def payload(self) -> Dict[str, object]:
        """JSON-serialisable form for the result store."""
        return {
            "outcome": self.outcome.value,
            "triggered": self.triggered,
            "resident": self.resident,
            "dirty_at_injection": self.dirty_at_injection,
            "diverged": self.diverged,
            "events": list(self.events),
            "golden_instructions": self.golden_instructions,
            "faulty_instructions": self.faulty_instructions,
        }


# ---------------------------------------------------------------------- #
# golden references                                                      #
# ---------------------------------------------------------------------- #
def _golden_for(spec: SimulationSpec, program: Optional[Program]) -> GoldenRun:
    """The clean run of ``program``, else of the spec's kernel (cached)."""
    if program is not None:
        return golden_pass(program, max_instructions=spec.max_instructions)
    if spec.kernel is None:
        raise ValueError("faulty specs without a kernel need an explicit program=")
    from repro.workloads.golden import cached_golden_run

    return cached_golden_run(spec.kernel, spec.scale)


def _check_limit(spec: SimulationSpec, golden: GoldenRun) -> None:
    """Raise what :func:`golden_pass` raises under ``spec``'s instruction
    limit: a kernel's golden run is cached without one, so a limit below
    its length is caught here."""
    if spec.max_instructions < golden.instructions:
        raise ExecutionLimitExceeded(
            f"{golden.program.name}: exceeded {spec.max_instructions} retired "
            "instructions without halting"
        )


# ---------------------------------------------------------------------- #
# classification                                                         #
# ---------------------------------------------------------------------- #
def _classify(
    *,
    triggered: bool,
    live: bool,
    events: Sequence[str],
    diverged: bool,
    stream_match: bool,
    state_match: bool,
) -> ArchOutcome:
    if not triggered or not live:
        return ArchOutcome.MASKED
    informed = any(event in _DETECTED_EVENTS for event in events)
    if "crash" in events or "hang" in events:
        return ArchOutcome.DETECTED
    if not state_match:
        return ArchOutcome.DETECTED if informed else ArchOutcome.SILENT_DATA_CORRUPTION
    if informed:
        return ArchOutcome.DETECTED
    if any(event in _CORRECTED_EVENTS for event in events):
        return ArchOutcome.CORRECTED
    if diverged and not stream_match:
        return ArchOutcome.TIMING_DEVIATION
    return ArchOutcome.MASKED


# ---------------------------------------------------------------------- #
# batched replay backend                                                 #
# ---------------------------------------------------------------------- #
def warm_lean_golden(kernels, scales) -> None:
    """Preload golden runs (process-pool initializer hook).

    Best-effort: a kernel that fails to warm simply warms lazily on its
    first job — an initializer exception would poison the whole pool.
    """
    from repro.workloads.golden import cached_golden_run

    for kernel in kernels:
        for scale in scales:
            try:
                cached_golden_run(kernel, scale)
            except Exception:  # noqa: BLE001 - warming must never kill a worker
                continue


def _analytic_result(
    spec: SimulationSpec, verdict, golden_instructions: int
) -> ArchInjectionResult:
    return ArchInjectionResult(
        spec=spec,
        outcome=ArchOutcome(verdict.outcome),
        triggered=verdict.triggered,
        resident=verdict.resident,
        dirty_at_injection=verdict.dirty_at_injection,
        diverged=verdict.diverged,
        events=tuple(verdict.events),
        golden_instructions=golden_instructions,
        faulty_instructions=golden_instructions + verdict.instruction_delta,
        replay_mode="analytical",
    )


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


def memories_equal(mine: Dict[int, int], theirs: Dict[int, int]) -> bool:
    """Word-dict equality with absent-means-zero semantics."""
    for wa, value in mine.items():
        if value != theirs.get(wa, 0):
            return False
    for wa, value in theirs.items():
        if value and wa not in mine:
            return False
    return True


def _run_residue(
    spec: SimulationSpec, golden, geometry, plan, *, record: bool = False
) -> ArchInjectionResult:
    """Execute one diverging fault from the nearest golden checkpoint.

    The run up to the diverging load is golden by construction (triage
    proved no corrupted value was visible before it), so it replays from
    the checkpoint's state without fault tracking; the faulted word is
    then patched in and the rest runs with its DL1 set watched.
    ``record`` keeps the faulty run's trace in ``faulty_trace``.
    """
    fault = spec.fault
    wa = fault.word_address & ~0x3
    divergence = plan.divergence_instr
    set_state = replay_set_state(
        golden,
        set_index=(wa >> geometry.line_bits) & geometry.set_mask,
        line_bits=geometry.line_bits,
        set_mask=geometry.set_mask,
        ways=geometry.ways,
        write_allocate=geometry.write_allocate,
        write_back=geometry.write_back,
        until_op=plan.divergence_op,
    )
    golden_len = golden.instructions
    limit = min(spec.max_instructions, 4 * golden_len + 10_000)
    watch = Watch(
        wa, plan.backing_value, set_state,
        geometry.line_bits, geometry.set_mask, golden.pcs,
    )
    start = golden.snapshot_before(divergence)  # freshly built: ours to patch
    run = None
    if start.index < divergence:
        lead = execute(golden.table, start, min(divergence - 1, limit), record=False)
        start = lead.state
        if start.index > limit:  # the run hangs before the fault is visible
            run = lead
    if run is None:
        mem = start.mem
        if plan.resident_before:
            mem[wa] = mem.get(wa, 0) ^ plan.cache_xor
        else:
            mem[wa] = plan.backing_value
        run = execute(golden.table, start, limit, record=record, watch=watch)

    # End-of-run flush semantics for the faulted word: dirty resident
    # lines are written back (the corrupted cache copy becomes the
    # final value), clean resident copies are discarded (the backing
    # copy is final).  Every other word's cache and backing copies are
    # architecturally identical, so the run's memory already is the
    # final image.
    final_mem = run.state.mem
    w_line = wa & ~((1 << geometry.line_bits) - 1)
    if not (set_state.resident(w_line) and set_state.line_dirty(w_line)):
        final_mem[wa] = watch.backing

    events = {HALTED: (), CRASH: ("crash",), LIMIT: ("hang",)}[run.status]
    faulty_trace = None
    if record:
        matched = run.pcs == golden.pcs[start.index:]
        faulty_trace = assemble_trace(
            golden.program, run.pcs, run.taken_at, run.op_instr, run.op_wa,
            run.op_shift, halted=run.status == HALTED,
            prefix=golden.trace, start=start.index,
        )
    else:
        matched = run.stream_match and run.state.index == golden_len
    is_l2 = fault.target == "l2"
    outcome = _classify(
        triggered=True,
        live=True,
        events=events,
        diverged=True,
        stream_match=run.status == HALTED and matched,
        state_match=memories_equal(final_mem, golden.mem_final),
    )
    return ArchInjectionResult(
        spec=spec,
        outcome=outcome,
        triggered=True,
        resident=True,
        dirty_at_injection=False if is_l2 else plan.dirty_at_injection,
        diverged=True,
        events=events,
        golden_instructions=golden_len,
        faulty_instructions=run.state.index,
        faulty_trace=faulty_trace,
        replay_mode="streamed",
    )


def _inject_group(
    golden: GoldenRun, specs: List[SimulationSpec], *, record: bool = False
) -> List[ArchInjectionResult]:
    """Classify ``specs`` (all faults against ``golden``), in order.

    ``record`` re-executes every point whose corruption reached a load,
    walk-proved ones included, with the faulty trace recorded.
    """
    from repro.campaign import triage as _triage
    from repro.campaign.timeline import golden_timelines

    golden_len = golden.instructions
    triage_started = time.perf_counter()

    # Pass 1: resolve each point's geometry, code and word timeline.
    contexts: List[tuple] = []
    for spec in specs:
        _check_limit(spec, golden)
        fault = spec.fault
        policy = spec.resolved_policy()
        hierarchy = spec.resolved_hierarchy()
        geometry = _triage.geometry_for(hierarchy.l1d)
        wa = fault.word_address & ~0x3
        code = policy.dl1_code() if fault.target == "dl1" else policy.l2_code()
        events = golden_timelines(golden, geometry).get(wa, [])
        contexts.append((spec, fault, geometry, wa, code, events))

    # Pass 2: derive every corrupted codeword, batched per code.
    by_code: Dict[str, tuple] = {}
    golden_values: List[int] = []
    for index, (spec, fault, geometry, wa, code, events) in enumerate(contexts):
        if fault.target == "dl1":
            value = golden.value_at(wa, max(1, fault.at_access))
        else:
            _, _, _, last_sync = _triage._state_before(
                events, max(1, fault.at_access),
                write_back=geometry.write_back,
            )
            if geometry.write_back:
                value = _triage._golden_backing(golden, wa, last_sync)
            else:
                value = golden.value_at(wa, max(1, fault.at_access))
        golden_values.append(value)
        entry = by_code.setdefault(code.name, (code, [], []))
        entry[1].append(index)
        entry[2].append(value)

    decode_results: Dict[int, DecodeResult] = {}
    for code, code_indices, values in by_code.values():
        codewords = code.encode_many(values)
        flipped = [
            codeword ^ (1 << (specs[i].fault.bit % code.total_bits))
            for codeword, i in zip(codewords, code_indices)
        ]
        for i, decoded in zip(code_indices, code.decode_many(flipped)):
            decode_results[i] = decoded
    triage_s = time.perf_counter() - triage_started

    # Pass 3: triage; execute only the residue.
    results: List[ArchInjectionResult] = []
    for index, (spec, fault, geometry, wa, code, events) in enumerate(contexts):
        triage_started = time.perf_counter()
        triage = _triage.triage_dl1 if fault.target == "dl1" else _triage.triage_l2
        verdict = triage(
            golden, geometry, wa, fault.at_access, events,
            decode_results[index], golden_values[index],
        )
        triage_s += time.perf_counter() - triage_started
        if record and isinstance(verdict, _triage.AnalyticOutcome) and verdict.diverged:
            verdict = verdict.plan  # the walk proved it, but records no trace
        if isinstance(verdict, _triage.ResiduePlan):
            with phase_timer("residue"):
                results.append(
                    _run_residue(spec, golden, geometry, verdict, record=record)
                )
        else:
            results.append(_analytic_result(spec, verdict, golden_len))
    observe_phase("triage", triage_s)
    return results


def run_injection_batch(
    specs,
    *,
    program: Optional[Program] = None,
) -> List[ArchInjectionResult]:
    """Classify a batch of fault injections against shared golden state.

    The batch is grouped by (kernel, scale); each group derives its
    golden artefacts (golden run, per-word cache timelines) once.
    An analytical triage pass then classifies every dead-on-arrival or
    code-healed flip with zero re-execution, batching the corrupted
    codeword decodes per code through
    :meth:`~repro.ecc.codec.EccCode.decode_many`; only faults whose
    corruption becomes load-visible are executed, via checkpoint
    suffix-resume.  This is the campaign engine's only replay entry
    point: every supervised group job, singleton retries included, runs
    through it, and an exception raised here is retried and quarantined
    like any other point failure.

    Results come back in input order with payloads byte-identical to
    the full re-execution of :func:`oracles.campaign.run_injection`,
    the test oracle (differentially tested over full grids).
    """
    from repro.workloads.golden import cached_golden_run

    specs = list(specs)
    results: List[Optional[ArchInjectionResult]] = [None] * len(specs)

    groups: Dict[Tuple[Optional[str], float], List[int]] = {}
    for index, spec in enumerate(specs):
        if spec.fault is None:
            raise ValueError("run_injection_batch needs specs with faults armed")
        groups.setdefault((spec.kernel, spec.scale), []).append(index)

    shared_golden = None
    if program is not None:
        shared_golden = golden_pass(
            program, max_instructions=min(s.max_instructions for s in specs)
        )

    for (kernel, scale), indices in groups.items():
        if shared_golden is not None:
            golden = shared_golden
        elif kernel is None:
            raise ValueError(
                "faulty specs without a kernel need an explicit program="
            )
        else:
            golden = cached_golden_run(kernel, scale)
        group = _inject_group(golden, [specs[index] for index in indices])
        for index, result in zip(indices, group):
            results[index] = result
    return results


def simulate_faulty_spec(
    spec: SimulationSpec,
    *,
    program: Optional[Program] = None,
    trace: Optional[FunctionalTrace] = None,
):
    """Full :func:`repro.simulation.simulate_spec` semantics for fault specs.

    Classifies the injection on the campaign's engine, then times the
    *actual* dynamic stream the faulty machine executed: the golden one
    (or the supplied ``trace``) when the fault never reached a load, else
    the stream recorded by resuming the point from its golden checkpoint.
    The returned :class:`~repro.simulation.SimulationResult` carries
    both the usual timing result and the injection classification
    (``result.injection``).
    """
    from repro.simulation import simulate_spec

    golden = _golden_for(spec, program)
    (injection,) = _inject_group(golden, [spec], record=True)
    timed_trace = injection.faulty_trace
    if timed_trace is None:
        timed_trace = trace if trace is not None else golden.trace
    result = simulate_spec(spec.with_fault(None), program=golden.program, trace=timed_trace)
    result.spec = spec
    result.injection = injection
    return result
