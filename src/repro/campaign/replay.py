"""Architectural fault-injection replay.

This is the subsystem that lets a soft error land in a *live* cache line
during a real kernel run — the missing link between the codec-level
campaigns in :mod:`repro.ecc.fault_injection` (isolated codewords, no
cache, no program) and the paper's actual claim, which is architectural:
SECDED makes dirty data in the DL1 safe because every corrupted word is
corrected *before* it can propagate to the register file, the L2 or
memory.

One injection run works in three layers:

1. **Content model** (:class:`Dl1ContentModel`): a
   :class:`~repro.memory.cache.SetAssociativeCache` (the same class the
   timing hierarchy uses, with its ECC shadow array as the data array)
   plus a backing :class:`~repro.functional.memory.FlatMemory` standing
   in for L2 + DRAM.  Every load/store goes through the array: fills
   copy encoded words in, dirty evictions decode words on their way out
   (this is where corruption reaches the lower levels), loads decode
   through the policy's DL1 code, detected-uncorrectable errors refetch
   the clean below-L1 copy when one exists.  The armed
   :class:`~repro.scenarios.spec.FaultSpec` flips one stored bit via the
   injection hooks in :mod:`repro.memory.cache`.

2. **Golden-stream fast path**: the golden run's op stream and store
   history already know every architecturally correct load value, so
   the replay first just streams the golden memory operations through
   the content model and compares what a load *observes* against the
   golden value.  While they agree the rest of the machine state cannot
   have diverged, so no re-execution is needed — the vast majority of
   sampled faults (masked, corrected, detected-and-refetched) finish
   here at memory-op speed.

3. **Divergent re-execution**: the first load that returns a corrupted
   value invalidates the golden stream, so the run is re-executed from
   scratch on a :class:`FunctionalSimulator` whose memory *is* the
   content model.  Wrong values then propagate exactly as they would in
   hardware — through registers, branches, stores, even into crashes —
   and the run is classified by diffing the final memory image and the
   pc stream against the golden run.

Outcome taxonomy (:class:`ArchOutcome`): ``masked`` (no architectural
effect), ``corrected`` (the DL1/L2 code repaired the flip), ``detected``
(the system was informed: uncorrectable-but-refetchable error, a
detected dirty corruption, a crash or a hang), ``sdc`` (silent data
corruption: the final memory image differs with no error indication) and
``timing`` (same final state, different dynamic path — a pure
execution-time deviation).
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.policies import EccPolicy, EccPolicyKind
from repro.ecc.codec import DecodeResult, DecodeStatus, EccCode, get_code
from repro.functional.interpreter import FunctionalTrace, GoldenRun, golden_pass
from repro.functional.memory import FlatMemory, MemoryAccessError
from repro.isa.program import Program
from repro.memory.cache import SetAssociativeCache
from repro.memory.config import MemoryHierarchyConfig, WritePolicy
from repro.scenarios.spec import FaultSpec, SimulationSpec
from repro.telemetry.metrics import observe_phase, phase_timer


class RawWordCode(EccCode):
    """Identity "code" for the unprotected DL1 (no-ecc policy).

    32 data bits, zero check bits: every flip silently changes the data
    and the decoder never notices — exactly the behaviour the baseline
    write-back DL1 exhibits.
    """

    name = "raw"
    data_bits = 32
    check_bits = 0

    def encode(self, data: int) -> int:
        return data & 0xFFFFFFFF

    def decode(self, codeword: int) -> DecodeResult:
        return DecodeResult(data=codeword & 0xFFFFFFFF, status=DecodeStatus.CLEAN)

    # Batch fast paths: identity in, CLEAN out — no per-word dispatch.
    def encode_many(self, words) -> List[int]:
        return [word & 0xFFFFFFFF for word in words]

    def decode_many(self, codewords) -> List[DecodeResult]:
        clean = DecodeStatus.CLEAN
        return [
            DecodeResult(data=codeword & 0xFFFFFFFF, status=clean)
            for codeword in codewords
        ]


def dl1_code_for_policy(policy: EccPolicy) -> EccCode:
    """The code stored in the DL1 data array under ``policy``."""
    if policy.dl1_code_name is None:
        return RawWordCode()
    return get_code(policy.dl1_code_name)


def l2_code_for_policy(policy: EccPolicy) -> EccCode:
    """The code protecting the L2 data array under ``policy``.

    Every protected deployment of the paper pairs its DL1 scheme with a
    SECDED L2 (the baseline platform's L2 protection, Section II-A).
    The ``no-ecc`` deployment is the fully unprotected hierarchy Figure
    8 uses as its ideal baseline, so its L2 stores bare words and an L2
    flip silently corrupts data exactly like a DL1 flip does.
    """
    if policy.kind is EccPolicyKind.NO_ECC:
        return RawWordCode()
    return get_code("secded")


class ArchOutcome(enum.Enum):
    """Architectural classification of one injected fault."""

    MASKED = "masked"
    CORRECTED = "corrected"
    DETECTED = "detected"
    SILENT_DATA_CORRUPTION = "sdc"
    TIMING_DEVIATION = "timing"


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
    #: Whether the run needed a full functional re-execution.
    diverged: bool
    #: Decode/propagation events, in occurrence order.
    events: Tuple[str, ...] = ()
    #: Dynamic instruction counts (golden vs faulty; equal when the run
    #: never diverged).
    golden_instructions: int = 0
    faulty_instructions: int = 0
    #: The divergent dynamic stream (kept only when ``keep_trace`` was
    #: requested; never serialised into store payloads).
    faulty_trace: Optional[FunctionalTrace] = field(default=None, repr=False)
    #: How the result was produced (``analytical``/``streamed``/``full``)
    #: — execution metadata for throughput accounting, never serialised
    #: into store payloads (payload byte-identity across replay modes is
    #: an acceptance criterion).
    replay_mode: str = field(default="full", repr=False, compare=False)

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

    @classmethod
    def from_payload(
        cls, spec: SimulationSpec, payload: Dict[str, object]
    ) -> "ArchInjectionResult":
        return cls(
            spec=spec,
            outcome=ArchOutcome(payload["outcome"]),
            triggered=bool(payload["triggered"]),
            resident=bool(payload["resident"]),
            dirty_at_injection=bool(payload["dirty_at_injection"]),
            diverged=bool(payload["diverged"]),
            events=tuple(payload.get("events", ())),
            golden_instructions=int(payload.get("golden_instructions", 0)),
            faulty_instructions=int(payload.get("faulty_instructions", 0)),
        )


# ---------------------------------------------------------------------- #
# the DL1 content model                                                  #
# ---------------------------------------------------------------------- #
class Dl1ContentModel:
    """Data-carrying DL1 + below-L1 backing store for one core.

    The tag/valid/dirty machinery is the real
    :class:`SetAssociativeCache`; its ECC shadow array holds the encoded
    word contents of every resident line.  ``backing`` models everything
    below the DL1 (L2 + memory) at architectural granularity.
    """

    def __init__(
        self,
        hierarchy: MemoryHierarchyConfig,
        code: EccCode,
        backing: FlatMemory,
        *,
        l2_code: Optional[EccCode] = None,
    ) -> None:
        self.cache = SetAssociativeCache(hierarchy.l1d, ecc_code=code)
        self.code = code
        self.backing = backing
        self.write_through = hierarchy.l1d.write_policy is WritePolicy.WRITE_THROUGH
        self.line_bytes = hierarchy.l1d.line_bytes
        self.events: List[str] = []
        # L2-targeted fault state: word address -> corrupted codeword of
        # the L2's code.  Under a SECDED L2 (every protected deployment)
        # the flip is healed (and recorded) the next time the word is
        # read; under the unprotected baseline it silently corrupts the
        # word like a DL1 flip would.
        self._l2_corrupt: Dict[int, int] = {}
        self._l2_code: Optional[EccCode] = l2_code

    # -- L2-targeted faults --------------------------------------------- #
    def inject_l2_fault(self, word_address: int, bit: int) -> bool:
        """Flip one bit of the L2 codeword of a below-L1 word."""
        if self._l2_code is None:
            self._l2_code = get_code("secded")
        bit %= self._l2_code.total_bits
        word_address &= ~0x3
        codeword = self._l2_code.encode(self.backing.read(word_address, 4))
        self._l2_corrupt[word_address] = codeword ^ (1 << bit)
        return True

    def _backing_word(self, word_address: int) -> int:
        corrupted = self._l2_corrupt.pop(word_address, None)
        if corrupted is not None:
            result = self._l2_code.decode(corrupted)
            if result.status is DecodeStatus.CORRECTED:
                self.events.append("l2_corrected")
            elif result.status is DecodeStatus.DETECTED_UNCORRECTABLE:
                self.events.append("l2_detected")
            self.backing.write(word_address, result.data, 4)
            return result.data
        return self.backing.read(word_address, 4)

    def _write_backing(self, word_address: int, word: int) -> None:
        """Write one word below the DL1, superseding any pending L2 flip.

        A store into the L2 array rewrites the word's codeword, so a
        not-yet-observed injected flip of the *old* codeword must not
        survive the overwrite (it would otherwise resurrect stale data
        on the next read).
        """
        self._l2_corrupt.pop(word_address, None)
        self.backing.write(word_address, word, 4)

    # -- line movement --------------------------------------------------- #
    def _fill_line(self, line_address: int) -> None:
        for word_address in range(line_address, line_address + self.line_bytes, 4):
            self.cache.ecc_store_word(word_address, self._backing_word(word_address))

    def _evict_line(self, line_address: int, *, dirty: bool) -> None:
        for word_address in range(line_address, line_address + self.line_bytes, 4):
            codeword = self.cache.ecc_take_word(word_address)
            if codeword is None or not dirty:
                # Clean evictions just discard the array contents; any
                # corruption in them dies with the line.
                continue
            result = self.code.decode(codeword)
            if result.status is DecodeStatus.CORRECTED:
                self.events.append("writeback_corrected")
            elif result.status is DecodeStatus.DETECTED_UNCORRECTABLE:
                # The dirty copy is the only copy: the controller sees
                # the error but cannot restore the data (the paper's
                # argument against detection-only codes on dirty data).
                self.events.append("writeback_detected_dirty")
            self._write_backing(word_address, result.data)

    def _access(self, address: int, *, is_write: bool):
        result = self.cache.access(address, is_write=is_write)
        if result.allocated and not result.hit:
            if result.evicted_address is not None:
                self._evict_line(result.evicted_address, dirty=result.writeback)
            self._fill_line(self.cache.line_address(address))
        return result

    # -- word read through the decoder ----------------------------------- #
    def _read_word_checked(self, word_address: int) -> int:
        codeword = self.cache.ecc_load_raw(word_address)
        if codeword is None:
            return self._backing_word(word_address)
        result = self.code.decode(codeword)
        if result.status is DecodeStatus.CLEAN:
            return result.data
        if result.status is DecodeStatus.CORRECTED:
            self.events.append("load_corrected")
            # Scrub: write the corrected word back into the array.
            self.cache.ecc_store_word(word_address, result.data)
            return result.data
        # Detected but uncorrectable.
        if not self.cache.line_is_dirty(word_address):
            # A clean copy exists below — refetch it (the WT+parity
            # recovery path; also correct for clean lines under WB).
            clean = self._backing_word(word_address)
            self.cache.ecc_store_word(word_address, clean)
            self.events.append("load_detected_refetch")
            return clean
        self.events.append("load_detected_dirty")
        return result.data

    # -- architectural interface ----------------------------------------- #
    def load(self, address: int, size: int) -> int:
        word_address = address & ~0x3
        self._access(address, is_write=False)
        word = self._read_word_checked(word_address)
        if size == 4:
            return word
        shift = (address & 0x3) * 8
        return (word >> shift) & ((1 << (8 * size)) - 1)

    def store(self, address: int, value: int, size: int) -> None:
        word_address = address & ~0x3
        result = self._access(address, is_write=True)
        resident = result.hit or result.allocated
        if size == 4:
            word = value & 0xFFFFFFFF
        else:
            # Sub-word store: read-modify-write through the ECC logic,
            # exactly like a hardware RMW sequence (the decode can
            # correct — or expose — an error sitting in the word).
            if resident:
                current = self._read_word_checked(word_address)
            else:
                current = self._backing_word(word_address)
            shift = (address & 0x3) * 8
            mask = ((1 << (8 * size)) - 1) << shift
            word = (current & ~mask) | ((value << shift) & mask)
        if resident:
            self.cache.ecc_store_word(word_address, word)
        if self.write_through:
            self._write_backing(word_address, word)

    def flush(self) -> None:
        """Write back every dirty line (end-of-run architectural drain)."""
        for line_address in self.cache.dirty_line_addresses():
            self._evict_line(line_address, dirty=True)


class _ReplayMemory:
    """FlatMemory-compatible facade routing accesses through the DL1 model."""

    def __init__(self, model: Dl1ContentModel) -> None:
        self._model = model

    def read(self, address: int, size: int) -> int:
        if size not in (1, 2, 4) or address % size:
            raise MemoryAccessError(f"misaligned {size}-byte read at {address:#x}")
        return self._model.load(address, size)

    def write(self, address: int, value: int, size: int) -> None:
        if size not in (1, 2, 4) or address % size:
            raise MemoryAccessError(f"misaligned {size}-byte write at {address:#x}")
        self._model.store(address, value, size)

    def load_bytes(self, base: int, payload) -> None:
        # Program data is loaded below the caches (it is the initial
        # memory image, not a run-time store stream).
        self._model.backing.load_bytes(base, payload)


# ---------------------------------------------------------------------- #
# golden references                                                      #
# ---------------------------------------------------------------------- #
def _golden_for(spec: SimulationSpec, program: Optional[Program]) -> GoldenRun:
    """The clean run of ``program``, else of the spec's kernel (cached)."""
    if program is not None:
        return golden_pass(program, max_instructions=spec.max_instructions)
    if spec.kernel is None:
        raise ValueError("faulty specs without a kernel need an explicit program=")
    from repro.experiments.runner import cached_golden_run

    return cached_golden_run(spec.kernel, spec.scale)


def _build_model(spec: SimulationSpec, program: Program) -> Dl1ContentModel:
    policy = spec.resolved_policy()
    hierarchy = spec.core_config().resolved_hierarchy_config()
    backing = FlatMemory()
    backing.load_bytes(program.data.base, program.data.data)
    return Dl1ContentModel(
        hierarchy,
        dl1_code_for_policy(policy),
        backing,
        l2_code=l2_code_for_policy(policy),
    )


def _arm(model: Dl1ContentModel, fault: FaultSpec) -> None:
    if fault.target == "dl1":
        bit = fault.bit % model.code.total_bits
        model.cache.arm_fault(fault.word_address, bit, fault.at_access)


# ---------------------------------------------------------------------- #
# the two replay phases                                                  #
# ---------------------------------------------------------------------- #
def _stream_replay(
    golden: GoldenRun, model: Dl1ContentModel, fault: FaultSpec
) -> Optional[int]:
    """Stream golden memory ops through the model.

    Returns the dynamic index of the first load observing a corrupted
    value (divergence), or ``None`` if the whole stream went through
    with every load agreeing with the golden run.  Stored and loaded
    golden values come from the run's store history.
    """
    l2_ordinal = fault.at_access if fault.target == "l2" else 0
    value_at = golden.value_at
    for ordinal, (wa, shift, size, is_store) in enumerate(
        zip(golden.op_wa, golden.op_shift, golden.op_size, golden.op_store), 1
    ):
        if ordinal == l2_ordinal:
            model.inject_l2_fault(fault.word_address, fault.bit)
        address = wa | shift >> 3
        mask = (1 << (8 * size)) - 1
        if is_store:
            # The word right after this store holds the stored value.
            model.store(address, (value_at(wa, ordinal + 1) >> shift) & mask, size)
        elif model.load(address, size) != (value_at(wa, ordinal) >> shift) & mask:
            return golden.op_instr[ordinal - 1]
    return None


def _full_replay(
    spec: SimulationSpec, program: Program, fault: FaultSpec, golden_length: int
) -> Tuple[Dl1ContentModel, FunctionalTrace, List[str]]:
    """Re-execute the program with the DL1 model as its memory.

    The reference interpreter runs it, for its pluggable memory; its
    records go into a :class:`FunctionalTrace` that the timing engine
    replays.  The returned trace is partial (and an event records why)
    when the corrupted execution crashed or ran away.
    """
    from repro.functional.reference import FunctionalSimulator, SimulationFault

    model = _build_model(spec, program)
    _arm(model, fault)
    if fault.target == "l2":
        # Count DL1 accesses ourselves to fire the below-L1 flip at the
        # same ordinal the stream phase would have used.
        memory = _L2FaultReplayMemory(model, fault)
    else:
        memory = _ReplayMemory(model)
    # A corrupted run that executes 4x the golden instruction count is a
    # hang for classification purposes — no kernel legitimately grows
    # that much from one flipped data word.
    limit = min(spec.max_instructions, 4 * golden_length + 10_000)
    simulator = FunctionalSimulator(program, max_instructions=limit)
    simulator.memory = memory
    extra_events: List[str] = []
    # Step manually (rather than simulator.run()) so a crash or hang
    # still leaves the partial dynamic stream: classification and timing
    # then reflect what the corrupted machine actually executed.
    trace = FunctionalTrace(program_name=program.name)
    try:
        while not simulator.halted:
            dyn = simulator.step()
            trace.append(dyn.pc, dyn.instruction, dyn.address, dyn.branch_taken)
            if len(trace) > limit:
                extra_events.append("hang")
                break
        else:
            trace.halted = True
    except (SimulationFault, MemoryAccessError):
        extra_events.append("crash")
    return model, trace, extra_events


class _L2FaultReplayMemory(_ReplayMemory):
    """Replay memory that fires an L2-targeted flip at a DL1-access ordinal."""

    def __init__(self, model: Dl1ContentModel, fault: FaultSpec) -> None:
        super().__init__(model)
        self._fault = fault
        self._ordinal = 0
        self._pending = True

    def _tick(self) -> None:
        self._ordinal += 1
        if self._pending and self._ordinal == self._fault.at_access:
            self._model.inject_l2_fault(self._fault.word_address, self._fault.bit)
            self._pending = False

    def read(self, address: int, size: int) -> int:
        self._tick()
        return super().read(address, size)

    def write(self, address: int, value: int, size: int) -> None:
        self._tick()
        super().write(address, value, size)


# ---------------------------------------------------------------------- #
# classification                                                         #
# ---------------------------------------------------------------------- #
def _classify(
    *,
    triggered: bool,
    live: bool,
    events: List[str],
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
# entry points                                                           #
# ---------------------------------------------------------------------- #
def run_injection(
    spec: SimulationSpec,
    *,
    program: Optional[Program] = None,
    golden: Optional[GoldenRun] = None,
    keep_trace: bool = False,
) -> ArchInjectionResult:
    """Execute one architecturally-classified fault injection.

    ``spec.fault`` must be set.  ``golden`` may be supplied to reuse a
    clean run; otherwise ``program`` is interpreted, or the named kernel
    is fetched from the shared per-process golden-run cache.
    """
    from repro.campaign.lean_sim import memories_equal

    fault = spec.fault
    if fault is None:
        raise ValueError("run_injection needs a spec with a FaultSpec armed")
    if golden is None:
        golden = _golden_for(spec, program)
    program = golden.program

    model = _build_model(spec, program)
    _arm(model, fault)
    diverged_at = _stream_replay(golden, model, fault)

    faulty_trace: Optional[FunctionalTrace] = None
    extra_events: List[str] = []
    if diverged_at is None:
        model.flush()
        stream_match = True
        faulty_instructions = golden.instructions
    else:
        model, faulty_trace, extra_events = _full_replay(
            spec, program, fault, golden.instructions
        )
        model.flush()
        stream_match = not extra_events and faulty_trace.pcs == golden.pcs
        faulty_instructions = len(faulty_trace)
    state_match = memories_equal(model.backing.words(), golden.mem_final)

    events = list(model.events) + extra_events
    if fault.target == "dl1":
        armed = model.cache.armed_fault()
        triggered = bool(armed is not None and armed.triggered)
        live = bool(armed is not None and armed.flipped)
        dirty = bool(armed is not None and armed.dirty)
    else:
        # The below-L1 store always holds the word, so an L2 flip that
        # fired always landed on live data.
        triggered = golden.total_ops >= fault.at_access
        live = triggered
        dirty = False

    outcome = _classify(
        triggered=triggered,
        live=live,
        events=events,
        diverged=diverged_at is not None,
        stream_match=stream_match,
        state_match=state_match,
    )
    return ArchInjectionResult(
        spec=spec,
        outcome=outcome,
        triggered=triggered,
        resident=live,
        dirty_at_injection=dirty,
        diverged=diverged_at is not None,
        events=tuple(events),
        golden_instructions=golden.instructions,
        faulty_instructions=faulty_instructions,
        faulty_trace=faulty_trace if keep_trace else None,
    )


# ---------------------------------------------------------------------- #
# batched replay backend                                                 #
# ---------------------------------------------------------------------- #
def warm_lean_golden(kernels, scales) -> None:
    """Preload golden runs (process-pool initializer hook).

    Best-effort: a kernel that fails to warm simply warms lazily on its
    first job — an initializer exception would poison the whole pool.
    """
    from repro.experiments.runner import cached_golden_run

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


def _run_residue(
    spec: SimulationSpec, golden, geometry, plan
) -> ArchInjectionResult:
    """Execute one diverging fault via snapshot suffix-resume."""
    from repro.campaign.lean_sim import memories_equal, replay_set_state, resume_faulty

    fault = spec.fault
    wa = fault.word_address & ~0x3
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
    run = resume_faulty(
        golden,
        divergence_instr=plan.divergence_instr,
        fault_wa=wa,
        cache_xor=plan.cache_xor,
        backing_value=plan.backing_value,
        resident=plan.resident_before,
        set_state=set_state,
        line_bits=geometry.line_bits,
        set_mask=geometry.set_mask,
        limit=limit,
    )
    state_match = memories_equal(run.final_mem, golden.mem_final)
    is_l2 = fault.target == "l2"
    outcome = _classify(
        triggered=True,
        live=True,
        events=run.extra_events,
        diverged=True,
        stream_match=run.stream_matches_golden,
        state_match=state_match,
    )
    return ArchInjectionResult(
        spec=spec,
        outcome=outcome,
        triggered=True,
        resident=True,
        dirty_at_injection=False if is_l2 else plan.dirty_at_injection,
        diverged=True,
        events=tuple(run.extra_events),
        golden_instructions=golden_len,
        faulty_instructions=run.faulty_instructions,
        replay_mode="streamed",
    )


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
    codeword decodes through the vectorised
    :meth:`~repro.ecc.codec.EccCode.decode_many`; only faults whose
    corruption becomes load-visible are executed, via snapshot
    suffix-resume.  Points outside the proven triage tree fall back to
    the classic per-point :func:`run_injection` (replay mode ``full``),
    so the batch entry point is safe for *any* spec mix.  This is the
    campaign engine's only replay entry point: every supervised group
    job, singleton retries included, runs through it, and an exception
    raised here is retried and quarantined like any other point failure.

    Results come back in input order with payloads byte-identical to
    :func:`run_injection`, which stays the reference oracle
    (differentially tested over full grids).
    """
    from repro.campaign import triage as _triage
    from repro.campaign.timeline import golden_timelines
    from repro.experiments.runner import cached_golden_run

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
        golden_len = golden.instructions
        triage_started = time.perf_counter()

        # Pass 1: resolve each point's geometry, code and word timeline.
        contexts: List[Optional[tuple]] = []
        fallback: List[int] = []
        for index in indices:
            spec = specs[index]
            fault = spec.fault
            policy = spec.resolved_policy()
            hierarchy = spec.core_config().resolved_hierarchy_config()
            geometry = _triage.geometry_for(hierarchy.l1d)
            if geometry is None or hierarchy.l1d.line_bytes < 4:
                fallback.append(index)
                contexts.append(None)
                continue
            wa = fault.word_address & ~0x3
            code = (
                dl1_code_for_policy(policy)
                if fault.target == "dl1"
                else l2_code_for_policy(policy)
            )
            events = golden_timelines(golden, geometry).get(wa, [])
            contexts.append((index, spec, fault, geometry, wa, code, events))

        # Pass 2: derive every corrupted codeword, batched per code.
        by_code: Dict[str, tuple] = {}
        point_decode_slot: Dict[int, Tuple[str, int]] = {}
        golden_values: Dict[int, int] = {}
        for context in contexts:
            if context is None:
                continue
            index, spec, fault, geometry, wa, code, events = context
            if fault.target == "dl1":
                a_eff = max(1, fault.at_access)
                value = golden.value_at(wa, a_eff)
            else:
                _, _, _, last_sync = _triage._state_before(
                    events, max(1, fault.at_access),
                    write_back=geometry.write_back,
                )
                if geometry.write_back:
                    value = _triage._golden_backing(golden, wa, last_sync)
                else:
                    value = golden.value_at(wa, max(1, fault.at_access))
            golden_values[index] = value
            bit = fault.bit % code.total_bits
            entry = by_code.setdefault(code.name, (code, [], []))
            entry[1].append(index)
            point_decode_slot[index] = (code.name, len(entry[1]) - 1)
            entry[2].append(value)

        decode_results: Dict[int, DecodeResult] = {}
        for code_name, (code, code_indices, values) in by_code.items():
            codewords = code.encode_many(values)
            flipped = [
                codeword ^ (1 << (specs[i].fault.bit % code.total_bits))
                for codeword, i in zip(codewords, code_indices)
            ]
            for i, decoded in zip(code_indices, code.decode_many(flipped)):
                decode_results[i] = decoded
        triage_s = time.perf_counter() - triage_started

        # Pass 3: triage; execute only the residue.
        for context in contexts:
            if context is None:
                continue
            index, spec, fault, geometry, wa, code, events = context
            triage_started = time.perf_counter()
            if fault.target == "dl1":
                verdict = _triage.triage_dl1(
                    golden, geometry, wa, fault.at_access, events,
                    decode_results[index], golden_values[index],
                )
            else:
                verdict = _triage.triage_l2(
                    golden, geometry, wa, fault.at_access, events,
                    decode_results[index], golden_values[index],
                )
            triage_s += time.perf_counter() - triage_started
            if verdict is None:
                fallback.append(index)
            elif isinstance(verdict, _triage.ResiduePlan):
                with phase_timer("residue"):
                    results[index] = _run_residue(spec, golden, geometry, verdict)
            else:
                results[index] = _analytic_result(spec, verdict, golden_len)
        observe_phase("triage", triage_s)

        for index in fallback:
            results[index] = run_injection(specs[index], golden=golden)

    return [result for result in results if result is not None]


def simulate_faulty_spec(
    spec: SimulationSpec,
    *,
    program: Optional[Program] = None,
    trace: Optional[FunctionalTrace] = None,
):
    """Full :func:`repro.simulation.simulate_spec` semantics for fault specs.

    Runs the architectural injection, then times the *actual* dynamic
    stream the faulty machine executed (the golden one when the fault
    never diverted execution), so the returned
    :class:`~repro.simulation.SimulationResult` carries both the usual
    timing result and the injection classification (``result.injection``).
    """
    from repro.simulation import simulate_spec

    golden = _golden_for(spec, program)
    injection = run_injection(spec, golden=golden, keep_trace=True)
    timed_trace = injection.faulty_trace
    if timed_trace is None:
        timed_trace = trace if trace is not None else golden.trace
    result = simulate_spec(spec.with_fault(None), program=golden.program, trace=timed_trace)
    result.spec = spec
    result.injection = injection
    return result
