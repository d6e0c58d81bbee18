"""Reference (full re-execution) fault injection, kept as the oracle.

:func:`run_injection` classifies one armed
:class:`~repro.scenarios.spec.FaultSpec` the slow, obvious way, in two
layers:

1. **Content model** (:class:`Dl1ContentModel`): a
   :class:`ShadowCache` (the tag/valid/dirty machinery of the object
   cache :class:`~repro.memory.reference_cache.ReferenceCache` plus an
   ECC shadow array holding the encoded word contents of every
   resident line) and a backing
   :class:`~repro.functional.memory.FlatMemory` standing in for L2 +
   DRAM.  Every load/store goes through the array: fills copy encoded
   words in, dirty evictions decode words on their way out, loads
   decode through the policy's DL1 code, detected-uncorrectable errors
   refetch the clean below-L1 copy when one exists.  The armed fault
   flips one stored bit through the shadow cache's injection hooks.

2. **Replay**: the golden memory-op stream is streamed through the
   content model (:func:`_stream_replay`) until a load observes a
   corrupted value; from there the whole program is re-executed on the
   object interpreter (:mod:`repro.functional.reference`) with the
   content model as its memory (:func:`_full_replay`), and the run is
   classified by diffing the final memory image and the pc stream
   against the golden run.

Like :mod:`repro.ecc.reference`, :mod:`repro.pipeline.reference_timing`
and :mod:`repro.functional.reference`, this module is a test oracle:
production classifies and times every fault through
:func:`repro.campaign.replay.run_injection_batch` (triage plus snapshot
resume), and the tests prove both give byte-identical payloads and
faulty traces.  Nothing on a production path imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.campaign.replay import (
    ArchInjectionResult,
    _check_limit,
    _classify,
    _golden_for,
    memories_equal,
)
from repro.ecc.codec import DecodeStatus, EccCode
from repro.functional.interpreter import FunctionalTrace, GoldenRun
from repro.functional.memory import FlatMemory, MemoryAccessError
from repro.isa.program import Program
from repro.memory.config import CacheConfig, MemoryHierarchyConfig, WritePolicy
from repro.memory.reference_cache import CacheAccessResult, ReferenceCache
from repro.scenarios.spec import FaultSpec, SimulationSpec


# ---------------------------------------------------------------------- #
# the cache with a data array and fault hooks                            #
# ---------------------------------------------------------------------- #
@dataclass
class ArmedFault:
    """One armed single-event upset plus what happened when it landed."""

    word_address: int
    bit: int
    #: 1-based ordinal (counted from arming) of the access right before
    #: which the upset lands.
    at_access: int
    triggered: bool = False
    #: Whether the word's line was valid in the array when the fault landed.
    resident: bool = False
    #: Whether that line was dirty at that moment.
    dirty: bool = False
    #: Whether a stored codeword was actually corrupted (requires the
    #: word to be resident *and* present in the ECC shadow array).
    flipped: bool = False


class ShadowCache(ReferenceCache):
    """The object cache plus an ECC shadow array and one armable upset.

    The shadow maps word address -> stored codeword of ``ecc_code``.  An
    armed fault lands right before the N-th access after arming,
    flipping one bit of the stored codeword of a resident word.
    """

    def __init__(self, config: CacheConfig, ecc_code: EccCode) -> None:
        super().__init__(config)
        self.ecc_code = ecc_code
        self._ecc_array: Dict[int, int] = {}
        self._armed_fault: Optional[ArmedFault] = None
        self._accesses_since_arm = 0

    def access(self, address: int, *, is_write: bool = False) -> CacheAccessResult:
        armed = self._armed_fault
        if armed is not None:
            self._accesses_since_arm += 1
            if not armed.triggered and self._accesses_since_arm >= armed.at_access:
                self._trigger_fault(armed)
        return super().access(address, is_write=is_write)

    # -- line state ------------------------------------------------------ #
    def dirty_line_addresses(self) -> List[int]:
        """Line addresses of every valid dirty line (sorted)."""
        addresses = []
        for set_index, lines in enumerate(self._sets):
            for line in lines:
                if line.valid and line.dirty:
                    addresses.append(self._rebuild_address(line.tag, set_index))
        return sorted(addresses)

    def line_is_dirty(self, address: int) -> bool:
        """Whether the valid line holding ``address`` is dirty."""
        tag, set_index, _ = self.split_address(address)
        return any(
            line.valid and line.tag == tag and line.dirty
            for line in self._sets[set_index]
        )

    # -- ECC shadow array ------------------------------------------------ #
    def ecc_store_word(self, address: int, value: int) -> None:
        """Store an ECC-encoded shadow copy of ``value`` at word ``address``."""
        self._ecc_array[address & ~0x3] = self.ecc_code.encode(
            value & ((1 << self.ecc_code.data_bits) - 1)
        )

    def ecc_load_raw(self, address: int) -> Optional[int]:
        """The stored (possibly corrupted) codeword at ``address``, undecoded."""
        return self._ecc_array.get(address & ~0x3)

    def ecc_take_word(self, address: int) -> Optional[int]:
        """Remove and return the raw codeword at ``address`` (eviction)."""
        return self._ecc_array.pop(address & ~0x3, None)

    # -- fault-injection hooks ------------------------------------------- #
    def arm_fault(self, word_address: int, bit: int, at_access: int) -> ArmedFault:
        """Arm one single-event upset against this cache's data array.

        The upset lands immediately *before* the ``at_access``-th access
        (1-based, counted from this call), flipping ``bit`` of the
        stored codeword at ``word_address`` — but only if that word's
        line is resident at that moment; a flip landing on an invalid
        line (or on a physical location holding another tag) corrupts no
        live data and the returned record says so.  Only one fault can
        be armed at a time; re-arming replaces the previous fault.
        """
        if not 0 <= bit < self.ecc_code.total_bits:
            raise ValueError(
                f"bit {bit} outside the {self.ecc_code.total_bits}-bit codeword"
            )
        armed = ArmedFault(
            word_address=word_address & ~0x3, bit=bit, at_access=at_access
        )
        self._armed_fault = armed
        self._accesses_since_arm = 0
        return armed

    def armed_fault(self) -> Optional[ArmedFault]:
        """The currently armed fault record (also after it triggered)."""
        return self._armed_fault

    def _trigger_fault(self, armed: ArmedFault) -> None:
        armed.triggered = True
        tag, set_index, _ = self.split_address(armed.word_address)
        for line in self._sets[set_index]:
            if line.valid and line.tag == tag:
                armed.resident = True
                armed.dirty = line.dirty
                break
        if armed.resident and armed.word_address in self._ecc_array:
            self._ecc_array[armed.word_address] ^= 1 << armed.bit
            armed.flipped = True


# ---------------------------------------------------------------------- #
# the DL1 content model                                                  #
# ---------------------------------------------------------------------- #
class Dl1ContentModel:
    """Data-carrying DL1 + below-L1 backing store for one core.

    The tag/valid/dirty machinery is the object cache's; the
    :class:`ShadowCache` array holds the encoded word contents of every
    resident line.  ``backing`` models everything below the DL1 (L2 +
    memory) at architectural granularity.
    """

    def __init__(
        self,
        hierarchy: MemoryHierarchyConfig,
        code: EccCode,
        backing: FlatMemory,
        *,
        l2_code: EccCode,
    ) -> None:
        self.cache = ShadowCache(hierarchy.l1d, code)
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
        self._l2_code = l2_code

    # -- L2-targeted faults --------------------------------------------- #
    def inject_l2_fault(self, word_address: int, bit: int) -> None:
        """Flip one bit of the L2 codeword of a below-L1 word."""
        bit %= self._l2_code.total_bits
        word_address &= ~0x3
        codeword = self._l2_code.encode(self.backing.read(word_address, 4))
        self._l2_corrupt[word_address] = codeword ^ (1 << bit)

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


def _build_model(spec: SimulationSpec, program: Program) -> Dl1ContentModel:
    policy = spec.resolved_policy()
    hierarchy = spec.resolved_hierarchy()
    backing = FlatMemory()
    backing.load_bytes(program.data.base, program.data.data)
    model = Dl1ContentModel(
        hierarchy,
        policy.dl1_code(),
        backing,
        l2_code=policy.l2_code(),
    )
    fault = spec.fault
    if fault.target == "dl1":
        bit = fault.bit % model.code.total_bits
        model.cache.arm_fault(fault.word_address, bit, fault.at_access)
    return model


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

    The object interpreter runs it, for its pluggable memory; its
    records go into a :class:`FunctionalTrace` that the timing engine
    replays.  The returned trace is partial (and an event records why)
    when the corrupted execution crashed or ran away.
    """
    from repro.functional.reference import FunctionalSimulator, SimulationFault

    model = _build_model(spec, program)
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


# ---------------------------------------------------------------------- #
# entry point                                                            #
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
    ``keep_trace`` keeps the re-executed faulty stream of a diverging
    point in ``faulty_trace``.
    """
    fault = spec.fault
    if fault is None:
        raise ValueError("run_injection needs a spec with a FaultSpec armed")
    if golden is None:
        golden = _golden_for(spec, program)
    _check_limit(spec, golden)
    program = golden.program

    model = _build_model(spec, program)
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
