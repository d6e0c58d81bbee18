"""Differential equivalence of the batched replay backend.

``run_injection_batch`` must be *payload byte-identical* to the full
per-point re-execution of the oracle ``repro.campaign.reference.run_injection``
over full grids — the analytical triage, the timeline-delta walk and
the checkpoint suffix-resume are three routes to one answer, never three
answers.  These tests pin that equivalence over:

* the production interpreter (``golden_pass``) vs the object reference
  interpreter, every trace column on every kernel;
* exhaustive synthetic grids engineered to hit every triage branch
  (crash, hang, subword read-modify-write, sign extension, protected
  policies with corrected / detected / writeback events);
* sampled real-kernel strata across policies and both fault targets;
* the campaign engine end to end: every payload it stores matches
  ``run_injection`` (the test-only reference oracle), plus the
  replay-mode counters, store-warm resume, chaos injection and the
  supervisor's group-to-singleton split.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import random
from array import array
from bisect import bisect_left

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.campaign.chaos import parse_chaos
from repro.campaign.replay import run_injection_batch
from repro.campaign.sampling import sample_faults
from repro.experiments.runner import cached_golden_run, clear_kernel_trace_cache
from repro.functional.interpreter import (
    HALTED,
    LIMIT,
    SNAPSHOT_INTERVAL,
    ExecutionLimitExceeded,
    execute,
    golden_pass,
    run_program,
)
from repro.workloads import KERNEL_NAMES, build_kernel
from repro.isa.assembler import assemble
from repro.scenarios.spec import FaultSpec, SimulationSpec
from repro.store import ResultStore
from repro.store.canonical import spec_hash

from oracles.campaign import run_injection
from oracles.functional import FunctionalSimulator, run_reference

# --------------------------------------------------------------------- #
# synthetic programs: each one corners a different triage branch        #
# --------------------------------------------------------------------- #

#: Corrupted function pointer -> indirect jump -> crash (DETECTED).
CRASH_PROGRAM = """
.data
ptr:
    .word 0
.text
main:
    set target, r5
    set ptr, r1
    st r5, [r1]
    ld [r1], r2
    ld [r1], r2
    jmpl r2, 0, r7
    halt
target:
    halt
"""

#: Loop bound read from memory -> a flipped high bit hangs (DETECTED).
HANG_PROGRAM = """
.data
count:
    .word 3
.text
main:
    set count, r1
    ld [r1], r2
loop:
    subcc r2, 1, r2
    bne loop
    halt
"""

#: Subword read-modify-write traffic: byte/half stores merge into a
#: word the fault may already have corrupted; sign/zero extension on
#: the reads makes partial corruption architecturally visible.
SUBWORD_PROGRAM = """
.data
buf:
    .word 0x8180F07F
    .word 0
.text
main:
    set buf, r1
    ldsb [r1], r2
    stb r2, [r1 + 4]
    ldsh [r1 + 2], r3
    sth r3, [r1 + 6]
    ldub [r1 + 1], r4
    st r4, [r1 + 4]
    ld [r1], r5
    halt
"""

#: Same traffic, plus a dirty word that must be written back at the
#: end of the run (exercises writeback_corrected / END_FLUSH triage).
WRITEBACK_PROGRAM = """
.data
src:
    .word 0x13579BDF
dst:
    .word 0
.text
main:
    set src, r1
    set dst, r2
    ld [r1], r3
    st r3, [r2]
    ld [r1], r4
    st r4, [r2]
    halt
"""


#: Branches to their own fall-through (``ba``, ``bne`` taken and not),
#: sign-extending sub-word loads that decide two of those branches, and
#: ``call`` / ``jmpl``: the columns no kernel pins down on its own.
CORNER_PROGRAM = """
.data
bytes:
    .byte 0x80, 0x7F
halves:
    .half 0x8001
.text
main:
    set bytes, r1
    ldsb [r1], r2
    set halves, r4
    ldsh [r4], r5
    ba next1
next1:
    cmp r2, r0
    bne next2
next2:
    add r2, 128, r3
    cmp r3, r0
    bne next3
next3:
    set -32767, r6
    cmp r5, r6
    bne next4
next4:
    call helper
    jmpl r7, 0, r0
    halt
helper:
    set done, r7
    ret
done:
    halt
"""


def _words_of(trace):
    return sorted({address & ~3 for address in trace.addresses if address is not None})


def _mem_ops(trace):
    return sum(address is not None for address in trace.addresses)


def _grid(program_text, name, policies, *, bits, targets=("dl1", "l2")):
    """Exhaustive (policy x target x word x bit x access) spec grid."""
    program = assemble(program_text, name=name)
    trace = run_program(program)
    words = _words_of(trace)
    ops = _mem_ops(trace)
    specs = []
    for policy, target in itertools.product(policies, targets):
        for wa in words:
            for bit in bits:
                for at_access in range(1, ops + 2):
                    specs.append(
                        SimulationSpec(
                            policy=policy,
                            fault=FaultSpec(
                                target=target,
                                word_address=wa,
                                bit=bit,
                                at_access=at_access,
                            ),
                        )
                    )
    return program, trace, specs


def _assert_equivalent(program, trace, specs):
    batch = run_injection_batch(specs, program=program)
    assert len(batch) == len(specs)
    golden = golden_pass(program)
    for spec, batched in zip(specs, batch):
        classic = run_injection(spec, golden=golden)
        assert batched.payload() == classic.payload(), (
            f"batched != classic for {spec.fault} under {spec.policy}"
        )


# --------------------------------------------------------------------- #
# lean golden pass                                                      #
# --------------------------------------------------------------------- #
class TestLeanGoldenPass:
    @staticmethod
    def _assert_matches_reference(program):
        """Every column (pc, static instruction, address, taken), the op
        count and the final memory image equal the object interpreter's."""
        from repro.campaign.replay import memories_equal

        golden = golden_pass(program)
        simulator = FunctionalSimulator(program)
        reference = simulator.run()
        assert golden.instructions == len(reference)
        assert golden.trace == reference.columns()
        assert golden.total_ops == _mem_ops(golden.trace)
        assert memories_equal(golden.mem_final, simulator.memory.words())
        return golden.trace

    @pytest.mark.parametrize("kernel", KERNEL_NAMES)
    def test_matches_functional_simulator(self, kernel):
        self._assert_matches_reference(build_kernel(kernel, scale=0.4))

    def test_control_and_subword_corners_match_every_column(self):
        trace = self._assert_matches_reference(
            assemble(CORNER_PROGRAM, name="corners")
        )
        control = [
            (instr.mnemonic.value, bool(taken))
            for instr, taken in zip(trace.instructions, trace.taken)
            if instr.is_control
        ]
        assert control == [
            ("ba", True),
            ("bne", True),
            ("bne", False),
            ("bne", False),
            ("call", True),
            ("jmpl", True),
            ("jmpl", True),
        ]
        # Each branch targets its own fall-through: only the taken
        # column tells the taken ones apart.
        slots = [(pc - trace.pcs[0]) // 4 for pc in trace.pcs]
        assert slots == list(range(14)) + [16, 17, 14, 18]

    def test_store_history_reconstructs_values_over_time(self):
        program = assemble(WRITEBACK_PROGRAM, name="wb_hist")
        golden = golden_pass(program)
        dst = program.symbols["dst"]
        # Before the first store the word is its initial value; after
        # the last memory op it is the stored value.
        assert golden.value_at(dst, 1) == 0
        assert golden.value_at(dst, golden.total_ops + 1) == 0x13579BDF

    def test_snapshot_before_equals_bisect_over_snapshot_indices(self):
        """Every instruction maps to the latest checkpoint at or before
        it, and the state built there is that checkpoint's."""
        import bisect

        golden = cached_golden_run("canrdr", 0.4)
        indices = list(range(0, golden.instructions, SNAPSHOT_INTERVAL))
        assert len(indices) > 2
        for instr_index in range(golden.instructions + 1):
            position = bisect.bisect_right(indices, instr_index)
            expected = indices[max(position - 1, 0)]
            number = expected // SNAPSHOT_INTERVAL
            index, regs = golden.checkpoint_before(instr_index)
            assert index == expected
            assert regs == golden.checkpoint_regs[32 * number : 32 * number + 32].tolist()
            snap = golden.snapshot_before(instr_index)
            assert (snap.index, snap.pc, snap.regs) == (expected, golden.pcs[expected], regs)
            flags = golden.checkpoint_flags[number]
            assert snap.cc == tuple(bool(flags & bit) for bit in (8, 4, 2, 1))
            assert snap.mem == golden.memory_before(expected)

    def test_checkpoints_are_two_flat_buffers_without_memory(self):
        """A golden run keeps one register/flag record per checkpoint in
        two flat buffers; golden memory lives only in the store history."""
        from repro.functional.interpreter import Snapshot

        golden = cached_golden_run("matrix", 0.4)
        count = -(-golden.instructions // SNAPSHOT_INTERVAL)
        assert type(golden.checkpoint_regs) is array
        assert golden.checkpoint_regs.typecode == "I"
        assert len(golden.checkpoint_regs) == 32 * count
        assert type(golden.checkpoint_flags) is bytearray
        assert len(golden.checkpoint_flags) == count
        for spec in dataclasses.fields(golden):
            value = getattr(golden, spec.name)
            assert not isinstance(value, Snapshot), spec.name
            if isinstance(value, (list, tuple)):
                assert not any(isinstance(item, (dict, Snapshot)) for item in value), spec.name

    @pytest.mark.parametrize("kernel", ["canrdr", "matrix", "tblook", "aifirf"])
    def test_golden_state_advances_a_synced_state(self, kernel):
        """Replaying from an earlier exact state equals rebuilding from
        the nearest checkpoint, whichever of the two is later."""
        from repro.campaign.triage import golden_state_at

        golden = cached_golden_run(kernel, 0.4)
        rng = random.Random(2019)
        synced_used = 0
        for _ in range(24):
            start = rng.randrange(golden.instructions)
            stop = min(
                golden.instructions,
                start + rng.randrange(3 * SNAPSHOT_INTERVAL),
            )
            regs = golden_state_at(golden, start)
            advanced = golden_state_at(golden, stop, (start, list(regs)))
            assert advanced == golden_state_at(golden, stop)
            synced_used += golden.checkpoint_before(stop)[0] <= start
        assert 0 < synced_used < 24  # both starting points were exercised

    @pytest.mark.parametrize("kernel", ["canrdr", "matrix"])
    def test_word_op_index_lists_every_op_once_in_order(self, kernel):
        golden = cached_golden_run(kernel, 0.1)
        index = golden.word_ops()
        assert golden.word_ops() is index  # built once, then cached
        seen = []
        for word_address, ordinals in index.items():
            assert list(ordinals) == sorted(set(ordinals))
            assert all(golden.op_wa[o - 1] == word_address for o in ordinals)
            seen.extend(ordinals)
        assert sorted(seen) == list(range(1, golden.total_ops + 1))


class TestExecute:
    """Where :func:`execute` starts and stops, from the golden states at
    the checkpoints a campaign resume starts from."""

    KERNELS = ["canrdr", "matrix", "tblook", "aifirf"]

    @staticmethod
    def _state(snap):
        return (snap.index, snap.pc, snap.regs, snap.cc, snap.mem)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_a_bounded_run_stops_right_before_the_next_snapshot(self, kernel):
        """Replaying to ``index - 1`` hands over the exact state before
        instruction ``index``: what leg 1 of a resume gives leg 2."""
        golden = cached_golden_run(kernel, 0.4)
        buffers = (array("I", golden.checkpoint_regs), bytearray(golden.checkpoint_flags))
        indices = range(0, golden.instructions, SNAPSHOT_INTERVAL)
        assert len(indices) > 2
        for index, following in zip(indices, indices[1:]):
            snap = golden.snapshot_before(index)
            before = copy.deepcopy(self._state(snap))
            run = execute(golden.table, snap, following - 1, record=False)
            assert run.status == LIMIT
            assert self._state(run.state) == self._state(golden.snapshot_before(following))
            assert not run.pcs and not run.op_wa
            assert not run.checkpoint_regs and not run.checkpoint_flags
            assert self._state(snap) == before
        assert (golden.checkpoint_regs, golden.checkpoint_flags) == buffers

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_a_recording_run_from_a_snapshot_reproduces_the_golden_suffix(self, kernel):
        golden = cached_golden_run(kernel, 0.4)
        middle = len(golden.checkpoint_flags) // 2
        snap = golden.snapshot_before(middle * SNAPSHOT_INTERVAL)
        assert snap.index == middle * SNAPSHOT_INTERVAL
        before = copy.deepcopy(self._state(snap))
        run = execute(golden.table, snap, golden.instructions)
        assert run.status == HALTED
        assert run.state.index == golden.instructions
        assert run.pcs == golden.pcs[snap.index:]
        taken = bisect_left(golden.taken_at, snap.index)
        assert run.taken_at == golden.taken_at[taken:]
        ops = bisect_left(golden.op_instr, snap.index)
        for column in ("op_instr", "op_wa", "op_store", "op_size", "op_shift"):
            assert getattr(run, column) == getattr(golden, column)[ops:], column
        assert run.state.mem == golden.mem_final
        assert run.checkpoint_regs == golden.checkpoint_regs[32 * middle :]
        assert run.checkpoint_flags == golden.checkpoint_flags[middle:]
        assert self._state(snap) == before
        # HALT counts against the limit: one instruction less is a stop.
        short = execute(golden.table, snap, golden.instructions - 1, record=False)
        assert short.status == LIMIT
        assert short.state.index == golden.instructions
        assert self._state(snap) == before


#: A loop of sub-word stores and sign-extending loads over three words,
#: with flag-setting ops, long enough to span several checkpoints.
SUBWORD_LOOP_PROGRAM = """
.data
buf:
    .word 0x8180F07F
    .word 0x7F7F8080
    .word 0
.text
main:
    set buf, r1
    set 40, r5
loop:
    ldsb [r1], r2
    add r2, r5, r2
    stb r2, [r1 + 8]
    ldsh [r1 + 2], r3
    sub r3, r5, r3
    sth r3, [r1 + 6]
    ldub [r1 + 9], r4
    stb r4, [r1 + 1]
    ld [r1 + 4], r6
    addcc r6, r6, r6
    st r6, [r1]
    subcc r5, 1, r5
    bne loop
    halt
"""


class TestGoldenHistoryAgainstTheReference:
    """The golden history — register checkpoints, :func:`golden_state_at`
    and the memory image rebuilt from the store history — equals the
    object interpreter's state stepped to the same instruction, at every
    checkpoint and at seeded random instructions (at every instruction
    of the small fixed program)."""

    @staticmethod
    def _assert_history_matches(program, samples=None):
        from repro.campaign.replay import memories_equal
        from repro.campaign.triage import golden_state_at

        golden = golden_pass(program)
        rng = random.Random(2019)
        checkpoints = range(0, golden.instructions, SNAPSHOT_INTERVAL)
        if samples is None:
            probes = set(range(golden.instructions))
        else:
            probes = set(checkpoints)
            probes.update(rng.randrange(golden.instructions) for _ in range(samples))
        simulator = FunctionalSimulator(program)
        at_checkpoint = {}
        for index in range(golden.instructions):
            if index in probes:
                regs = simulator.registers.snapshot()
                codes = simulator.condition_codes
                if index % SNAPSHOT_INTERVAL == 0:
                    at_checkpoint[index] = (
                        simulator.pc,
                        (codes.negative, codes.zero, codes.overflow, codes.carry),
                        regs,
                    )
                assert golden_state_at(golden, index) == regs, index
                assert memories_equal(golden.memory_before(index), simulator.memory.words()), index
                snap = golden.snapshot_before(index)
                assert snap.index == index - index % SNAPSHOT_INTERVAL
                assert (snap.pc, snap.cc, snap.regs) == at_checkpoint[snap.index], index
            simulator.step()
        assert simulator.halted
        assert len(at_checkpoint) == len(checkpoints) > 2

    @pytest.mark.parametrize("kernel", ["aifirf", "canrdr", "matrix", "tblook"])
    def test_kernel_history_matches_the_reference(self, kernel):
        self._assert_history_matches(build_kernel(kernel, scale=0.4), samples=40)

    def test_subword_store_history_matches_the_reference(self):
        program = assemble(SUBWORD_LOOP_PROGRAM, name="subword_loop")
        self._assert_history_matches(program)


# --------------------------------------------------------------------- #
# differential grids                                                    #
# --------------------------------------------------------------------- #
class TestHaltCountsAgainstTheLimit:
    """HALT retires like any other instruction, so a run whose HALT is
    instruction ``limit + 1`` exceeded its limit, in every interpreter."""

    @pytest.mark.parametrize("limit, halts", [(2, False), (3, True)])
    def test_lean_and_object_interpreters_agree(self, limit, halts):
        program = assemble("main:\n    set 1, r1\n    set 2, r2\n    halt\n")
        if halts:
            assert len(run_program(program, max_instructions=limit)) == 3
            assert len(run_reference(program, max_instructions=limit)) == 3
        else:
            with pytest.raises(ExecutionLimitExceeded):
                run_program(program, max_instructions=limit)
            with pytest.raises(ExecutionLimitExceeded):
                run_reference(program, max_instructions=limit)

    @pytest.mark.parametrize("limit, outcome", [(16, "detected"), (17, "sdc")])
    def test_resume_and_full_replay_agree_at_the_hang_boundary(self, limit, outcome):
        # Bit 2 turns the loop count 3 into 7: the faulty run retires 17
        # instructions, the last one its HALT.
        program = assemble(HANG_PROGRAM, name="hang_prog")
        spec = SimulationSpec(
            policy="no-ecc",
            max_instructions=limit,
            fault=FaultSpec(
                target="l2", word_address=program.symbols["count"], bit=2, at_access=1
            ),
        )
        (streamed,) = run_injection_batch([spec], program=program)
        full = run_injection(spec, program=program)
        assert streamed.replay_mode == "streamed"
        assert streamed.payload() == full.payload()
        assert full.outcome.value == outcome
        assert ("hang" in full.events) is (outcome == "detected")

    def test_a_kernel_spec_shorter_than_its_golden_run_exceeds_the_limit(self):
        # A kernel's golden run is cached without a limit; a faulty spec
        # whose limit the clean run already exceeds raises exactly as the
        # clean spec (and a program= golden pass) does.
        from repro.simulation import simulate_spec

        golden = cached_golden_run("puwmod", 0.1)
        (fault,) = sample_faults("puwmod", 0.1, "no-ecc", 1, seed=11)
        spec = SimulationSpec(
            kernel="puwmod", scale=0.1, policy="no-ecc",
            max_instructions=golden.instructions - 1, fault=fault,
        )
        message = f"puwmod: exceeded {golden.instructions - 1} retired instructions"
        for run in (
            lambda: simulate_spec(spec.with_fault(None)),
            lambda: run_injection_batch([spec]),
            lambda: simulate_spec(spec),
            lambda: run_injection(spec),
        ):
            with pytest.raises(ExecutionLimitExceeded, match=message):
                run()
        at_limit = dataclasses.replace(spec, max_instructions=golden.instructions)
        (point,) = run_injection_batch([at_limit])
        assert point.payload() == run_injection(at_limit).payload()


class TestSyntheticGridEquivalence:
    BITS = (0, 7, 13, 31, 33, 38)  # data low/mid/high + check-bit region

    def test_crash_grid(self):
        program, trace, specs = _grid(
            CRASH_PROGRAM, "crash_prog", ("no-ecc", "extra-cycle"), bits=self.BITS
        )
        _assert_equivalent(program, trace, specs)

    def test_hang_grid(self):
        program, trace, specs = _grid(
            HANG_PROGRAM, "hang_prog", ("no-ecc",), bits=(28, 29, 30, 31)
        )
        _assert_equivalent(program, trace, specs)

    def test_subword_rmw_grid(self):
        program, trace, specs = _grid(
            SUBWORD_PROGRAM, "subword_prog", ("no-ecc", "laec"), bits=self.BITS
        )
        _assert_equivalent(program, trace, specs)

    def test_protected_policies_grid(self):
        program, trace, specs = _grid(
            WRITEBACK_PROGRAM,
            "wb_prog",
            ("extra-cycle", "wt-parity"),
            bits=self.BITS,
        )
        _assert_equivalent(program, trace, specs)
        # The protected grid must actually exercise the analytical
        # corrected/detected walks, not just fall through to execution.
        batch = run_injection_batch(specs, program=program)
        events = {event for result in batch for event in result.events}
        assert "load_corrected" in events
        modes = {result.replay_mode for result in batch}
        assert "analytical" in modes

    def test_replay_mode_marker_stays_out_of_payload(self):
        program, _trace, specs = _grid(
            WRITEBACK_PROGRAM, "wb_prog2", ("no-ecc",), bits=(0,)
        )
        for result in run_injection_batch(specs, program=program):
            assert result.replay_mode in ("analytical", "streamed")
            assert "replay_mode" not in result.payload()


# --------------------------------------------------------------------- #
# timeline-delta (divergent) walk: synthetic deviation grids            #
# --------------------------------------------------------------------- #

#: Visible corrupted load whose taint dies immediately: the walk proves
#: `masked` (diverged, stream-identical) without streaming.
DEAD_LOAD_PROGRAM = """
.data
val:
    .word 0x11111111
.text
main:
    set val, r1
    ld [r1], r2
    set 0, r2
    ld [r1], r2
    set 0, r2
    halt
"""

#: Tainted value propagates through an ALU op into a store of another
#: word and is never healed: the walk proves `sdc` analytically.
TAINT_STORE_PROGRAM = """
.data
src:
    .word 0x22222222
dst:
    .word 0
.text
main:
    set src, r1
    set dst, r2
    ld [r1], r3
    add r3, 1, r3
    st r3, [r2]
    halt
"""

#: A corrupted flag flips `be` so the faulty run *executes* the NOP run
#: the golden run branches over: provable TIMING, +3 instructions.
TIMING_EXTRA_NOP_PROGRAM = """
.data
flag:
    .word 0
.text
main:
    set flag, r1
    ld [r1], r2
    ld [r1], r2
    subcc r2, 0, r9
    be join
    nop
    nop
    nop
join:
    set 0, r2
    halt
"""

#: The mirror image: the faulty run *skips* the NOP run the golden run
#: falls through: provable TIMING, -2 instructions.
TIMING_SKIP_NOP_PROGRAM = """
.data
flag:
    .word 1
.text
main:
    set flag, r1
    ld [r1], r2
    ld [r1], r2
    subcc r2, 0, r9
    be join
    nop
    nop
join:
    set 0, r2
    halt
"""

#: The corrupted flag flips a branch whose fall-through arm does real
#: work: the walk must bail and the point streams through the checkpoint resume.
UNPROVABLE_BRANCH_PROGRAM = """
.data
cond:
    .word 0
out:
    .word 0
.text
main:
    set cond, r1
    set out, r4
    ld [r1], r2
    subcc r2, 0, r9
    be done
    set 1, r3
    st r3, [r4]
done:
    halt
"""

#: The corrupted value becomes a load address: the access stream itself
#: is unprovable, so the walk must bail and the point streams.
TAINTED_ADDRESS_PROGRAM = """
.data
idx:
    .word 0
tbl:
    .word 0x10
    .word 0x20
.text
main:
    set idx, r1
    ld [r1], r2
    sll r2, 2, r2
    set tbl, r3
    ld [r3+r2], r4
    set 0, r4
    set 0, r2
    halt
"""


#: The second load reads a flip that landed on the resident word; its
#: taint dies at once, and a clean loop runs out the rest of the
#: program: the walk needs exactly the instructions from that load to
#: the end of the run.
CLEAN_TAIL_PROGRAM = """
.data
val:
    .word 0x11111111
.text
main:
    set val, r1
    ld [r1], r2
    ld [r1], r2
    set 0, r2
    set 5, r3
loop:
    subcc r3, 1, r3
    bne loop
    nop
    halt
"""


#: Exercises every clean-stretch step of the sparse walk.  The squared
#: corrupted value spreads the flip over several bytes of `b` and is
#: dropped; a sub-word load re-taints a register from `b` right away
#: (rebuilt from the walk's own state); a load into r0 never taints;
#: clean sub-word stores shrink the `b` delta and the faulted word's
#: mask; a clean loop runs past the next checkpoint before `b` re-taints
#: a register again (rebuilt from the checkpoint) and may leak into `c`;
#: clean stores finally clear `b` and `a`, so only that leak is `sdc`.
SPARSE_WALK_PROGRAM = """
.data
a:
    .word 0x01020304
b:
    .word 0x0A0B0C0D
c:
    .word 0
.text
main:
    set a, r1
    set b, r2
    ld [r1], r3
    ld [r1], r3
    smul r3, r3, r3
    st r3, [r2]
    set 0, r3
    ldub [r2 + 1], r4
    set 0, r4
    ld [r2], r0
    sth r0, [r2 + 2]
    stb r0, [r1 + 3]
    set 600, r5
loop:
    subcc r5, 1, r5
    bne loop
    ldub [r2], r4
    add r4, 1, r4
    st r4, [r2 + 4]
    sth r0, [r2]
    ld [r1], r6
    set 0, r6
    st r0, [r1]
    halt
"""


class TestTimelineDeltaWalk:
    """Every provable / unprovable deviation case of `_walk_divergent`,
    pinned byte-identical to the classic per-point path."""

    def _run(self, program_text, name, *, policies=("no-ecc",), bits=(0, 7, 31)):
        program, trace, specs = _grid(program_text, name, policies, bits=bits)
        _assert_equivalent(program, trace, specs)
        return specs, run_injection_batch(specs, program=program)

    def test_dead_taint_proves_masked_without_streaming(self):
        _specs, batch = self._run(DEAD_LOAD_PROGRAM, "dead_load")
        assert all(result.replay_mode == "analytical" for result in batch)
        assert any(
            result.diverged and result.outcome.value == "masked"
            for result in batch
        )

    def test_taint_chain_into_store_proves_sdc(self):
        _specs, batch = self._run(TAINT_STORE_PROGRAM, "taint_store")
        proved = [
            result
            for result in batch
            if result.replay_mode == "analytical"
            and result.diverged
            and result.outcome.value == "sdc"
        ]
        assert proved, "no analytically proved SDC point in the grid"
        for result in proved:
            assert result.faulty_instructions == result.golden_instructions

    def test_nop_reconvergence_proves_timing_with_extra_instructions(self):
        _specs, batch = self._run(TIMING_EXTRA_NOP_PROGRAM, "timing_extra")
        timings = [r for r in batch if r.outcome.value == "timing"]
        assert timings, "no timing outcome in the extra-NOP grid"
        for result in timings:
            assert result.replay_mode == "analytical"
            assert result.diverged
            assert (
                result.faulty_instructions == result.golden_instructions + 3
            )

    def test_nop_reconvergence_proves_timing_with_skipped_instructions(self):
        _specs, batch = self._run(TIMING_SKIP_NOP_PROGRAM, "timing_skip")
        timings = [r for r in batch if r.outcome.value == "timing"]
        assert timings, "no timing outcome in the skip-NOP grid"
        for result in timings:
            assert result.replay_mode == "analytical"
            assert result.diverged
            assert (
                result.faulty_instructions == result.golden_instructions - 2
            )

    def test_divergent_branch_arms_still_stream(self):
        _specs, batch = self._run(UNPROVABLE_BRANCH_PROGRAM, "unprovable_br")
        assert any(result.replay_mode == "streamed" for result in batch)

    def test_tainted_address_still_streams(self):
        _specs, batch = self._run(TAINTED_ADDRESS_PROGRAM, "tainted_addr")
        assert any(result.replay_mode == "streamed" for result in batch)

    def test_budget_exhaustion_falls_back_to_streaming(self, monkeypatch):
        from repro.campaign import triage

        monkeypatch.setattr(triage, "TIMING_WALK_BUDGET", 2)
        _specs, batch = self._run(TAINT_STORE_PROGRAM, "budget_stream")
        assert any(result.replay_mode == "streamed" for result in batch)
        assert not any(
            result.diverged and result.replay_mode == "analytical"
            for result in batch
        )


    def test_sparse_steps_prove_every_point(self):
        from repro.telemetry import metrics

        metrics.reset_registry()
        _specs, batch = self._run(SPARSE_WALK_PROGRAM, "sparse_walk", bits=(0, 9, 26))
        assert all(result.replay_mode == "analytical" for result in batch)
        outcomes = {r.outcome.value for r in batch if r.diverged}
        assert {"masked", "sdc"} <= outcomes
        skipped = metrics.registry().value(
            "campaign_walk_instructions_total", {"mode": "skipped"}
        )
        assert skipped > 600
        metrics.reset_registry()

    def test_budget_boundary_with_a_clean_tail(self, monkeypatch):
        """Skipped instructions are charged like interpreted ones: the
        walk proves the point at a budget of exactly the instructions
        from the diverging load to the end, and streams one below."""
        from repro.campaign import triage

        program = assemble(CLEAN_TAIL_PROGRAM, name="clean_tail")
        golden = golden_pass(program)
        needed = golden.instructions - golden.op_instr[1]
        spec = SimulationSpec(
            policy="no-ecc",
            fault=FaultSpec(
                target="dl1", word_address=_words_of(golden.trace)[0], bit=3, at_access=2
            ),
        )
        reference = run_injection(spec, golden=golden).payload()
        modes = {}
        for budget in (needed, needed - 1):
            monkeypatch.setattr(triage, "TIMING_WALK_BUDGET", budget)
            (result,) = run_injection_batch([spec], program=program)
            assert result.payload() == reference
            modes[budget] = result.replay_mode
        assert modes == {needed: "analytical", needed - 1: "streamed"}


class TestKernelGridEquivalence:
    def test_sampled_strata_across_policies_and_targets(self):
        kernel, scale = "rspeed", 0.1
        specs = []
        for policy in ("no-ecc", "extra-cycle", "wt-parity", "laec"):
            for target in ("dl1", "l2"):
                for fault in sample_faults(
                    kernel, scale, policy, 6, seed=2019, target=target
                ):
                    specs.append(
                        SimulationSpec(
                            kernel=kernel, scale=scale, policy=policy, fault=fault
                        )
                    )
        batch = run_injection_batch(specs)
        assert len(batch) == len(specs)
        for spec, batched in zip(specs, batch):
            assert batched.payload() == run_injection(spec).payload()


# --------------------------------------------------------------------- #
# faulty simulate_spec: the campaign's engine, the oracle's answer      #
# --------------------------------------------------------------------- #
def _assert_faulty_simulation_matches_the_oracle(spec, program=None):
    """``simulate_spec`` of a faulty spec equals the oracle composition:
    ``run_injection(keep_trace=True)`` timed by ``simulate_spec``."""
    from repro.simulation import simulate_spec

    golden = (
        golden_pass(program)
        if program is not None
        else cached_golden_run(spec.kernel, spec.scale)
    )
    oracle = run_injection(spec, golden=golden, keep_trace=True)
    timed = oracle.faulty_trace if oracle.faulty_trace is not None else golden.trace
    expected = simulate_spec(spec.with_fault(None), program=golden.program, trace=timed)
    result = simulate_spec(spec, program=program)
    assert result.injection.payload() == oracle.payload(), spec.fault
    assert result.trace == timed, spec.fault
    assert result.cycles == expected.cycles
    assert result.instructions == expected.instructions
    assert result.stats.as_dict() == expected.stats.as_dict()
    return oracle


#: A fresh process runs a campaign over both targets and faulty
#: simulate_spec calls (a corrected point, a streamed diverging point,
#: a crash), then lists every module it loaded from ``tests/`` (the
#: oracles live in ``tests/oracles/``, which is on its path).
ONE_ENGINE_SCRIPT = """
import pathlib
import sys

import repro
from repro.campaign import CampaignConfig, run_campaign
from repro.campaign.replay import run_injection_batch
from repro.campaign.sampling import sample_faults
from repro.isa.assembler import assemble
from repro.scenarios.spec import FaultSpec, SimulationSpec
from repro.simulation import simulate_spec

result = run_campaign(CampaignConfig(
    kernels=("rspeed",), policies=("no-ecc", "extra-cycle"), scale=0.1,
    trials=8, batch=4, seed=2019, targets=("dl1", "l2"),
))
assert result.stats.analytical + result.stats.streamed == result.points > 0
pool = [
    SimulationSpec(kernel="puwmod", scale=0.1, policy="no-ecc", fault=fault)
    for fault in sample_faults("puwmod", 0.1, "no-ecc", 40, seed=11)
]
streamed = next(
    spec for spec, point in zip(pool, run_injection_batch(pool))
    if point.replay_mode == "streamed"
)
assert simulate_spec(streamed).injection.diverged
corrected = SimulationSpec(
    kernel="rspeed", scale=0.1, policy="laec",
    fault=FaultSpec(word_address=%(word)d, bit=3, at_access=%(at)d),
)
assert simulate_spec(corrected).injection.outcome.value == "corrected"
program = assemble(%(crash)r, name="crash_prog")
crash = SimulationSpec(
    policy="no-ecc",
    fault=FaultSpec(word_address=program.symbols["ptr"], bit=30, at_access=3),
)
assert "crash" in simulate_spec(crash, program=program).injection.events
tests = pathlib.Path(repro.__file__).resolve().parents[2] / "tests"
print(sorted(
    name for name, module in list(sys.modules.items())
    if tests in pathlib.Path(getattr(module, "__file__", None) or "/").resolve().parents
))
"""


#: A flip of ``x`` steers a branch into an arm of the same length (the
#: stream differs, its length does not); then four lines of the same set
#: evict x's line from the 4-way DL1.  The resumed run's watched set
#: decides the final ``x``: a clean line drops the corrupted copy
#: (timing), a line dirtied by a store at ``join`` writes it back (sdc).
WATCHED_SET_PROGRAM = """
.data
x:
    .word 5
    .word 0
.text
main:
    set x, r1
    ld [r1+4], r5
    ld [r1], r2
    subcc r2, 5, r0
    be same
    set 1, r6
    ba join
same:
    set 1, r6
    nop
join:
    %s
    set 4096, r7
    add r1, r7, r8
    ld [r8], r9
    add r8, r7, r8
    ld [r8], r9
    add r8, r7, r8
    ld [r8], r9
    add r8, r7, r8
    ld [r8], r9
    halt
"""


class TestFaultySimulateSpec:
    def test_crash_and_hang_grids_match_the_oracle(self):
        outcomes = set()
        for text, name, policies, bits in (
            (CRASH_PROGRAM, "crash_prog", ("no-ecc", "laec"), (7, 30, 33)),
            (HANG_PROGRAM, "hang_prog", ("no-ecc",), (2, 29, 31)),
        ):
            program, _trace, specs = _grid(text, name, policies, bits=bits)
            for spec in specs:
                oracle = _assert_faulty_simulation_matches_the_oracle(spec, program)
                outcomes.update(
                    event for event in oracle.events if event in ("crash", "hang")
                )
        assert outcomes == {"crash", "hang"}

    @pytest.mark.parametrize("join, outcome", [("nop", "timing"), ("st r6, [r1+4]", "sdc")])
    def test_resumed_eviction_of_the_faulted_line_matches_the_oracle(self, join, outcome):
        program, trace, specs = _grid(
            WATCHED_SET_PROGRAM % join, "watched_set", ("no-ecc",), bits=(0, 7, 31)
        )
        _assert_equivalent(program, trace, specs)
        batch = run_injection_batch(specs, program=program)
        streamed = [
            (spec, point) for spec, point in zip(specs, batch)
            if point.replay_mode == "streamed" and spec.fault.target == "dl1"
        ]
        assert {point.outcome.value for _spec, point in streamed} == {outcome}
        for spec, _point in streamed:
            _assert_faulty_simulation_matches_the_oracle(spec, program)

    def test_diverging_kernel_points_match_the_oracle(self):
        modes = set()
        for kernel, target in itertools.product(("rspeed", "puwmod"), ("dl1", "l2")):
            specs = [
                SimulationSpec(kernel=kernel, scale=0.1, policy="no-ecc", fault=fault)
                for fault in sample_faults(kernel, 0.1, "no-ecc", 40, seed=11, target=target)
            ]
            for spec, point in zip(specs, run_injection_batch(specs)):
                if point.diverged:
                    modes.add(point.replay_mode)
                    _assert_faulty_simulation_matches_the_oracle(spec)
        # Both the walk-proved and the streamed divergences resume with
        # recording on.
        assert modes == {"analytical", "streamed"}

    def test_production_never_imports_an_oracle(self):
        import os
        import subprocess
        import sys

        golden = cached_golden_run("rspeed", 0.1)
        stored = set()
        for at_access, (word, is_store) in enumerate(zip(golden.op_wa, golden.op_store), 1):
            if is_store:
                stored.add(word)
            elif word in stored:
                break  # a load of a dirty word: SECDED corrects the flip
        script = ONE_ENGINE_SCRIPT % {"word": word, "at": at_access, "crash": CRASH_PROGRAM}
        tests = os.path.dirname(os.path.abspath(__file__))
        src = os.path.join(os.path.dirname(tests), "src")
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            (src, tests, environment.get("PYTHONPATH", ""))
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=environment,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"


# --------------------------------------------------------------------- #
# the campaign engine in batched mode                                   #
# --------------------------------------------------------------------- #
BASE = dict(
    kernels=("rspeed",),
    policies=("no-ecc", "extra-cycle"),
    scale=0.1,
    trials=8,
    batch=4,
    seed=2019,
    targets=("dl1", "l2"),
    retry_backoff=0.0,
)


def config(**overrides) -> CampaignConfig:
    merged = dict(BASE)
    merged.update(overrides)
    return CampaignConfig(**merged)


class TestBatchedCampaign:
    def test_stored_payloads_match_the_per_point_reference(self, tmp_path):
        """Every payload the campaign stores equals the classic per-point
        ``run_injection`` payload for the same spec (the CI sweep grid:
        2 policies x 2 targets x 2 scenarios x 4 trials = 32 rows)."""
        grid = config(
            trials=4, batch=2, scenarios=("isolation", "laec-worst")
        )
        with ResultStore(tmp_path / "reference.sqlite") as store:
            run_campaign(grid, store=store, resume=True)
            stored = {key: store.get(key) for key in store.keys()}
        specs = [
            SimulationSpec(
                kernel=kernel,
                scale=scale,
                policy=policy,
                interference=grid.scenario_interference(scenario),
                fault=fault,
            )
            for kernel, policy, target, scenario, scale in grid.strata()
            for fault in sample_faults(
                kernel,
                scale,
                policy,
                grid.trials,
                seed=grid.seed,
                target=target,
                scenario=scenario,
            )
        ]
        assert len(specs) == len(stored) == 32
        for spec in specs:
            assert stored[spec_hash(spec)] == run_injection(spec).payload(), (
                f"stored != reference for {spec.fault} under {spec.policy}"
            )

    def test_mode_counters_sum_to_total_points(self):
        result = run_campaign(config())
        stats = result.stats
        assert (
            stats.analytical + stats.streamed + stats.store_hits
            == result.points
        )
        # The triage pass must actually eliminate work.
        assert stats.analytical > 0
        assert stats.store_hits == 0
        # A run without chaos quarantines nothing.
        assert result.quarantined_points == 0

    def test_timing_walk_disabled_streams_byte_identically(self, monkeypatch):
        """With the timeline-delta walk disabled every load-visible
        corruption streams through suffix-resume; the summary must not
        change, only the analytical/streamed split."""
        from repro.campaign import triage

        walked = run_campaign(config())
        monkeypatch.setattr(triage, "TIMING_WALK_BUDGET", 0)
        streamed = run_campaign(config())
        assert streamed.render() == walked.render()
        assert streamed.stats.streamed > 0
        assert walked.stats.streamed < streamed.stats.streamed
        assert (
            streamed.stats.analytical + streamed.stats.streamed
            + streamed.stats.store_hits
            == streamed.points
        )

    def test_walk_matches_streaming_on_every_kernel(self, monkeypatch):
        """The sparse walk against the streamed oracle over all 16
        kernels, both fault targets: byte-identical summaries."""
        from repro.campaign import triage
        from repro.workloads.registry import KERNEL_NAMES

        grid = config(kernels=tuple(KERNEL_NAMES), policies=("no-ecc",), trials=12)
        walked = run_campaign(grid)
        monkeypatch.setattr(triage, "TIMING_WALK_BUDGET", 0)
        streamed = run_campaign(grid)
        assert len(KERNEL_NAMES) == 16
        assert streamed.render() == walked.render()
        assert walked.stats.streamed < streamed.stats.streamed

    def test_benchmark_grid_mode_counts(self, capsys):
        """The benchmark's reference grid at seed 2019: the walk proves
        all but 8 of the 768 points, and the other 8 stream."""
        from repro import __main__ as cli

        code = cli.main(
            [
                "campaign", "--kernels", "aifirf,canrdr,matrix,tblook",
                "--targets", "dl1,l2", "--trials", "24", "--scale", "1.0",
                "--seed", "2019", "-q",
            ]
        )
        assert code == 0
        assert "analytical=760 streamed=8 store_hits=0" in capsys.readouterr().err

    def test_walk_counters_account_for_every_walk(self, monkeypatch):
        """Every streamed point is one walk bail-out, and pool workers
        ship their walk counters home: pooled totals equal serial ones.
        A group that fails after its walks ran is split and rerun; the
        failed attempt's counters are dropped, so the totals still
        equal the clean run's."""
        from repro.campaign import replay
        from repro.telemetry import metrics

        names = ("campaign_triage_bailouts_total", "campaign_walk_instructions_total")

        def walk_counters(**overrides):
            metrics.reset_registry()
            result = run_campaign(
                config(kernels=("tblook",), policies=("no-ecc",), **overrides)
            )
            counters = {
                (metric.name, metric.labels): metric.value
                for metric in metrics.registry()
                if metric.name in names
            }
            metrics.reset_registry()
            return result, counters

        serial, counters = walk_counters()
        bailouts = sum(
            value for (name, _labels), value in counters.items() if name == names[0]
        )
        assert bailouts == serial.stats.streamed > 0
        assert counters[(names[1], (("mode", "interpreted"),))] > 0
        assert counters[(names[1], (("mode", "skipped"),))] > 0
        _pooled, pooled_counters = walk_counters(workers=2)
        assert pooled_counters == counters

        real_batch = replay.run_injection_batch
        failures = []

        def fail_once_after_the_walks(specs, **kwargs):
            results = real_batch(specs, **kwargs)
            if not failures:
                failures.append(len(results))
                raise RuntimeError("group failed after its walks ran")
            return results

        monkeypatch.setattr(replay, "run_injection_batch", fail_once_after_the_walks)
        retried, retried_counters = walk_counters()
        assert failures and failures[0] > 1
        assert retried.render() == serial.render()
        assert retried.stats.streamed == serial.stats.streamed
        assert retried_counters == counters

    def test_warm_resume_counts_store_hits(self, tmp_path):
        with ResultStore(tmp_path / "warm.sqlite") as store:
            cold = run_campaign(config(), store=store, resume=True)
            warm = run_campaign(config(), store=store, resume=True)
        assert warm.simulated == 0
        assert warm.stats.store_hits == warm.points == cold.points
        assert (
            warm.stats.analytical + warm.stats.streamed == 0
        )
        assert warm.render() == cold.render()


    def test_campaign_hot_path_never_runs_the_object_interpreter(
        self, tmp_path, monkeypatch
    ):
        """Cold and resumed campaigns sample and replay from the golden
        run alone: with the object interpreter rigged to raise, both
        still match an unpatched run."""
        from repro.campaign import sampling

        reference = run_campaign(config())

        def forbidden(*_args, **_kwargs):
            raise AssertionError("object interpreter on the campaign path")

        sampling._SPACE_CACHE.clear()
        clear_kernel_trace_cache()
        monkeypatch.setattr(FunctionalSimulator, "step", forbidden)
        with ResultStore(tmp_path / "lean.sqlite") as store:
            cold = run_campaign(config(), store=store, resume=True)
            resumed = run_campaign(config(), store=store, resume=True)
        assert cold.stats.analytical + cold.stats.streamed == cold.points
        assert resumed.stats.store_hits == resumed.points
        assert cold.render() == resumed.render() == reference.render()


# --------------------------------------------------------------------- #
# golden timeline cache                                                 #
# --------------------------------------------------------------------- #
class TestGoldenTimelines:
    @pytest.mark.parametrize(
        "write_back, ways, write_allocate",
        [(True, 1, True), (True, 4, True), (False, 1, True), (False, 4, False)],
        ids=["wb-1way", "wb-4way", "wt-1way", "wt-4way-no-allocate"],
    )
    def test_cached_lookups_equal_fresh_walks(
        self, write_back, ways, write_allocate
    ):
        from repro.campaign.timeline import (
            CacheGeometry,
            build_timelines,
            golden_timelines,
        )

        golden = golden_pass(build_kernel("canrdr", scale=0.1))
        # Two sets: this kernel then evicts clean and dirty lines.
        geometry = CacheGeometry(
            line_bits=5,
            set_bits=1,
            ways=ways,
            write_back=write_back,
            write_allocate=write_allocate,
        )
        cached = golden_timelines(golden, geometry)
        assert golden_timelines(golden, geometry) is cached
        touched = set(golden.op_wa)
        lines = sorted({wa & geometry.line_mask for wa in touched})
        words = [line + offset for line in lines for offset in range(0, 32, 4)]
        siblings = [wa for wa in words if wa not in touched]
        untouched_line = lines[-1] + 0x1000
        assert siblings
        for wa in words + [untouched_line]:
            fresh = build_timelines(golden, geometry, [wa])[wa]
            assert cached.get(wa, []) == fresh, hex(wa)
        assert untouched_line not in cached
        # Never-touched siblings still see their line's fills/evictions.
        assert any(cached[wa] for wa in siblings)

    def test_campaign_walks_once_per_golden_run_and_geometry(self, monkeypatch):
        from repro.campaign import replay, timeline

        walks, batches = [], []
        real_walk = timeline.build_timelines
        real_batch = replay.run_injection_batch

        def counting_walk(golden, geometry, words):
            walks.append((id(golden), geometry))
            return real_walk(golden, geometry, words)

        def counting_batch(specs, **kwargs):
            batches.append(len(specs))
            return real_batch(specs, **kwargs)

        clear_kernel_trace_cache()
        monkeypatch.setattr(timeline, "build_timelines", counting_walk)
        monkeypatch.setattr(replay, "run_injection_batch", counting_batch)
        # no-ecc/extra-cycle share the write-back DL1; wt-parity's DL1
        # is write-through: one golden run, two geometries.
        run_campaign(config(policies=("no-ecc", "extra-cycle", "wt-parity")))
        assert len(batches) > 2
        assert len(walks) == len(set(walks)) == 2


class TestChaosUnderBatching:
    def test_worker_kill_under_batching_matches_clean_run(self):
        clean = run_campaign(config(workers=2))
        crashed = run_campaign(
            config(workers=2), chaos=parse_chaos("kill-worker@2")
        )
        assert crashed.render() == clean.render()
        assert crashed.stats.worker_restarts >= 1
        assert not crashed.quarantined
        # Counters still account for every point.
        stats = crashed.stats
        assert (
            stats.analytical + stats.streamed + stats.store_hits
            == crashed.points
        )

    def test_chaos_resume_is_byte_identical(self, tmp_path):
        with ResultStore(tmp_path / "chaos.sqlite") as store:
            crashed = run_campaign(
                config(workers=2),
                store=store,
                resume=True,
                chaos=parse_chaos("kill-worker@2"),
            )
            resumed = run_campaign(config(workers=2), store=store, resume=True)
        assert resumed.simulated == 0
        assert resumed.render() == crashed.render()

    def test_transient_fail_is_retried_through_the_point_path(self):
        clean = run_campaign(config())
        chaotic = run_campaign(config(), chaos=parse_chaos("fail@2"))
        assert chaotic.render() == clean.render()
        assert chaotic.stats.retries == 1
        # The retried point counts under its real replay mode.
        stats = chaotic.stats
        assert stats.analytical + stats.streamed == chaotic.points

    def test_failed_group_is_split_and_only_the_poison_point_charged(
        self, monkeypatch
    ):
        """A batch replay that raises fails its whole group; the
        supervisor must split it into singletons, charge only the point
        that keeps failing and complete its group-mates uncharged."""
        from repro.campaign import replay

        poison = SimulationSpec(
            kernel="rspeed",
            scale=0.1,
            policy="no-ecc",
            fault=sample_faults("rspeed", 0.1, "no-ecc", 4, seed=2019)[2],
        )
        seen = []
        real_batch = replay.run_injection_batch

        def poisoned_batch(specs, **kwargs):
            specs = list(specs)
            if poison in specs:
                seen.append(len(specs))
                raise RuntimeError("poisoned batch")
            return real_batch(specs, **kwargs)

        monkeypatch.setattr(replay, "run_injection_batch", poisoned_batch)
        cfg = config()
        result = run_campaign(cfg)
        monkeypatch.undo()
        clean = run_campaign(cfg)

        # One failed group of 4, then max_retries + 1 singleton attempts.
        assert seen == [4] + [1] * (cfg.max_retries + 1)
        assert result.quarantined_points == 1
        point = result.quarantined[0]
        assert point.index == 2
        assert point.attempts == cfg.max_retries + 1
        assert point.error["error"] == "replay-divergence"
        assert result.stats.retries == cfg.max_retries
        # Every charged failure was the poison point's own.
        assert result.stats.replay_failures == cfg.max_retries + 1
        # The group-mates completed with their clean outcomes.
        assert result.points == clean.points - 1
        expected = dict(clean.strata[0].counts)
        expected[str(run_injection(poison).payload()["outcome"])] -= 1
        assert result.strata[0].counts == expected
        assert result.strata[0].quarantined == 1
        assert [stratum.counts for stratum in result.strata[1:]] == [
            stratum.counts for stratum in clean.strata[1:]
        ]


# --------------------------------------------------------------------- #
# batched store lookups                                                 #
# --------------------------------------------------------------------- #
class TestGetMany:
    def test_matches_per_key_get_including_accounting(self, tmp_path):
        with ResultStore(tmp_path / "a.sqlite") as store:
            for index in range(7):
                store.put(f"k{index}", {"v": index})
            keys = [f"k{index}" for index in range(10)]
            batched = store.get_many(keys)
            assert store.hits == 7
            assert store.misses == 3
        with ResultStore(tmp_path / "a.sqlite") as store:
            scalar = {}
            for key in keys:
                payload = store.get(key)
                if payload is not None:
                    scalar[key] = payload
            assert batched == scalar
            assert store.hits == 7
            assert store.misses == 3

    def test_drops_corrupt_rows_like_get(self, tmp_path):
        from repro.campaign.chaos import corrupt_store_row

        path = tmp_path / "b.sqlite"
        with ResultStore(path) as store:
            for index in range(4):
                store.put(f"k{index}", {"v": index})
        corrupted = corrupt_store_row(path, 0)
        with ResultStore(path) as store:
            found = store.get_many([f"k{index}" for index in range(4)])
            assert corrupted not in found
            assert len(found) == 3
            assert store.corrupt_dropped == 1
            assert store.misses == 1
            # The corrupt row was deleted, not just skipped: a re-read
            # is a plain miss that a resume would re-simulate.
            assert store.get(corrupted) is None
