"""Differential equivalence of the batched replay backend.

``run_injection_batch`` must be *payload byte-identical* to the classic
per-point ``run_injection`` over full grids — the analytical triage, the
snapshot suffix-resume and the classic fallback are three routes to one
answer, never three answers.  These tests pin that equivalence over:

* the lean pre-decoded golden pass vs the functional simulator;
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

import itertools

import pytest

from repro.campaign import (
    CampaignConfig,
    parse_chaos,
    replay_group_key,
    run_campaign,
    run_injection,
    run_injection_batch,
    sample_fault_groups,
    sample_faults,
)
from repro.functional.simulator import FunctionalSimulator, run_program
from repro.isa.assembler import assemble
from repro.scenarios.spec import FaultSpec, SimulationSpec
from repro.store import ResultStore, spec_hash

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


def _words_of(trace):
    return sorted({d.address & ~3 for d in trace.instructions if d.address is not None})


def _mem_ops(trace):
    return sum(1 for d in trace.instructions if d.address is not None)


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
    for spec, batched in zip(specs, batch):
        classic = run_injection(spec, program=program, trace=trace)
        assert batched.payload() == classic.payload(), (
            f"batched != classic for {spec.fault} under {spec.policy}"
        )


# --------------------------------------------------------------------- #
# lean golden pass                                                      #
# --------------------------------------------------------------------- #
class TestLeanGoldenPass:
    @pytest.mark.parametrize("kernel", ["rspeed", "canrdr"])
    def test_matches_functional_simulator(self, kernel):
        from repro.campaign.lean_sim import golden_pass, memories_equal
        from repro.workloads import build_kernel

        program = build_kernel(kernel, scale=0.05)
        golden = golden_pass(program)
        trace = run_program(program)
        assert golden.instructions == len(trace)
        assert golden.pcs == [d.pc for d in trace.instructions]
        assert golden.total_ops == _mem_ops(trace)

        simulator = FunctionalSimulator(program)
        simulator.run()
        final = {}
        for page_number, data in simulator.memory._pages.items():
            base = page_number << 12
            for offset in range(0, len(data), 4):
                word = int.from_bytes(data[offset : offset + 4], "little")
                if word:
                    final[base + offset] = word
        assert memories_equal(golden.mem_final, final)

    def test_store_history_reconstructs_values_over_time(self):
        from repro.campaign.lean_sim import golden_pass

        program = assemble(WRITEBACK_PROGRAM, name="wb_hist")
        golden = golden_pass(program)
        trace = run_program(program)
        dst = next(d.address for d in trace.instructions if d.is_store) & ~3
        # Before the first store the word is its initial value; after
        # the last memory op it is the stored value.
        assert golden.value_at(dst, 1) == 0
        assert golden.value_at(dst, golden.total_ops + 1) == 0x13579BDF


# --------------------------------------------------------------------- #
# differential grids                                                    #
# --------------------------------------------------------------------- #
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
            assert result.replay_mode in ("analytical", "streamed", "full")
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
#: work: the walk must bail and the point streams through resume_faulty.
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
# group-ordered emission                                                #
# --------------------------------------------------------------------- #
class TestGroupedSampling:
    def test_groups_are_ordered_and_byte_identical_to_per_stratum(self):
        strata = [
            ("rspeed", 0.1, "no-ecc", "dl1", "isolation"),
            ("rspeed", 0.1, "laec", "dl1", "isolation"),
            ("rspeed", 0.1, "no-ecc", "l2", "isolation"),
        ]
        groups = sample_fault_groups(strata, 5, seed=2019)
        assert list(groups) == [
            replay_group_key("rspeed", 0.1),
            replay_group_key("rspeed", 0.1, target="l2"),
        ]
        dl1_group = groups[replay_group_key("rspeed", 0.1)]
        # Both DL1 policies share one group (one golden run serves both).
        assert [policy for policy, _fault in dl1_group] == ["no-ecc"] * 5 + [
            "laec"
        ] * 5
        assert [fault for policy, fault in dl1_group if policy == "no-ecc"] == (
            sample_faults("rspeed", 0.1, "no-ecc", 5, seed=2019)
        )


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
            stats.analytical + stats.streamed + stats.full + stats.store_hits
            == result.points
        )
        # The triage pass must actually eliminate work.
        assert stats.analytical > 0
        assert stats.store_hits == 0

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
            + streamed.stats.full + streamed.stats.store_hits
            == streamed.points
        )

    def test_warm_resume_counts_store_hits(self, tmp_path):
        with ResultStore(tmp_path / "warm.sqlite") as store:
            cold = run_campaign(config(), store=store, resume=True)
            warm = run_campaign(config(), store=store, resume=True)
        assert warm.simulated == 0
        assert warm.stats.store_hits == warm.points == cold.points
        assert (
            warm.stats.analytical + warm.stats.streamed + warm.stats.full == 0
        )
        assert warm.render() == cold.render()


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
            stats.analytical + stats.streamed + stats.full + stats.store_hits
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
        assert stats.analytical + stats.streamed + stats.full == chaotic.points

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
        from repro.campaign import corrupt_store_row

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
