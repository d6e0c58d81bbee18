"""Architectural fault-injection campaign: hooks, replay, engine, resume."""

from __future__ import annotations

import json
import os

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.campaign.outcome import ArchOutcome
from repro.campaign.replay import simulate_faulty_spec
from repro.campaign.sampling import sample_faults
from repro.campaign.reference import ShadowCache, run_injection
from repro.ecc.secded import HsiaoSecDedCode
from repro.memory.config import CacheConfig
from repro.memory.reference_cache import ReferenceCache
from repro.scenarios import FaultSpec, SimulationSpec
from repro.store import ResultStore
from repro.workloads import KERNEL_NAMES, build_kernel

#: The kernels of the benchmark's campaign grid.
BENCH_KERNELS = ("aifirf", "canrdr", "matrix", "tblook")


# --------------------------------------------------------------------- #
# injection hooks of the oracle's shadow cache                          #
# --------------------------------------------------------------------- #
class TestCacheInjectionHooks:
    def _cache(self):
        return ShadowCache(
            CacheConfig(size_bytes=1024, line_bytes=32, ways=2, name="dl1"),
            HsiaoSecDedCode(),
        )

    def test_fault_triggers_at_the_armed_ordinal(self):
        cache = self._cache()
        cache.ecc_store_word(0x40, 0x1234)
        cache.access(0x40)  # make the line resident
        armed = cache.arm_fault(0x40, bit=3, at_access=2)
        cache.access(0x40)
        assert not armed.triggered
        cache.access(0x40)
        assert armed.triggered and armed.resident and armed.flipped
        decoded = cache.ecc_code.decode(cache.ecc_load_raw(0x40))
        assert decoded.corrected
        assert decoded.data == 0x1234

    def test_fault_on_non_resident_word_corrupts_nothing(self):
        cache = self._cache()
        cache.access(0x40)
        armed = cache.arm_fault(0x2000, bit=0, at_access=1)
        cache.access(0x80)
        assert armed.triggered
        assert not armed.resident and not armed.flipped

    def test_bit_range_is_validated(self):
        cache = self._cache()
        with pytest.raises(ValueError):
            cache.arm_fault(0x40, bit=39, at_access=1)

    def test_access_reports_clean_evictions(self):
        config = CacheConfig(size_bytes=64, line_bytes=32, ways=1, name="tiny")
        cache = ReferenceCache(config)
        cache.access(0x0)
        result = cache.access(0x80)  # same set, evicts the clean 0x0 line
        assert result.evicted_address == 0x0
        assert not result.writeback


# --------------------------------------------------------------------- #
# architectural replay                                                  #
# --------------------------------------------------------------------- #
def _load_after_store_point(kernel: str, scale: float):
    """A fault point aimed at a word that is stored then loaded again."""
    from repro.experiments.runner import cached_golden_run

    golden = cached_golden_run(kernel, scale)
    stored = set()
    for ordinal, (word, is_store, size) in enumerate(
        zip(golden.op_wa, golden.op_store, golden.op_size), 1
    ):
        if is_store:
            stored.add(word)
        elif word in stored and size == 4:
            return word, ordinal
    raise AssertionError(f"{kernel} has no load-after-store pattern")


class TestArchitecturalReplay:
    KERNEL = "canrdr"
    SCALE = 0.1

    def _spec(self, policy, bit=3):
        word, at_access = _load_after_store_point(self.KERNEL, self.SCALE)
        return SimulationSpec(
            kernel=self.KERNEL,
            scale=self.SCALE,
            policy=policy,
            fault=FaultSpec(word_address=word, bit=bit, at_access=at_access),
        )

    def test_unprotected_write_back_suffers_sdc(self):
        result = run_injection(self._spec("no-ecc"))
        assert result.triggered and result.resident and result.dirty_at_injection
        assert result.outcome is ArchOutcome.SILENT_DATA_CORRUPTION

    @pytest.mark.parametrize("policy", ["extra-cycle", "extra-stage", "laec"])
    def test_secded_corrects_the_dirty_flip(self, policy):
        result = run_injection(self._spec(policy))
        assert result.outcome is ArchOutcome.CORRECTED
        assert "load_corrected" in result.events
        assert not result.diverged

    def test_wt_parity_detects_and_refetches(self):
        result = run_injection(self._spec("wt-parity"))
        # Write-through keeps a clean L2 copy: detection is recoverable.
        assert result.outcome is ArchOutcome.DETECTED
        assert "load_detected_refetch" in result.events
        assert not result.dirty_at_injection

    def test_check_bit_flip_under_parity_is_detected_not_sdc(self):
        # Bit 32 is the parity bit itself: flips there never corrupt data.
        result = run_injection(self._spec("wt-parity", bit=32))
        assert result.outcome in (ArchOutcome.DETECTED, ArchOutcome.MASKED)

    def test_store_after_l2_injection_supersedes_the_stale_codeword(self):
        # Regression: a pending L2 flip captured the *old* word's
        # codeword; overwriting the backing word (write-through store or
        # dirty writeback) must drop it, or a later refill would
        # "correct" back to the stale pre-store value.
        from repro.campaign.reference import Dl1ContentModel
        from repro.core.policies import make_policy
        from repro.functional.memory import FlatMemory
        from repro.memory.config import MemoryHierarchyConfig, WritePolicy

        policy = make_policy("wt-parity")
        hierarchy = MemoryHierarchyConfig(l1d=CacheConfig(name="dl1", write_policy=WritePolicy.WRITE_THROUGH))
        backing = FlatMemory()
        backing.write(0x1000, 0x11111111, 4)
        model = Dl1ContentModel(
            hierarchy,
            policy.dl1_code(),
            backing,
            l2_code=policy.l2_code(),
        )
        assert model.load(0x1000, 4) == 0x11111111  # line resident
        model.inject_l2_fault(0x1000, bit=5)
        model.store(0x1000, 0x22222222, 4)  # write-through supersedes
        # Evict the line so the next load refills from backing.
        line_bytes = hierarchy.l1d.line_bytes
        for way in range(hierarchy.l1d.ways + 1):
            model.load(0x1000 + way * hierarchy.l1d.sets * line_bytes, 4)
        assert model.load(0x1000, 4) == 0x22222222

    @pytest.mark.parametrize("policy", ["extra-cycle", "extra-stage", "laec"])
    def test_l2_target_under_protected_deployment_is_always_corrected(self, policy):
        word, at_access = _load_after_store_point(self.KERNEL, self.SCALE)
        spec = SimulationSpec(
            kernel=self.KERNEL,
            scale=self.SCALE,
            policy=policy,
            fault=FaultSpec(
                target="l2", word_address=word, bit=2, at_access=at_access
            ),
        )
        result = run_injection(spec)
        # Protected deployments pair their DL1 scheme with a SECDED L2:
        # a single flip is healed on the next read (or never observed).
        assert result.outcome in (ArchOutcome.CORRECTED, ArchOutcome.MASKED)
        assert result.outcome is not ArchOutcome.SILENT_DATA_CORRUPTION

    def test_l2_code_follows_the_deployment(self):
        from repro.core.policies import make_policy
        from repro.ecc.codec import RawWordCode

        assert isinstance(make_policy("no-ecc").l2_code(), RawWordCode)
        for policy in ("extra-cycle", "extra-stage", "laec", "wt-parity"):
            assert make_policy(policy).l2_code().name == "secded"

    def test_l2_flip_in_unprotected_baseline_can_silently_corrupt(self):
        # The no-ecc baseline is the fully unprotected hierarchy: its L2
        # stores bare words, so a flip observed by a later refill
        # propagates exactly like a DL1 flip.  Sample the stratum the
        # sweep grid would run and require at least one SDC.
        outcomes = set()
        for fault in sample_faults(
            self.KERNEL, self.SCALE, "no-ecc", 12, seed=2019, target="l2"
        ):
            spec = SimulationSpec(
                kernel=self.KERNEL, scale=self.SCALE, policy="no-ecc", fault=fault
            )
            outcomes.add(run_injection(spec).outcome)
        assert ArchOutcome.SILENT_DATA_CORRUPTION in outcomes

    def test_corrupted_jump_target_crashes_detectably(self):
        # A flipped high bit of a loaded function pointer sends the
        # indirect jump outside the text segment: the machine traps, the
        # outcome is DETECTED (never silent), and the partial dynamic
        # stream is what gets reported/timed.
        from repro.functional.interpreter import run_program
        from repro.isa.assembler import assemble
        from repro.simulation import simulate_spec

        program = assemble(
            """
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
""",
            name="jump_via_ptr",
        )
        trace = run_program(program)
        ptr_word = program.symbols["ptr"]
        # Inject before the *third* DL1 access (the second load of ptr).
        spec = SimulationSpec(
            policy="no-ecc",
            fault=FaultSpec(word_address=ptr_word, bit=30, at_access=3),
        )
        injection = run_injection(spec, program=program)
        assert "crash" in injection.events
        assert injection.outcome is ArchOutcome.DETECTED
        assert 0 < injection.faulty_instructions < len(trace)
        result = simulate_spec(spec, program=program, trace=trace)
        assert result.instructions == injection.faulty_instructions

    def test_fault_after_program_end_is_masked(self):
        spec = SimulationSpec(
            kernel=self.KERNEL,
            scale=self.SCALE,
            policy="no-ecc",
            fault=FaultSpec(word_address=0, bit=0, at_access=10_000_000),
        )
        result = run_injection(spec)
        assert not result.triggered
        assert result.outcome is ArchOutcome.MASKED

    def test_simulate_spec_routes_fault_specs(self):
        from repro.simulation import simulate_spec

        spec = self._spec("extra-cycle")
        result = simulate_spec(spec)
        assert result.injection is not None
        assert result.injection.outcome is ArchOutcome.CORRECTED
        assert result.spec is spec
        assert result.cycles > 0
        # A non-diverging fault times the golden stream.
        clean = simulate_spec(spec.with_fault(None))
        assert result.cycles == clean.cycles

    def test_divergent_fault_times_the_faulty_stream(self):
        from repro.simulation import simulate_spec

        spec = self._spec("no-ecc")
        result = simulate_spec(spec)
        assert result.injection.outcome is ArchOutcome.SILENT_DATA_CORRUPTION
        assert result.injection.diverged
        assert result.cycles > 0


# --------------------------------------------------------------------- #
# sampling                                                              #
# --------------------------------------------------------------------- #
class TestSampling:
    def test_prefix_determinism(self):
        whole = sample_faults("rspeed", 0.1, "laec", 10, seed=2019)
        head = sample_faults("rspeed", 0.1, "laec", 4, seed=2019)
        tail = sample_faults("rspeed", 0.1, "laec", 6, seed=2019, start=4)
        assert head + tail == whole

    def test_seed_and_stratum_independence(self):
        a = sample_faults("rspeed", 0.1, "laec", 8, seed=2019)
        b = sample_faults("rspeed", 0.1, "laec", 8, seed=7)
        c = sample_faults("rspeed", 0.1, "no-ecc", 8, seed=2019)
        assert a != b
        assert [p.at_access for p in a] != [p.at_access for p in c] or a != c

    def test_bits_respect_the_policy_codeword_width(self):
        parity = sample_faults("rspeed", 0.1, "wt-parity", 50, seed=1)
        raw = sample_faults("rspeed", 0.1, "no-ecc", 50, seed=1)
        assert all(p.bit < 33 for p in parity)
        assert all(p.bit < 32 for p in raw)

    def test_any_window_is_byte_identical_even_out_of_order(self):
        from repro.campaign.sampling import clear_sample_cursors

        clear_sample_cursors()
        whole = sample_faults("rspeed", 0.1, "laec", 12, seed=2019)
        # Windows requested out of order (each may rewind the cursor).
        for start, count in ((6, 3), (0, 5), (9, 3), (3, 4), (0, 12)):
            window = sample_faults(
                "rspeed", 0.1, "laec", count, seed=2019, start=start
            )
            assert window == whole[start : start + count], (start, count)

    def test_sequential_batches_cost_linear_rng_draws(self, monkeypatch):
        # Regression: sample_faults used to regenerate each stratum's
        # sequence from index 0 on every batch, costing O(N^2) draws for
        # an N-trial stratum.  The per-stratum cursor must keep the
        # engine's sequential batch pattern at exactly N draws.
        from repro.campaign import sampling
        from repro.campaign.sampling import clear_sample_cursors

        draws = []
        draw_point = sampling._draw_point

        def counting_draw_point(*args):
            draws.append(1)
            return draw_point(*args)

        monkeypatch.setattr(sampling, "_draw_point", counting_draw_point)
        clear_sample_cursors()
        total, batch = 48, 8
        collected = []
        for start in range(0, total, batch):
            collected += sample_faults(
                "rspeed", 0.1, "extra-cycle", batch, seed=2019, start=start
            )
        assert len(collected) == total
        assert len(draws) == total  # O(N), not O(N^2)
        clear_sample_cursors()
        assert collected == sample_faults(
            "rspeed", 0.1, "extra-cycle", total, seed=2019
        )

    def test_l2_points_cover_the_working_set_with_l2_bit_widths(self):
        from repro.campaign.sampling import kernel_fault_space

        space = kernel_fault_space("rspeed", 0.1)
        secded = sample_faults("rspeed", 0.1, "laec", 64, seed=1, target="l2")
        raw = sample_faults("rspeed", 0.1, "no-ecc", 64, seed=1, target="l2")
        assert all(p.target == "l2" for p in secded + raw)
        # Protected deployments store 39-bit SECDED codewords in the L2;
        # the unprotected baseline stores bare 32-bit words.
        assert all(p.bit < 39 for p in secded)
        assert any(p.bit >= 32 for p in secded)
        assert all(p.bit < 32 for p in raw)
        # The L2 population is the whole working set, not just the words
        # touched before the injection ordinal.
        assert {p.word_address for p in secded} <= set(space.first_touch)

    @pytest.mark.parametrize(
        "kernel, scale",
        [(kernel, 0.1) for kernel in KERNEL_NAMES]
        + [(kernel, 0.4) for kernel in BENCH_KERNELS],
    )
    def test_fault_space_matches_the_object_interpreter(
        self, kernel, scale, monkeypatch
    ):
        """The compact fault space read off the golden run counts, at
        every memory-op ordinal, the distinct words the object
        interpreter's address stream has touched by then, and a space
        read back from a store equals the derived one — so the sampled
        points (and every campaign summary) cannot move."""
        import random

        from repro.campaign.sampling import (
            clear_sample_cursors,
            kernel_fault_space,
            stratum_identity,
            target_codeword_bits,
        )
        from repro.campaign import sampling
        from repro.functional.reference import run_reference

        trace = run_reference(build_kernel(kernel, scale=scale))
        seen = set()
        first_touch, distinct_before = [], [0]
        for dyn in trace.instructions:
            if dyn.address is None:
                continue
            word = dyn.address & ~0x3
            if word not in seen:
                seen.add(word)
                first_touch.append(word)
            distinct_before.append(len(seen))
        space = kernel_fault_space(kernel, scale)
        assert space.mem_ops == len(distinct_before) - 1
        assert space.first_touch == tuple(first_touch)
        assert [
            space.population(ops) for ops in range(space.mem_ops + 1)
        ] == distinct_before

        monkeypatch.setattr(sampling, "_SPACE_CACHE", {})
        with ResultStore(":memory:") as store:
            assert kernel_fault_space(kernel, scale, store) == space
            sampling._SPACE_CACHE.clear()

            def no_golden(*_):
                raise AssertionError("the stored fault space was re-derived")

            monkeypatch.setattr(sampling, "_derive_fault_space", no_golden)
            assert kernel_fault_space(kernel, scale, store) == space

        def reference_draws(seed, target):
            """The sampler's three draws per point, on the object
            interpreter's per-ordinal population counts."""
            rng = random.Random(stratum_identity(seed, kernel, "laec", target=target))
            bits = target_codeword_bits("laec", target)
            points = []
            for _ in range(32):
                at_access = rng.randint(1, len(distinct_before) - 1)
                if target == "l2":
                    word = first_touch[rng.randrange(len(first_touch))]
                elif distinct_before[at_access - 1]:
                    word = first_touch[rng.randrange(distinct_before[at_access - 1])]
                else:
                    word = first_touch[0]
                points.append(
                    FaultSpec(
                        target=target,
                        word_address=word,
                        bit=rng.randrange(bits),
                        at_access=at_access,
                    )
                )
            return points

        clear_sample_cursors()
        for seed in (2019, 1):
            for target in ("dl1", "l2"):
                assert sample_faults(
                    kernel, scale, "laec", 32, seed=seed, target=target
                ) == reference_draws(seed, target)

    def test_stratum_identity_extends_only_for_non_default_dimensions(self):
        from repro.campaign.sampling import stratum_identity

        # Default dimensions keep the historical identity, so existing
        # DL1-only campaigns reproduce byte-identically.
        assert stratum_identity(2019, "rspeed", "laec") == "campaign:2019:rspeed:laec"
        assert (
            stratum_identity(2019, "rspeed", "laec", target="dl1", scenario="isolation")
            == "campaign:2019:rspeed:laec"
        )
        assert "target=l2" in stratum_identity(2019, "rspeed", "laec", target="l2")
        assert "scenario=worst" in stratum_identity(
            2019, "rspeed", "laec", scenario="worst"
        )

    def test_target_and_scenario_strata_draw_independent_streams(self):
        dl1 = sample_faults("rspeed", 0.1, "no-ecc", 10, seed=2019)
        l2 = sample_faults("rspeed", 0.1, "no-ecc", 10, seed=2019, target="l2")
        contended = sample_faults(
            "rspeed", 0.1, "no-ecc", 10, seed=2019, scenario="laec-worst"
        )
        assert [p.at_access for p in dl1] != [p.at_access for p in l2]
        assert [p.at_access for p in dl1] != [p.at_access for p in contended]

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            sample_faults("rspeed", 0.1, "laec", 4, seed=1, target="dram")


# --------------------------------------------------------------------- #
# the campaign engine                                                   #
# --------------------------------------------------------------------- #
class TestCampaignEngine:
    CONFIG = CampaignConfig(
        kernels=("canrdr", "matrix"),
        scale=0.1,
        trials=16,
        batch=8,
        seed=2019,
    )

    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(self.CONFIG)

    def test_codec_level_ordering_is_reproduced(self, result):
        """The paper's reliability argument, end to end (acceptance)."""
        for kernel in self.CONFIG.kernels:
            for policy in ("extra-cycle", "extra-stage", "laec"):
                stratum = result.stratum(kernel, policy)
                # SECDED corrects every sampled single flip that matters:
                # zero SDC, zero timing deviation.
                assert stratum.counts["sdc"] == 0, (kernel, policy)
                assert stratum.counts["timing"] == 0, (kernel, policy)
                assert stratum.counts["detected"] == 0, (kernel, policy)
        totals = result.policy_totals()
        # The unprotected write-back DL1 shows real silent corruption.
        assert totals["no-ecc"]["sdc"] > 0
        assert totals["no-ecc"]["corrected"] == 0
        # Ordering: no-ecc SDC rate strictly above every SECDED policy.
        for policy in ("extra-cycle", "extra-stage", "laec"):
            assert totals["no-ecc"]["sdc"] > totals[policy]["sdc"] == 0
            assert totals[policy]["corrected"] > 0

    def test_empirical_rates_agree_with_the_analytical_model(self, result):
        from repro.experiments.campaign_summary import analytical_reference

        reference = analytical_reference(self.CONFIG.policies)
        for stratum in result.strata:
            analytic_sdc = reference[stratum.policy]["codec_sdc_bound"]
            low, high = stratum.interval("sdc")
            # The codec-level SDC bound must be consistent with the
            # architectural interval: for correcting codes the analytic
            # 0.0 must lie inside it; for the unprotected array the
            # empirical rate can only sit below the bound.
            if analytic_sdc == 0.0:
                assert low == 0.0, stratum
            else:
                assert stratum.rate("sdc") <= analytic_sdc

    def test_summary_mentions_every_stratum(self, result):
        text = result.render()
        for kernel in self.CONFIG.kernels:
            assert kernel in text
        for policy in self.CONFIG.policies:
            assert policy in text

    def test_early_stopping_on_tight_intervals(self):
        config = CampaignConfig(
            kernels=("rspeed",),
            policies=("extra-cycle",),
            scale=0.1,
            trials=60,
            batch=10,
            ci_target=0.5,  # huge target: stops after the first batch
            seed=2019,
        )
        result = run_campaign(config)
        stratum = result.strata[0]
        assert stratum.early_stopped
        assert stratum.trials == 10

    def test_sharded_campaign_matches_serial(self):
        config = CampaignConfig(
            kernels=("rspeed",), scale=0.1, trials=8, batch=4, seed=2019
        )
        serial = run_campaign(config)
        sharded = run_campaign(
            CampaignConfig(
                kernels=("rspeed",), scale=0.1, trials=8, batch=4, seed=2019, workers=2
            )
        )
        assert sharded.render() == serial.render()


class TestSweepGrid:
    """The multi-dimensional sweep: targets x scenarios x scales."""

    CONFIG = CampaignConfig(
        kernels=("canrdr",),
        policies=("no-ecc", "extra-cycle"),
        scale=0.1,
        trials=12,
        batch=6,
        seed=2019,
        targets=("dl1", "l2"),
        scenarios=("isolation", "laec-worst"),
    )

    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign(self.CONFIG)

    def test_grid_enumerates_every_stratum_in_order(self, result):
        coordinates = [
            (s.kernel, s.policy, s.target, s.scenario, s.scale)
            for s in result.strata
        ]
        assert coordinates == list(self.CONFIG.strata())
        assert len(coordinates) == 1 * 2 * 2 * 2 * 1

    def test_l2_reliability_ordering(self, result):
        # The acceptance property: SECDED L2 strata show zero SDC while
        # the unprotected baseline's L2 strata show real silent
        # corruption.
        for scenario in self.CONFIG.scenarios:
            secded = result.stratum(
                "canrdr", "extra-cycle", target="l2", scenario=scenario
            )
            assert secded.counts["sdc"] == 0, scenario
        totals = result.target_totals()
        assert totals[("l2", "no-ecc")]["sdc"] > 0
        assert totals[("l2", "extra-cycle")]["sdc"] == 0
        assert totals[("l2", "extra-cycle")]["corrected"] > 0

    def test_marginals_are_consistent(self, result):
        policy = result.policy_totals()
        by_target = result.target_totals()
        by_scenario = result.scenario_totals()
        for value in self.CONFIG.policies:
            for key in ("trials", "sdc", "corrected", "masked"):
                assert policy[value][key] == sum(
                    bucket[key]
                    for (target, p), bucket in by_target.items()
                    if p == value
                )
                assert policy[value][key] == sum(
                    bucket[key]
                    for (scenario, p), bucket in by_scenario.items()
                    if p == value
                )

    def test_render_shows_sweep_columns_only_when_swept(self, result):
        text = result.render()
        for header in ("target", "scenario", "l2", "laec-worst"):
            assert header in text
        plain = run_campaign(
            CampaignConfig(
                kernels=("rspeed",), policies=("no-ecc",), scale=0.1, trials=2, batch=2
            )
        ).render()
        assert "target" not in plain
        assert "scenario" not in plain

    def test_scenario_dimension_reaches_the_spec(self):
        from repro.scenarios.registry import get_scenario

        interference = CampaignConfig.scenario_interference("laec-worst")
        assert interference == get_scenario("laec-worst").interference
        assert CampaignConfig.scenario_interference("isolation") is None

    def test_scale_axis_sweeps_multiple_scales(self):
        config = CampaignConfig(
            kernels=("rspeed",),
            policies=("no-ecc",),
            scale=0.1,
            scales=(0.1, 0.2),
            trials=2,
            batch=2,
            seed=2019,
        )
        result = run_campaign(config)
        assert [s.scale for s in result.strata] == [0.1, 0.2]
        text = result.render()
        assert "scale" in text and "0.2" in text

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            CampaignConfig(kernels=("rspeed",), targets=("dram",))
        with pytest.raises(ValueError):
            CampaignConfig(kernels=("rspeed",), scenarios=("no-such-scenario",))
        with pytest.raises(ValueError):
            CampaignConfig(kernels=("rspeed",), scales=(0.0,))
        with pytest.raises(ValueError):
            CampaignConfig(kernels=("rspeed",), targets=())

    def test_sweep_resumes_across_all_dimensions(self, tmp_path):
        path = tmp_path / "sweep.sqlite"
        half = CampaignConfig(
            kernels=self.CONFIG.kernels,
            policies=self.CONFIG.policies,
            scale=self.CONFIG.scale,
            trials=6,
            batch=6,
            seed=self.CONFIG.seed,
            targets=self.CONFIG.targets,
            scenarios=self.CONFIG.scenarios,
        )
        with ResultStore(path) as store:
            partial = run_campaign(half, store=store, resume=True)
            assert partial.simulated == partial.points == 48
        with ResultStore(path) as store:
            resumed = run_campaign(self.CONFIG, store=store, resume=True)
            assert resumed.store_hits == 48
            assert resumed.simulated == resumed.points - 48
            # Unified accounting: the campaign's counters mirror the
            # store's for exactly the lookups this campaign performed.
            assert resumed.store_misses == resumed.simulated
            assert store.hits == resumed.store_hits
            assert store.misses == resumed.store_misses
        fresh = run_campaign(self.CONFIG)
        assert resumed.render() == fresh.render()


class TestCampaignResume:
    CONFIG = CampaignConfig(
        kernels=("rspeed",),
        policies=("no-ecc", "extra-cycle"),
        scale=0.1,
        trials=10,
        batch=5,
        seed=2019,
    )

    def test_resume_simulates_only_missing_points(self, tmp_path):
        path = tmp_path / "campaign.sqlite"
        # "Kill the campaign midway": run only half the trials.
        half = CampaignConfig(
            kernels=self.CONFIG.kernels,
            policies=self.CONFIG.policies,
            scale=self.CONFIG.scale,
            trials=5,
            batch=5,
            seed=self.CONFIG.seed,
        )
        with ResultStore(path) as store:
            partial = run_campaign(half, store=store, resume=True)
            assert partial.simulated == 10 and partial.store_hits == 0
            # Unified accounting: every resume lookup that missed was
            # simulated, and the campaign's counters mirror the store's.
            assert partial.store_misses == partial.simulated == store.misses
            assert store.hits == partial.store_hits == 0
        # Resume with the full trial budget: only the missing half runs.
        with ResultStore(path) as store:
            resumed = run_campaign(self.CONFIG, store=store, resume=True)
            assert resumed.store_hits == 10
            assert resumed.simulated == 10
            assert resumed.store_misses == resumed.simulated
            assert store.hits == resumed.store_hits
            assert store.misses == resumed.store_misses
            assert resumed.store_hits + resumed.simulated == resumed.points
            assert len(store) == 20
        # And the summary is byte-identical to a fresh, uninterrupted run.
        fresh = run_campaign(self.CONFIG)
        assert resumed.render() == fresh.render()

    def test_full_resume_simulates_nothing(self, tmp_path):
        path = tmp_path / "campaign.sqlite"
        with ResultStore(path) as store:
            run_campaign(self.CONFIG, store=store, resume=True)
        with ResultStore(path) as store:
            again = run_campaign(self.CONFIG, store=store, resume=True)
            assert again.simulated == 0
            assert again.store_hits == 20

    def test_without_resume_points_are_recomputed(self, tmp_path):
        path = tmp_path / "campaign.sqlite"
        with ResultStore(path) as store:
            run_campaign(self.CONFIG, store=store, resume=True)
            first_hits = store.hits
            first_misses = store.misses
            rerun = run_campaign(self.CONFIG, store=store, resume=False)
            assert rerun.simulated == 20
            assert store.hits == first_hits  # no reads without --resume
            # No lookups means no hit/miss accounting on either side:
            # the campaign's counters stay in lockstep with the store's.
            assert store.misses == first_misses
            assert rerun.store_hits == rerun.store_misses == 0

    def test_integer_scale_resumes_from_float_scale_keys(self, tmp_path):
        """``scale=1`` and the CLI's ``--scale 1`` (a float) key every
        point alike, so either resumes the other's store."""
        import dataclasses

        grid = dataclasses.replace(
            self.CONFIG, policies=("no-ecc",), scale=1, trials=4, batch=4,
            targets=("dl1", "l2"),
        )
        path = tmp_path / "campaign.sqlite"
        with ResultStore(path) as store:
            cold = run_campaign(grid, store=store)
        with ResultStore(path) as store:
            resumed = run_campaign(
                dataclasses.replace(grid, scale=1.0), store=store, resume=True
            )
        assert resumed.store_hits == 8 and resumed.simulated == 0
        assert resumed.render() == cold.render()

    def test_kernel_names_are_normalised(self, tmp_path):
        """Kernel names key the store and seed the strata: an upper-case
        name is the same kernel, under the same keys and RNG stream."""
        import dataclasses

        shouted = dataclasses.replace(self.CONFIG, kernels=(" RSPEED ",))
        assert shouted.kernels == ("rspeed",)
        path = tmp_path / "campaign.sqlite"
        with ResultStore(path) as store:
            cold = run_campaign(shouted, store=store)
        with ResultStore(path) as store:
            resumed = run_campaign(self.CONFIG, store=store, resume=True)
        assert resumed.store_hits == 20 and resumed.simulated == 0
        assert resumed.render() == cold.render()

    def test_unknown_kernel_is_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel 'nosuch'"):
            CampaignConfig(kernels=("rspeed", "nosuch"))

    @pytest.mark.parametrize("workers", [None, 2])
    def test_fully_stored_resume_runs_no_kernel_and_starts_no_pool(
        self, tmp_path, monkeypatch, workers
    ):
        """The store keeps each kernel's fault space next to the
        results, so a resume whose every point is stored samples them
        without a golden run and never needs a pool."""
        import concurrent.futures
        import dataclasses

        from repro.campaign import sampling
        from repro.workloads import golden as golden_cache

        path = tmp_path / "campaign.sqlite"
        with ResultStore(path) as store:
            cold = run_campaign(self.CONFIG, store=store)
        monkeypatch.setattr(golden_cache, "_GOLDEN_CACHE", {})
        monkeypatch.setattr(sampling, "_SPACE_CACHE", {})

        def no_golden(*_args, **_kwargs):
            raise AssertionError("a fully stored resume ran a kernel")

        def no_pool(*_args, **_kwargs):
            raise AssertionError("a fully stored resume started a pool")

        monkeypatch.setattr(golden_cache, "golden_pass", no_golden)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        config = dataclasses.replace(self.CONFIG, workers=workers)
        with ResultStore(path) as store:
            resumed = run_campaign(config, store=store, resume=True)
            # The fault spaces are not result rows.
            assert len(store) == resumed.points == 20
        assert resumed.simulated == 0 and resumed.store_hits == 20
        assert resumed.render() == cold.render()


# --------------------------------------------------------------------- #
# CLI plumbing                                                          #
# --------------------------------------------------------------------- #
class TestCampaignCli:
    def test_campaign_subcommand_with_store_and_resume(self, tmp_path, capsys):
        from repro import __main__ as cli

        store = tmp_path / "cli.sqlite"
        out = tmp_path / "summary.txt"
        code = cli.main(
            [
                "campaign",
                "--kernels",
                "rspeed",
                "--policies",
                "extra-cycle",
                "--trials",
                "4",
                "--scale",
                "0.1",
                "--store",
                str(store),
                "--out",
                str(out),
            ]
        )
        assert code == 0
        first = capsys.readouterr()
        assert "simulated=4" in first.err
        assert "store-hits=0" in first.err
        assert out.read_text(encoding="utf-8").startswith(
            "Architectural fault-injection campaign"
        )
        resumed = tmp_path / "resumed.txt"
        code = cli.main(
            [
                "campaign",
                "--kernels",
                "rspeed",
                "--policies",
                "extra-cycle",
                "--trials",
                "4",
                "--scale",
                "0.1",
                "--store",
                str(store),
                "--resume",
                "--out",
                str(resumed),
                "--quiet",
            ]
        )
        assert code == 0
        second = capsys.readouterr()
        assert "simulated=0" in second.err
        assert "store-hits=4" in second.err
        # The summary read back from the store is byte-identical.
        assert resumed.read_bytes() == out.read_bytes()

    def test_corrupt_fault_space_fails_verify_and_resume_rebuilds_it(
        self, tmp_path, capsys, monkeypatch
    ):
        import sqlite3

        from repro import __main__ as cli
        from repro.campaign import sampling

        store = tmp_path / "cli.sqlite"
        grid = [
            "campaign", "--kernels", "rspeed", "--policies", "extra-cycle",
            "--trials", "4", "--scale", "0.1", "--store", str(store), "--quiet",
        ]
        first, second = tmp_path / "first.txt", tmp_path / "second.txt"
        assert cli.main(grid + ["--out", str(first)]) == 0
        connection = sqlite3.connect(str(store))
        try:
            (key, payload), = connection.execute(
                "SELECT key, payload FROM fault_spaces"
            ).fetchall()
            at = next(i for i, ch in enumerate(payload) if ch.isdigit())
            lying = payload[:at] + str((int(payload[at]) + 1) % 10) + payload[at + 1:]
            connection.execute(
                "UPDATE fault_spaces SET payload = ? WHERE key = ?", (lying, key)
            )
            connection.commit()
        finally:
            connection.close()
        capsys.readouterr()
        assert cli.main(["store", str(store), "--verify"]) == 1
        verify = capsys.readouterr().out
        assert "1 fault spaces, 1 corrupt" in verify
        # entries= counts result rows only.
        assert "entries=4 " in verify
        # A fresh process would find nothing cached: drop this one's.
        monkeypatch.setattr(sampling, "_SPACE_CACHE", {})
        assert cli.main(grid + ["--resume", "--out", str(second)]) == 0
        assert "simulated=0" in capsys.readouterr().err
        assert second.read_bytes() == first.read_bytes()
        with ResultStore(store) as reopened:
            assert reopened.get_fault_space(key) == json.loads(payload)
        assert cli.main(["store", str(store), "--verify"]) == 0
        assert "1 fault spaces, 0 corrupt" in capsys.readouterr().out

    def test_fully_stored_resume_loads_no_experiment_module(self, tmp_path):
        """A fresh process resuming a fully stored campaign imports
        neither the experiment catalogue nor the golden-run cache."""
        import subprocess
        import sys

        from repro import __main__ as cli

        store = tmp_path / "cli.sqlite"
        grid = [
            "campaign", "--kernels", "rspeed", "--policies", "extra-cycle",
            "--trials", "4", "--scale", "0.1", "--store", str(store), "--quiet",
        ]
        assert cli.main(grid) == 0
        probe = (
            "import sys\n"
            "from repro.__main__ import main\n"
            f"code = main({grid + ['--resume']!r})\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('repro.experiments'))\n"
            "print(code, loaded)\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert completed.stdout.strip() == "0 []", completed.stderr
        assert "simulated=0" in completed.stderr

    def test_package_imports_load_only_what_they_name(self):
        """``import repro`` loads no submodule until one of its three
        names is used, and the report renderer pulls in neither the
        WCET analysis nor the simulation stack."""
        import subprocess
        import sys

        top_level = (
            "import sys\n"
            "import repro\n"
            "print(sorted(m for m in sys.modules if m.startswith('repro.')))\n"
            "from repro import get_scenario, simulate_kernel, simulate_spec\n"
            "print(all(map(callable, (get_scenario, simulate_kernel, simulate_spec))))\n"
        )
        reporting = (
            "import sys\n"
            "import repro.analysis.reporting\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m in ('repro.experiments.wt_vs_wb', 'repro.simulation')))\n"
        )
        outputs = []
        for script in (top_level, reporting):
            completed = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                timeout=120,
                env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
            )
            assert completed.returncode == 0, completed.stderr
            outputs.append(completed.stdout.split("\n"))
        assert outputs[0][:2] == ["[]", "True"]
        assert outputs[1][0] == "[]"

    def test_campaign_engine_loads_no_codec_analytics(self):
        """A campaign process decodes with the codecs alone: importing the
        engine loads neither the codec-level fault injector nor the
        reliability model."""
        import subprocess
        import sys

        script = (
            "import sys\n"
            "import repro.campaign.engine\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m in ('repro.ecc.fault_injection', 'repro.ecc.reliability')))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.strip() == "[]"

    def test_cold_campaign_loads_no_experiment_module(self, tmp_path):
        """A cold campaign takes its golden runs from
        :mod:`repro.workloads.golden`: neither the experiment catalogue,
        its drivers and runner, nor the timing front end is loaded."""
        import subprocess
        import sys

        script = (
            "import sys\n"
            "from repro.campaign import CampaignConfig, run_campaign\n"
            "from repro.store import ResultStore\n"
            f"with ResultStore({str(tmp_path / 'cold.sqlite')!r}) as store:\n"
            "    result = run_campaign(CampaignConfig(\n"
            "        kernels=('rspeed', 'canrdr'), policies=('no-ecc',), scale=0.1,\n"
            "        trials=16, batch=8, targets=('dl1', 'l2')), store=store)\n"
            "print(result.simulated == 4 * 16)\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.startswith('repro.experiments') or m == 'repro.simulation'))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
        )
        assert completed.returncode == 0, completed.stderr
        assert completed.stdout.split("\n")[:2] == ["True", "[]"]

    def test_fully_stored_resume_loads_no_replay_stack(self, tmp_path):
        """A fresh process resuming a fully stored campaign samples,
        derives keys and reads the store: it imports no interpreter,
        assembler, cache, replay, triage or timing module (nor the chaos
        harness, which only ``--chaos`` needs)."""
        import subprocess
        import sys

        grid = [
            "campaign", "--kernels", "RSPEED,canrdr", "--policies", "no-ecc,laec",
            "--targets", "dl1,l2", "--scenarios", "isolation,laec-worst",
            "--trials", "3", "--scale", "0.1", "--store", str(tmp_path / "s.sqlite"),
            "--quiet",
        ]
        forbidden = (
            "repro.functional.interpreter",
            "repro.isa.assembler",
            "repro.memory.cache",
            "repro.campaign.replay",
            "repro.campaign.triage",
            "repro.campaign.timeline",
            "repro.pipeline.timing",
            "repro.memory.hierarchy",
            "repro.campaign.chaos",
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        outputs = []
        for extra in ([], ["--resume"]):
            out = tmp_path / f"summary{len(outputs)}.txt"
            probe = (
                "import sys\n"
                "from repro.__main__ import main\n"
                f"code = main({grid + extra + ['--out', str(out)]!r})\n"
                f"print(code, sorted(m for m in {forbidden!r} if m in sys.modules))\n"
            )
            completed = subprocess.run(
                [sys.executable, "-c", probe],
                capture_output=True,
                text=True,
                timeout=120,
                env=env,
            )
            outputs.append((completed.stdout.strip(), completed.stderr, out.read_bytes()))
        (cold, cold_err, cold_summary), (resume, resume_err, resumed) = outputs
        assert cold.startswith("0 ['repro.campaign.replay'"), cold_err
        assert resume == "0 []", resume_err
        assert "simulated=0 " in resume_err and "store-hits=48 " in resume_err
        assert resumed == cold_summary

    def test_l2_target_sweep_through_the_cli(self, tmp_path, capsys):
        # End-to-end L2 injection: FAULT_TARGETS has always advertised
        # "l2"; the CLI must actually sample and replay it.
        from repro import __main__ as cli

        out = tmp_path / "l2_summary.txt"
        code = cli.main(
            [
                "campaign",
                "--kernels",
                "rspeed",
                "--policies",
                "no-ecc,extra-cycle",
                "--targets",
                "dl1,l2",
                "--scenarios",
                "isolation,worst",
                "--trials",
                "2",
                "--batch",
                "2",
                "--scale",
                "0.1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "simulated=16" in captured.err  # 1 kernel x 2 x 2 x 2 x 2
        text = out.read_text(encoding="utf-8")
        assert "target" in text and "l2" in text
        assert "scenario" in text and "worst" in text

    def test_unknown_target_is_a_clean_cli_error(self, capsys):
        from repro import __main__ as cli

        assert cli.main(["campaign", "--targets", "dram"]) == 2
        assert "fault target" in capsys.readouterr().err

    def test_unknown_kernel_is_a_clean_cli_error(self, capsys):
        from repro import __main__ as cli

        assert cli.main(["campaign", "--kernels", "rspeed,nosuch"]) == 2
        error = capsys.readouterr().err
        assert "unknown kernel 'nosuch'" in error
        assert len(error.strip().splitlines()) == 1

    def test_sweep_summary_experiment_is_registered(self):
        from repro.experiments.catalog import get_experiment

        experiment = get_experiment("sweep_summary")
        assert experiment.artifact == "sweep_summary"

    def test_resume_without_store_is_an_error(self, capsys):
        from repro import __main__ as cli

        assert cli.main(["campaign", "--resume"]) == 2

    def test_unknown_policy_is_a_clean_error(self, capsys):
        from repro import __main__ as cli

        assert cli.main(["campaign", "--policies", "bogus"]) == 2

    def test_campaign_summary_experiment_is_registered(self):
        from repro.experiments.catalog import get_experiment

        experiment = get_experiment("campaign_summary")
        assert experiment.artifact == "campaign_summary"
