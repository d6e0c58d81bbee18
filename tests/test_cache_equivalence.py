"""Regression: the flat memory tape equals the seed hierarchy, access by access.

Production replays every trace through three flat LRU caches
(:class:`~repro.memory.cache.SetAssociativeCache`, a dict of lazily
created :class:`~repro.memory.cache.LruSet` sets) in one loop,
:func:`repro.pipeline.timing.memory_tape`.  Here ``timing``'s
``SetAssociativeCache`` is patched so the L1I, DL1 and L2 of every tape
drive the seed object cache (:class:`oracles.cache.ReferenceCache`) in
lock-step: every access must give the same hit and write-back line, and
every cache must end with equal
:class:`~repro.memory.cache.CacheStatistics`.  ``timing.memory_tape`` is
wrapped too, so every tape it builds is compared field by field (the
columns element by element) with the replay of the same trace through
the seed hierarchy object graph (:func:`oracles.hierarchy.hierarchy_tape`:
bus, shared L2 and main memory objects).  The suite covers all 11
experiments as they run (the WCET study's worst-contention tapes at
scale 0.3 among them), then all 16 kernels and the 9 Ablation A2
streams under every hierarchy configuration those experiments time.
Two property tests cover the write modes no experiment times: one pins
:class:`LruSet` itself (the set model the campaign's triage timelines
and faulty resume use too) against a one-set oracle, the other the
whole cache against a two-set oracle.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import ExperimentContext, all_experiments
from repro.experiments import ablation_sensitivity, runner
from repro.workloads import golden as golden_cache
from repro.memory.cache import LruSet, SetAssociativeCache
from repro.memory.config import CacheConfig, WritePolicy
from repro.pipeline import timing
from repro.workloads import KERNEL_NAMES
from repro.workloads.synthetic import SyntheticWorkloadGenerator

from oracles.cache import ReferenceCache
from oracles.hierarchy import hierarchy_tape

#: The scale of the committed artefacts (``ExperimentContext`` default).
ARTIFACT_SCALE = 0.4


class LockstepCache:
    """A production cache driven access by access next to its oracle.

    Disagreements are recorded, not raised, so that no error boundary
    on the way (an experiment, a campaign supervisor) can swallow them.
    """

    def __init__(self, cache, mismatches: list) -> None:
        self.cache = cache
        self.reference = ReferenceCache(cache.config)
        self.mismatches = mismatches
        self.accesses = 0

    def access(self, address: int, *, is_write: bool = False):
        outcome = self.cache.access(address, is_write=is_write)
        result = self.reference.access(address, is_write=is_write)
        self.accesses += 1
        if outcome != (result.hit, result.writeback_address):
            self.mismatches.append(
                (self.cache.config.name, address, is_write, outcome, result)
            )
        return outcome

    @property
    def stats(self):
        return self.cache.stats


def _tape_fields(tape) -> tuple:
    """Every :class:`~repro.pipeline.timing.MemoryTape` field, the columns
    as lists: production keeps them in ``array('i')``, the seed hierarchy
    in lists, so the columns are compared element by element."""
    return (
        list(tape.fetch_extra),
        list(tape.data),
        tape.dl1_stats,
        tape.bus_transactions,
        tape.bus_contention_cycles,
    )


class LockstepTapes:
    """Stands in for ``timing.SetAssociativeCache`` and ``timing.memory_tape``.

    Every cache a tape builds runs in lock-step with the oracle cache,
    and every tape built is checked against the seed hierarchy's.
    """

    def __init__(self) -> None:
        self.caches: list = []
        self.mismatches: list = []
        self.configs: list = []
        self.tapes = 0
        self._memory_tape = timing.memory_tape

    def cache(self, config) -> LockstepCache:
        wrapped = LockstepCache(SetAssociativeCache(config), self.mismatches)
        self.caches.append(wrapped)
        return wrapped

    def memory_tape(self, trace, config):
        built = config not in trace.memory_tapes
        tape = self._memory_tape(trace, config)
        if built:
            self.tapes += 1
            if config not in self.configs:
                self.configs.append(config)
            expected = hierarchy_tape(trace, config)
            if _tape_fields(tape) != _tape_fields(expected):
                self.mismatches.append((trace.program_name, config, tape, expected))
        return tape

    def patch(self, monkeypatch) -> None:
        monkeypatch.setattr(timing, "SetAssociativeCache", self.cache)
        monkeypatch.setattr(timing, "memory_tape", self.memory_tape)

    def assert_agreed(self) -> None:
        assert self.caches and all(cache.accesses for cache in self.caches)
        assert len(self.caches) == 3 * self.tapes
        assert self.mismatches == []
        for cache in self.caches:
            assert cache.cache.stats == cache.reference.stats, cache.cache.config.name


@pytest.fixture(scope="module")
def experiments_in_lockstep():
    """All 11 experiments run once with lock-step tapes, from cold golden
    runs so that every memory tape is replayed, not read back.

    Returns the tapes and the A2 streams the experiments timed.
    """
    tapes = LockstepTapes()
    streams: list = []

    class RecordingGenerator(SyntheticWorkloadGenerator):
        """Ablation A2's generator, keeping every stream it generates."""

        def generate(self, **kwargs):
            trace = super().generate(**kwargs)
            streams.append(trace)
            return trace

    with pytest.MonkeyPatch.context() as patch:
        tapes.patch(patch)
        patch.setattr(golden_cache, "_GOLDEN_CACHE", {})
        patch.setattr(ablation_sensitivity, "SyntheticWorkloadGenerator", RecordingGenerator)
        context = ExperimentContext()
        for experiment in all_experiments():
            experiment.execute(context)
    return tapes, streams


def test_every_experiment_tape_matches_the_object_cache(experiments_in_lockstep):
    tapes, streams = experiments_in_lockstep
    # The Figure 8 run set, wt_vs_wb, the chronograms and the 9 A2
    # streams: 43 tapes under four hierarchy configurations (write-back
    # and write-through DL1, each without and with worst-case bus
    # contention).
    assert len(streams) == 9
    assert tapes.tapes == 43
    assert len(tapes.configs) == 4
    tapes.assert_agreed()


def test_all_kernels_and_a2_streams_under_every_config(experiments_in_lockstep):
    timed, streams = experiments_in_lockstep
    traces = [runner.cached_kernel_trace(name, ARTIFACT_SCALE)[1] for name in KERNEL_NAMES]
    traces += streams
    tapes = LockstepTapes()
    with pytest.MonkeyPatch.context() as patch:
        tapes.patch(patch)
        for config in timed.configs:
            for trace in traces:
                # A copy without the cached tapes, sharing the columns.
                timing.memory_tape(replace(trace, memory_tapes={}), config)
    assert tapes.tapes == len(timed.configs) * (len(KERNEL_NAMES) + 9)
    tapes.assert_agreed()


# --------------------------------------------------------------------- #
# LruSet against a one-set object cache                                 #
# --------------------------------------------------------------------- #
LINE_BYTES = 32

#: (write policy, write-allocate): the three deployments the caches use.
WRITE_MODES = (
    (WritePolicy.WRITE_BACK, True),
    (WritePolicy.WRITE_THROUGH, True),
    (WritePolicy.WRITE_THROUGH, False),
)


def _reference_set_view(reference: ReferenceCache):
    """The oracle's only set as ``(lines MRU first, dirty lines)``."""
    lines = reference._sets[0]
    order = [way for way in reference._replacement[0]._order if lines[way].valid]
    addresses = [reference._rebuild_address(lines[way].tag, 0) for way in order]
    dirty = {
        reference._rebuild_address(line.tag, 0)
        for line in lines
        if line.valid and line.dirty
    }
    return addresses, dirty


@given(
    ways=st.integers(min_value=1, max_value=4),
    mode=st.sampled_from(WRITE_MODES),
    accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=7), st.booleans()),
        max_size=80,
    ),
)
@settings(max_examples=200, deadline=None)
def test_lru_set_matches_a_one_set_reference_cache(ways, mode, accesses):
    write_policy, write_allocate = mode
    reference = ReferenceCache(
        CacheConfig(
            size_bytes=ways * LINE_BYTES,
            line_bytes=LINE_BYTES,
            ways=ways,
            write_policy=write_policy,
            write_allocate=write_allocate,
            name="one-set",
        )
    )
    assert reference.config.sets == 1
    lru = LruSet(
        ways,
        write_allocate=write_allocate,
        write_back=write_policy is WritePolicy.WRITE_BACK,
    )
    for line_index, is_write in accesses:
        line = line_index * LINE_BYTES
        result = reference.access(line, is_write=is_write)
        assert lru.access(line, is_write) == (
            result.evicted_address,
            result.writeback,
            result.allocated,
        )
        lines, dirty = _reference_set_view(reference)
        assert lru.lines == lines
        assert lru.dirty == dirty
        for other in range(8):
            address = other * LINE_BYTES
            assert lru.resident(address) == reference.probe(address)
            assert lru.line_dirty(address) == (address in dirty)


@given(
    ways=st.integers(min_value=1, max_value=4),
    mode=st.sampled_from(WRITE_MODES),
    accesses=st.lists(
        st.tuples(st.integers(min_value=0, max_value=0x3FF), st.booleans()),
        max_size=120,
    ),
)
@settings(max_examples=100, deadline=None)
def test_cache_matches_the_reference_cache(ways, mode, accesses):
    write_policy, write_allocate = mode
    config = CacheConfig(
        size_bytes=2 * ways * LINE_BYTES,
        line_bytes=LINE_BYTES,
        ways=ways,
        write_policy=write_policy,
        write_allocate=write_allocate,
        name="two-sets",
    )
    cache = SetAssociativeCache(config)
    reference = ReferenceCache(config)
    for address, is_write in accesses:
        result = reference.access(address, is_write=is_write)
        assert cache.access(address, is_write=is_write) == (
            result.hit,
            result.writeback_address,
        )
    assert cache.stats == reference.stats
