"""The content-addressed result store and its simulate_spec/runner cache."""

from __future__ import annotations

import pytest

from repro.experiments import figure8, table2
from repro.experiments.runner import ExperimentRunner
from repro.pipeline.config import PipelineConfig
from repro.scenarios import SimulationSpec
from repro.simulation import simulate_spec
from repro.store import ResultStore
from repro.store.canonical import spec_hash
from repro.store.serialize import cacheable


class TestResultStore:
    def test_put_get_contains_len(self):
        with ResultStore(":memory:") as store:
            assert len(store) == 0
            store.put("k1", {"x": 1}, kind="test")
            store.put("k2", {"y": [1, 2]}, kind="test")
            assert len(store) == 2
            assert "k1" in store and "k3" not in store
            assert store.get("k1") == {"x": 1}
            assert store.get("k3") is None
            assert store.count("test") == 2

    def test_hit_miss_accounting(self):
        with ResultStore(":memory:") as store:
            store.put("k", {"v": 1})
            store.get("k")
            store.get("missing")
            store.get("k")
            assert store.hits == 2
            assert store.misses == 1

    def test_overwrite_replaces(self):
        with ResultStore(":memory:") as store:
            store.put("k", {"v": 1})
            store.put("k", {"v": 2})
            assert len(store) == 1
            assert store.get("k") == {"v": 2}

    def test_put_many_matches_per_row_put(self):
        rows = [
            ("a", {"v": 1}, '{"spec":"a"}'),
            ("b", {"v": 2}, '{"spec":"b"}'),
            ("c", {"v": 3}, ""),
        ]
        with ResultStore(":memory:") as batched, ResultStore(":memory:") as serial:
            batched.put_many(rows, kind="injection")
            for key, payload, spec_json in rows:
                serial.put(key, payload, spec_json=spec_json, kind="injection")
            assert len(batched) == len(serial) == 3
            for key, payload, spec_json in rows:
                assert batched.get(key) == serial.get(key) == payload
                assert batched.spec_json(key) == serial.spec_json(key) == spec_json
            assert batched.count("injection") == 3

    def test_put_many_overwrites_and_accepts_empty(self):
        with ResultStore(":memory:") as store:
            store.put("k", {"v": 1})
            store.put_many([])  # no-op, no error
            store.put_many([("k", {"v": 2}, "")], kind="test")
            assert store.get("k") == {"v": 2}
            assert len(store) == 1

    def test_put_many_lands_whole_batch_and_commits(self):
        with ResultStore(":memory:") as store:
            before = store._connection.total_changes
            store.put_many([(f"k{i}", {"v": i}, "") for i in range(50)])
            assert store._connection.total_changes - before == 50
            assert not store._connection.in_transaction  # committed

    def test_persists_across_reopen(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with ResultStore(path) as store:
            store.put("k", {"v": 42}, spec_json='{"demo":1}', kind="timing")
        with ResultStore(path) as store:
            assert store.get("k") == {"v": 42}
            assert store.spec_json("k") == '{"demo":1}'
            assert store.count("timing") == 1


class TestCacheability:
    def test_only_plain_kernel_specs_are_cacheable(self):
        from repro.scenarios import FaultSpec

        assert cacheable(SimulationSpec(kernel="matrix"))
        assert not cacheable(SimulationSpec())  # anonymous program
        assert not cacheable(
            SimulationSpec(kernel="matrix", pipeline=PipelineConfig(chronogram_window=4))
        )
        assert not cacheable(
            SimulationSpec(kernel="matrix", fault=FaultSpec(at_access=1))
        )


class TestSimulateSpecStore:
    SPEC = SimulationSpec(kernel="rspeed", scale=0.1, policy="laec")

    def test_round_trip_preserves_timing(self):
        with ResultStore(":memory:") as store:
            fresh = simulate_spec(self.SPEC, store=store)
            cached = simulate_spec(self.SPEC, store=store)
            assert not fresh.from_store
            assert cached.from_store
            assert cached.cycles == fresh.cycles
            assert cached.instructions == fresh.instructions
            assert cached.timing.stats.as_dict() == fresh.timing.stats.as_dict()
            assert cached.timing.dl1_stats == fresh.timing.dl1_stats
            assert cached.timing.bus_transactions == fresh.timing.bus_transactions
            assert cached.policy.kind == fresh.policy.kind
            assert store.hits == 1 and len(store) == 1

    def test_store_key_is_the_content_hash(self):
        with ResultStore(":memory:") as store:
            simulate_spec(self.SPEC, store=store)
            assert spec_hash(self.SPEC) in store

    def test_chronogram_run_bypasses_the_store(self):
        # Chronograms are not serialised: a recording run must simulate
        # every time rather than come back from the store without one.
        spec = SimulationSpec(
            kernel="rspeed", scale=0.1, pipeline=PipelineConfig(chronogram_window=5)
        )
        with ResultStore(":memory:") as store:
            for _ in range(2):
                result = simulate_spec(spec, store=store)
                assert not result.from_store
                assert len(result.chronogram.entries) == 5
            assert len(store) == 0

    def test_store_survives_processes(self, tmp_path):
        path = tmp_path / "timing.sqlite"
        with ResultStore(path) as store:
            fresh = simulate_spec(self.SPEC, store=store)
        with ResultStore(path) as store:
            cached = simulate_spec(self.SPEC, store=store)
            assert cached.from_store
            assert cached.cycles == fresh.cycles


class TestRunnerStore:
    KERNELS = ["rspeed", "tblook"]

    def test_stored_run_set_renders_identically(self):
        with ResultStore(":memory:") as store:
            first = ExperimentRunner(scale=0.1, kernels=self.KERNELS, store=store)
            text_fresh = figure8.render(figure8.run(run_set=first.run_all()))
            second = ExperimentRunner(scale=0.1, kernels=self.KERNELS, store=store)
            run_set = second.run_all()
            # Every result of the second runner came from the store.
            assert all(
                result.from_store
                for per_policy in run_set.results.values()
                for result in per_policy.values()
            )
            assert figure8.render(figure8.run(run_set=run_set)) == text_fresh
            # Trace-consuming experiments work too (traces re-attached).
            assert table2.render(table2.run(run_set=run_set))

    def test_force_bypasses_store_reads(self):
        with ResultStore(":memory:") as store:
            ExperimentRunner(scale=0.1, kernels=self.KERNELS, store=store).run_all()
            runner = ExperimentRunner(scale=0.1, kernels=self.KERNELS, store=store)
            hits_before = store.hits
            run_set = runner.run_all(force=True)
            assert store.hits == hits_before  # no store reads
            assert not any(
                result.from_store
                for per_policy in run_set.results.values()
                for result in per_policy.values()
            )

    def test_parallel_runner_restores_partial_rows(self):
        from repro.core.policies import EccPolicyKind
        from repro.experiments.runner import FIGURE8_POLICIES

        with ResultStore(":memory:") as store:
            # Warm the store with the four Figure-8 policies only.
            ExperimentRunner(scale=0.1, kernels=self.KERNELS, store=store).run_all()
            # A fifth policy must not force the stored four to recompute.
            extended = ExperimentRunner(
                scale=0.1,
                kernels=self.KERNELS,
                policies=list(FIGURE8_POLICIES) + [EccPolicyKind.WT_PARITY],
                store=store,
                max_workers=2,
            )
            run_set = extended.run_all()
            for per_policy in run_set.results.values():
                for policy in FIGURE8_POLICIES:
                    assert per_policy[policy.value].from_store
                assert not per_policy[EccPolicyKind.WT_PARITY.value].from_store

    def test_parallel_runner_uses_store(self):
        with ResultStore(":memory:") as store:
            serial = ExperimentRunner(scale=0.1, kernels=self.KERNELS, store=store)
            baseline = serial.run_all()
            parallel = ExperimentRunner(
                scale=0.1, kernels=self.KERNELS, store=store, max_workers=2
            )
            restored = parallel.run_all()
            assert list(restored.results) == list(baseline.results)
            for name, per_policy in baseline.results.items():
                for value, result in per_policy.items():
                    other = restored.results[name][value]
                    assert other.from_store
                    assert other.cycles == result.cycles
