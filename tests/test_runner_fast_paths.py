"""The experiment runner's fast paths: trace cache and process fan-out."""

from __future__ import annotations

import sqlite3

import pytest

from repro.experiments.runner import (
    ExperimentRunner,
    cached_kernel_trace,
    clear_kernel_trace_cache,
)
from repro.store import ResultStore


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_kernel_trace_cache()
    yield
    clear_kernel_trace_cache()


class TestTraceCache:
    def test_cache_returns_same_objects(self):
        program_a, trace_a = cached_kernel_trace("matrix", 0.1)
        program_b, trace_b = cached_kernel_trace("matrix", 0.1)
        assert program_a is program_b
        assert trace_a is trace_b

    def test_cache_keyed_by_scale(self):
        # Different scales are distinct cache entries (kernels quantize
        # iteration counts, so lengths may coincide; identity may not).
        _, small = cached_kernel_trace("matrix", 0.1)
        _, large = cached_kernel_trace("matrix", 0.2)
        assert small is not large
        _, small_again = cached_kernel_trace("matrix", 0.1)
        assert small_again is small

    def test_runners_share_traces(self):
        ExperimentRunner(scale=0.1, kernels=["matrix"]).run_all()
        _, first_trace = cached_kernel_trace("matrix", 0.1)
        ExperimentRunner(scale=0.1, kernels=["matrix"]).run_all()
        _, second_trace = cached_kernel_trace("matrix", 0.1)
        assert first_trace is second_trace

    def test_clear_cache(self):
        _, before = cached_kernel_trace("matrix", 0.1)
        clear_kernel_trace_cache()
        _, after = cached_kernel_trace("matrix", 0.1)
        assert before is not after

    def test_lru_eviction_keeps_recently_hit_entries(self, monkeypatch):
        # Shrink the cap so eviction is cheap to provoke: three tiny
        # (kernel, scale) entries fill the cache.
        from repro.workloads import golden as golden_cache

        monkeypatch.setattr(golden_cache, "KERNEL_TRACE_CACHE_MAX_ENTRIES", 3)
        cached_kernel_trace("rspeed", 0.01)  # A
        cached_kernel_trace("rspeed", 0.02)  # B
        cached_kernel_trace("rspeed", 0.03)  # C
        # Touch A: under LRU it becomes the youngest; under FIFO it
        # would still be the first to go.
        _, trace_a = cached_kernel_trace("rspeed", 0.01)
        cached_kernel_trace("rspeed", 0.04)  # D evicts B, not A
        keys = list(golden_cache._GOLDEN_CACHE)
        assert ("rspeed", 0.01) in keys
        assert ("rspeed", 0.02) not in keys
        # A must still be the cached object, not a rebuild.
        _, trace_a_again = cached_kernel_trace("rspeed", 0.01)
        assert trace_a_again is trace_a

    def test_lru_eviction_order_is_recency_not_insertion(self, monkeypatch):
        from repro.workloads import golden as golden_cache

        monkeypatch.setattr(golden_cache, "KERNEL_TRACE_CACHE_MAX_ENTRIES", 3)
        scales = (0.01, 0.02, 0.03)
        for scale in scales:
            cached_kernel_trace("rspeed", scale)
        # Re-touch in reverse: recency order becomes 0.03, 0.02, 0.01.
        for scale in reversed(scales):
            cached_kernel_trace("rspeed", scale)
        cached_kernel_trace("rspeed", 0.04)
        cached_kernel_trace("rspeed", 0.05)
        keys = list(golden_cache._GOLDEN_CACHE)
        # The two least recently used (0.03 then 0.02) were evicted.
        assert ("rspeed", 0.03) not in keys
        assert ("rspeed", 0.02) not in keys
        assert ("rspeed", 0.01) in keys


class TestParallelRunner:
    KERNELS = ["cacheb", "matrix", "puwmod"]

    def test_parallel_matches_serial(self):
        serial = ExperimentRunner(scale=0.1, kernels=self.KERNELS).run_all()
        parallel = ExperimentRunner(
            scale=0.1, kernels=self.KERNELS, max_workers=2
        ).run_all()
        assert list(parallel.results) == list(serial.results)
        for name, per_policy in serial.results.items():
            assert list(parallel.results[name]) == list(per_policy)
            for policy, serial_result in per_policy.items():
                parallel_result = parallel.results[name][policy]
                assert (
                    parallel_result.stats.as_dict() == serial_result.stats.as_dict()
                ), f"{name}/{policy}"

    def test_run_all_caches_run_set(self):
        runner = ExperimentRunner(scale=0.1, kernels=["matrix"], max_workers=2)
        assert runner.run_all() is runner.run_all()


class TestOneRunnerPath:
    """Serial and pooled ``run_all`` restore, compute and store alike."""

    KERNELS = ("canrdr", "matrix", "rspeed")

    def _run(self, tmp_path, workers, mode):
        """(cycles and stats per (kernel, policy), sorted store rows, hits, misses)."""
        if mode == "no-store":
            run_set = ExperimentRunner(
                scale=0.1, kernels=self.KERNELS, max_workers=workers
            ).run_all()
            return _summary(run_set), None, None, None
        path = tmp_path / f"{workers}-{mode}.sqlite"
        if mode in ("warm", "force"):
            with ResultStore(path) as store:
                ExperimentRunner(scale=0.1, kernels=self.KERNELS, store=store).run_all()
        with ResultStore(path) as store:
            runner = ExperimentRunner(
                scale=0.1, kernels=self.KERNELS, max_workers=workers, store=store
            )
            run_set = runner.run_all(force=mode == "force")
            hits, misses = store.hits, store.misses
        connection = sqlite3.connect(path)
        rows = connection.execute("SELECT * FROM results ORDER BY key").fetchall()
        connection.close()
        return _summary(run_set), rows, hits, misses

    @pytest.mark.parametrize("mode", ["no-store", "cold", "warm", "force"])
    def test_serial_and_pooled_agree(self, tmp_path, mode):
        serial = self._run(tmp_path, None, mode)
        pooled = self._run(tmp_path, 2, mode)
        assert pooled == serial
        assert serial[0] == self._run(tmp_path, None, "no-store")[0]
        calls = len(self.KERNELS) * 4
        expected = {
            "no-store": (None, None),
            "cold": (0, calls),
            "warm": (calls, 0),
            "force": (0, 0),
        }[mode]
        assert serial[2:] == expected
        if mode != "no-store":
            assert len(serial[1]) == calls

    def test_warm_run_set_runs_no_kernel(self, tmp_path, monkeypatch):
        """Restored results carry no trace, so a fully stored run set
        needs no golden pass."""
        from repro.workloads import golden as golden_cache

        path = tmp_path / "warm.sqlite"
        with ResultStore(path) as store:
            cold = ExperimentRunner(scale=0.1, kernels=self.KERNELS, store=store).run_all()
        monkeypatch.setattr(golden_cache, "_GOLDEN_CACHE", {})

        def no_golden(*_args, **_kwargs):
            raise AssertionError("a fully stored run set ran a kernel")

        monkeypatch.setattr(golden_cache, "golden_pass", no_golden)
        with ResultStore(path) as store:
            warm = ExperimentRunner(scale=0.1, kernels=self.KERNELS, store=store).run_all()
            assert (store.hits, store.misses) == (len(self.KERNELS) * 4, 0)
        assert _summary(warm) == _summary(cold)


def _summary(run_set):
    return {
        (name, value): (result.cycles, result.stats.as_dict())
        for name, per_policy in run_set.results.items()
        for value, result in per_policy.items()
    }


#: A fresh process times two kernels through ``ExperimentContext.run_set``
#: and runs a serial one-kernel campaign, then lists the process-pool
#: modules it imported and every module it loaded from ``tests/`` (the
#: oracles live in ``tests/oracles/``, which is on its path).
SERIAL_PAPER_PATH_SCRIPT = """
import pathlib
import sys

import repro
from repro.campaign import CampaignConfig, run_campaign
from repro.experiments import ExperimentContext
from repro.experiments.runner import ExperimentRunner

context = ExperimentContext(
    scale=0.1, _runner=ExperimentRunner(scale=0.1, kernels=("canrdr", "matrix"))
)
assert len(context.run_set().results) == 2
result = run_campaign(CampaignConfig(
    kernels=("rspeed",), policies=("no-ecc", "laec"), scale=0.1,
    trials=4, batch=4, seed=2019,
))
assert result.points > 0
tests = pathlib.Path(repro.__file__).resolve().parents[2] / "tests"
print(sorted(
    name for name, module in list(sys.modules.items())
    if name in ("multiprocessing", "concurrent.futures.process")
    or tests in pathlib.Path(getattr(module, "__file__", None) or "/").resolve().parents
))
"""


def test_serial_paper_path_imports_no_oracle_and_no_process_pool():
    import os
    import subprocess
    import sys

    tests = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(tests), "src")
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        (src, tests, environment.get("PYTHONPATH", ""))
    )
    completed = subprocess.run(
        [sys.executable, "-c", SERIAL_PAPER_PATH_SCRIPT],
        env=environment,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "[]"
