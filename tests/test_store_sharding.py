"""Sharded result stores: per-worker shard files and their merge.

The sharded persistence path must be invisible in every observable:
summaries, per-point payload bytes, resume behaviour and crash
recovery all have to match the single-writer store exactly.  These
tests pin the merge primitives (idempotent, order-independent,
checksum-filtered, incremental), the engine integration (pooled
batched campaigns persist through shards, merge at flush boundaries
and clean up after themselves) and the chaos paths (killed workers and
a killed campaign process leave shards a later run folds in losslessly).
"""

from __future__ import annotations

import json
import os
import sqlite3
import subprocess
import sys

import pytest

from repro.campaign import CampaignConfig, run_campaign
from repro.campaign.chaos import parse_chaos
from repro.store import ResultStore
from repro.store.sharding import (
    list_shards,
    merge_shards,
    shard_directory,
    shard_path,
    shard_writer,
)
from repro.store.sharding import ShardMerger, close_shard_writers

REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)

BASE = dict(
    kernels=("rspeed",),
    policies=("extra-cycle", "no-ecc"),
    scale=0.1,
    trials=6,
    batch=3,
    seed=2019,
    retry_backoff=0.0,
)


def config(**overrides) -> CampaignConfig:
    merged = dict(BASE)
    merged.update(overrides)
    return CampaignConfig(**merged)


def store_rows(path):
    """Every result row's full bytes, in key order."""
    connection = sqlite3.connect(str(path))
    try:
        return connection.execute(
            "SELECT key, kind, spec, payload, checksum FROM results "
            "ORDER BY key"
        ).fetchall()
    finally:
        connection.close()


@pytest.fixture(autouse=True)
def _fresh_writers():
    yield
    close_shard_writers()


# --------------------------------------------------------------------- #
# merge primitives                                                      #
# --------------------------------------------------------------------- #
class TestMergePrimitives:
    def test_shard_layout_is_per_pid_under_the_canonical_path(self, tmp_path):
        canonical = tmp_path / "c.sqlite"
        assert shard_directory(canonical).name == "c.sqlite.shards"
        assert shard_path(canonical, worker_id=42).name == "shard-42.sqlite"
        writer = shard_writer(canonical)
        assert writer.path.endswith(f"shard-{os.getpid()}.sqlite")
        assert shard_writer(canonical) is writer  # cached per process

    def test_merge_rows_is_idempotent_and_keeps_the_first_payload(self, tmp_path):
        with ResultStore(tmp_path / "c.sqlite") as store:
            rows = [("k", "injection", "spec", '{"a": 1}', "")]
            assert store.merge_rows(rows) == 1
            assert store.merge_rows(rows) == 0  # INSERT OR IGNORE
            assert store.merge_rows(
                [("k", "injection", "spec", '{"a": 2}', "")]
            ) == 0
            assert store.get("k") == {"a": 1}

    def test_merge_is_order_independent(self, tmp_path):
        for order, name in ((("a", "b"), "ab"), (("b", "a"), "ba")):
            with ResultStore(tmp_path / f"{name}.sqlite") as store:
                shards = []
                for tag in order:
                    with ResultStore(tmp_path / f"{name}-{tag}.db") as shard:
                        shard.put(f"k{tag}", {"v": tag}, kind="injection")
                        shard.put("common", {"v": "first"}, kind="injection")
                        shards.append(shard.path)
                merge_shards(store, shards)
        assert [row[:4] for row in store_rows(tmp_path / "ab.sqlite")] == [
            row[:4] for row in store_rows(tmp_path / "ba.sqlite")
        ]

    def test_merger_is_incremental_via_high_water_marks(self, tmp_path):
        canonical = ResultStore(tmp_path / "c.sqlite")
        writer = shard_writer(canonical.path)
        merger = ShardMerger(canonical)
        writer.put_many([("k1", {"n": 1}, ""), ("k2", {"n": 2}, "")], kind="x")
        assert merger.merge() == 2
        assert merger.merge() == 0  # nothing new appended
        writer.put("k3", {"n": 3}, kind="x")
        assert merger.merge() == 1  # only the appended row is scanned
        assert len(canonical) == 3
        canonical.close()

    def test_torn_shard_rows_are_skipped_not_merged(self, tmp_path):
        canonical = ResultStore(tmp_path / "c.sqlite")
        writer = shard_writer(canonical.path)
        writer.put("good", {"ok": True}, kind="x")
        writer.put("torn", {"ok": False}, kind="x")
        connection = sqlite3.connect(writer.path)
        connection.execute(
            "UPDATE results SET payload = '{\"ok\": \"tampered\"}' "
            "WHERE key = 'torn'"
        )
        connection.commit()
        connection.close()
        merger = ShardMerger(canonical)
        assert merger.merge() == 1
        assert merger.corrupt_skipped == 1
        assert "torn" not in canonical
        assert canonical.get("good") == {"ok": True}
        canonical.close()

    def test_discard_removes_fully_merged_shards(self, tmp_path):
        canonical = ResultStore(tmp_path / "c.sqlite")
        writer = shard_writer(canonical.path)
        writer.put("k", {"v": 1}, kind="x")
        close_shard_writers()
        merger = ShardMerger(canonical)
        merger.merge()
        assert merger.discard_shards() == 1
        assert list_shards(canonical.path) == []
        assert not shard_directory(canonical.path).exists()
        canonical.close()

    def test_memory_store_never_shards(self):
        with ResultStore(":memory:") as store:
            merger = ShardMerger(store)
            assert not merger.active
            assert merger.merge() == 0
            assert merger.discard_shards() == 0


# --------------------------------------------------------------------- #
# engine integration: byte-identity of the sharded path                 #
# --------------------------------------------------------------------- #
class TestShardedCampaignEquivalence:
    def test_pooled_sharded_store_matches_serial_byte_for_byte(self, tmp_path):
        """The tentpole differential: same summary, same store bytes —
        every per-point payload row — with and without sharding."""
        serial_path = tmp_path / "serial.sqlite"
        pooled_path = tmp_path / "pooled.sqlite"
        with ResultStore(serial_path) as store:
            serial = run_campaign(config(), store=store)
        with ResultStore(pooled_path) as store:
            pooled = run_campaign(config(workers=2), store=store)
        assert pooled.render() == serial.render()
        assert store_rows(pooled_path) == store_rows(serial_path)
        # The sharded run cleaned up after itself: no shard directory,
        # no WAL side-files (close checkpoints them away).
        assert not shard_directory(pooled_path).exists()
        assert not (tmp_path / "pooled.sqlite-wal").exists()
        assert not (tmp_path / "pooled.sqlite-shm").exists()

    def test_sharded_store_resumes_warm(self, tmp_path):
        path = tmp_path / "warm.sqlite"
        with ResultStore(path) as store:
            cold = run_campaign(config(workers=2), store=store)
        with ResultStore(path) as store:
            warm = run_campaign(config(workers=2), store=store, resume=True)
        assert warm.simulated == 0
        assert warm.store_hits == cold.points
        assert warm.render() == cold.render()

    def test_orphan_shards_are_recovered_before_resume(self, tmp_path):
        """Rows stranded in a shard by a killed run are folded in at
        campaign start, so resume sees them as ordinary store hits."""
        donor_path = tmp_path / "donor.sqlite"
        with ResultStore(donor_path) as store:
            full = run_campaign(config(), store=store)
        donor_rows = store_rows(donor_path)
        assert len(donor_rows) == full.points
        # A fresh canonical store with every row stranded in one shard.
        victim_path = tmp_path / "victim.sqlite"
        ResultStore(victim_path).close()
        orphan = shard_path(victim_path, worker_id=99999)
        orphan.parent.mkdir(parents=True)
        with ResultStore(orphan) as shard:
            shard.merge_rows(donor_rows)
        with ResultStore(victim_path) as store:
            resumed = run_campaign(config(), store=store, resume=True)
        assert resumed.simulated == 0
        assert resumed.store_hits == full.points
        assert resumed.render() == full.render()
        assert store_rows(victim_path) == donor_rows
        assert not shard_directory(victim_path).exists()

    def test_memory_store_campaign_takes_the_single_writer_path(self):
        with ResultStore(":memory:") as store:
            result = run_campaign(config(workers=2), store=store)
            assert len(store) == result.points


# --------------------------------------------------------------------- #
# chaos: worker death and campaign death around the merge               #
# --------------------------------------------------------------------- #
class TestShardedChaosResume:
    def test_killed_worker_mid_campaign_still_converges(self, tmp_path):
        clean = run_campaign(config())
        path = tmp_path / "chaos.sqlite"
        with ResultStore(path) as store:
            crashed = run_campaign(
                config(workers=2),
                store=store,
                chaos=parse_chaos("kill-worker@2"),
            )
        assert crashed.render() == clean.render()
        assert crashed.stats.worker_restarts >= 1
        assert len(store_rows(path)) == clean.points
        assert not shard_directory(path).exists()

    def test_kill_worker_then_resume_is_byte_identical(self, tmp_path):
        first_path = tmp_path / "first.sqlite"
        with ResultStore(first_path) as store:
            run_campaign(
                config(workers=2),
                store=store,
                chaos=parse_chaos("kill-worker@1"),
            )
        with ResultStore(first_path) as store:
            resumed = run_campaign(config(workers=2), store=store, resume=True)
        assert resumed.simulated == 0
        reference_path = tmp_path / "reference.sqlite"
        with ResultStore(reference_path) as store:
            reference = run_campaign(config(), store=store)
        assert resumed.render() == reference.render()
        assert store_rows(first_path) == store_rows(reference_path)


# --------------------------------------------------------------------- #
# CLI                                                                   #
# --------------------------------------------------------------------- #
class TestMergeCli:
    def _run(self, *args):
        environment = dict(os.environ)
        environment["PYTHONPATH"] = REPO_SRC + os.pathsep + environment.get(
            "PYTHONPATH", ""
        )
        return subprocess.run(
            [sys.executable, "-m", "repro", "store", *map(str, args)],
            capture_output=True,
            text=True,
            env=environment,
            timeout=120,
        )

    def test_store_merge_subcommand_folds_and_is_idempotent(self, tmp_path):
        canonical = tmp_path / "c.sqlite"
        shards = []
        for index in range(2):
            with ResultStore(tmp_path / f"shard-{index}.db") as shard:
                shard.put(f"k{index}", {"n": index}, kind="injection")
                shard.put("shared", {"n": "same"}, kind="injection")
                shards.append(shard.path)
        first = self._run(canonical, "--merge", *shards)
        assert first.returncode == 0, first.stderr
        assert "merged 3 row(s) from 2 shard(s)" in first.stdout
        again = self._run(canonical, "--merge", *shards)
        assert again.returncode == 0
        assert "merged 0 row(s) from 2 shard(s)" in again.stdout
        with ResultStore(canonical) as store:
            assert len(store) == 3
            assert json.loads(json.dumps(store.get("shared"))) == {"n": "same"}

    def test_stray_campaign_shard_merges_verifies_and_resumes(self, tmp_path):
        """A full campaign store folded into a partial one through the
        CLI verifies clean, and the full campaign then resumes from it
        without simulating, to the same summary."""
        full_path = tmp_path / "full.sqlite"
        with ResultStore(full_path) as store:
            full = run_campaign(config(), store=store)
        merged_path = tmp_path / "merged.sqlite"
        with ResultStore(merged_path) as store:
            run_campaign(config(policies=("no-ecc",)), store=store)
        merge = self._run(merged_path, "--merge", full_path)
        assert merge.returncode == 0, merge.stderr
        assert "merged" in merge.stdout
        assert self._run(merged_path, "--verify").returncode == 0
        with ResultStore(merged_path) as store:
            resumed = run_campaign(config(), store=store, resume=True)
        assert resumed.simulated == 0
        assert resumed.render() == full.render()

    def test_store_merge_missing_shard_is_a_clean_error(self, tmp_path):
        result = self._run(tmp_path / "c.sqlite", "--merge", tmp_path / "no.db")
        assert result.returncode == 2
        assert "no shard at" in result.stderr
