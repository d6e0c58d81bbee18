"""Fault-tolerant campaign execution: supervisor, chaos, self-healing store.

The campaign injects faults into a simulated cache hierarchy; these
tests inject faults into the campaign harness itself (via the
deterministic chaos injector) and assert the fault-tolerance layer holds:
crashed workers respawn, hung points are quarantined, torn store rows
are detected and healed, and every interrupted run resumes to a
byte-identical summary.
"""

from __future__ import annotations

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time

import pytest

from repro.campaign import (
    CampaignConfig,
    CampaignError,
    CampaignInterrupted,
    ChaosDirective,
    ChaosPlan,
    PointTimeout,
    QuarantinedPoint,
    ReplayDivergence,
    StoreCorruption,
    WorkerCrash,
    corrupt_store_row,
    parse_chaos,
    run_campaign,
)
from repro.campaign.errors import wrap_point_error
from repro.store import ResultStore, payload_checksum, with_lock_retry

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: A tiny, fast campaign every harness test reuses (rspeed is the
#: smallest kernel; retry_backoff=0 keeps retries instant).
BASE = dict(
    kernels=("rspeed",),
    policies=("extra-cycle",),
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


# --------------------------------------------------------------------- #
# the error taxonomy                                                    #
# --------------------------------------------------------------------- #
class TestErrorTaxonomy:
    def test_kinds_are_stable_and_structured(self):
        cases = [
            (PointTimeout("too slow", timeout_seconds=1.0), "point-timeout"),
            (WorkerCrash("died"), "worker-crash"),
            (ReplayDivergence("raised"), "replay-divergence"),
            (StoreCorruption("torn"), "store-corruption"),
            (CampaignInterrupted("sigint"), "interrupted"),
        ]
        for error, kind in cases:
            assert error.kind == kind
            payload = error.payload()
            assert payload["error"] == kind
            assert payload["message"]
            assert isinstance(payload["details"], dict)
            assert str(error).startswith(kind + ":")
            # Payloads must be JSON round-trippable (they land in the
            # store's quarantine table).
            assert json.loads(json.dumps(payload)) == payload

    def test_wrap_point_error_normalises_foreign_exceptions(self):
        wrapped = wrap_point_error(ValueError("boom"), point_index=7)
        assert isinstance(wrapped, ReplayDivergence)
        assert wrapped.details["exception"] == "ValueError"
        assert wrapped.details["point_index"] == 7
        # Taxonomy errors pass through, details extended.
        original = PointTimeout("slow")
        assert wrap_point_error(original, point_index=3) is original
        assert original.details["point_index"] == 3

    def test_quarantined_point_report_line_is_deterministic(self):
        point = QuarantinedPoint(
            index=12,
            kernel="rspeed",
            policy="no-ecc",
            target="dl1",
            scenario="isolation",
            scale=0.1,
            attempts=3,
            error=PointTimeout("exceeded the 0.5s watchdog").payload(),
        )
        line = point.describe()
        assert "point 12 rspeed x no-ecc" in line
        assert "point-timeout" in line
        assert point.describe() == line


# --------------------------------------------------------------------- #
# the chaos injector                                                    #
# --------------------------------------------------------------------- #
class TestChaosPlan:
    def test_parse_round_trips(self):
        plan = parse_chaos("kill-worker@5, timeout@7:always ,fail@0")
        assert plan.spec() == "kill-worker@5,timeout@7:always,fail@0"
        assert plan.directives[1].always

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_chaos("explode@3")
        with pytest.raises(ValueError):
            parse_chaos("kill-worker@x")
        with pytest.raises(ValueError):
            ChaosDirective(kind="kill-worker", index=-1)

    def test_one_shot_directives_fire_exactly_once(self):
        plan = parse_chaos("fail@4")
        assert plan.directive_for(3, worker=True) is None
        first = plan.directive_for(4, worker=True)
        assert first is not None and first.kind == "fail"
        # Consumed: the retry of point 4 sees no directive.
        assert plan.directive_for(4, worker=True) is None

    def test_always_directives_keep_firing(self):
        plan = parse_chaos("fail@4:always")
        for _ in range(3):
            assert plan.directive_for(4, worker=True) is not None

    def test_worker_and_supervisor_kinds_are_disjoint(self):
        plan = parse_chaos("kill-main@2,fail@2")
        assert plan.directive_for(2, worker=True).kind == "fail"
        assert plan.directive_for(2, worker=False).kind == "kill-main"
        assert plan.directive_for(2, worker=False) is None

    def test_corrupt_store_row_is_checksum_detectable(self, tmp_path):
        path = tmp_path / "chaos.sqlite"
        with ResultStore(path) as store:
            store.put("a", {"value": 123})
            store.put("b", {"value": 456})
        key = corrupt_store_row(path, 0)
        with ResultStore(path) as store:
            report = store.verify()
            assert report.corrupt == [key]
            # The corrupted payload is still valid JSON: only the
            # checksum can tell it is lying.
            row = store._connection.execute(
                "SELECT payload FROM results WHERE key = ?", (key,)
            ).fetchone()
            json.loads(row[0])


# --------------------------------------------------------------------- #
# the self-healing store                                                #
# --------------------------------------------------------------------- #
class TestStoreIntegrity:
    def test_rows_are_checksummed_on_write(self, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            store.put("one", {"v": 1})
            store.put_many([("two", {"v": 2}, ""), ("three", {"v": 3}, "")])
            for key, payload_text, checksum in store._connection.execute(
                "SELECT key, payload, checksum FROM results"
            ):
                assert checksum == payload_checksum(payload_text), key

    def test_get_drops_corrupted_rows_and_reports_miss(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            store.put("k", {"v": 1})
        key = corrupt_store_row(path, 0)
        with ResultStore(path) as store:
            assert store.get(key) is None
            assert store.misses == 1 and store.hits == 0
            assert store.corrupt_dropped == 1
            assert key not in store  # dropped, so resume re-simulates

    def test_get_drops_torn_unparseable_rows(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            store.put("k", {"v": 1})
            # A torn write: payload truncated mid-JSON, checksum stale.
            store._connection.execute(
                "UPDATE results SET payload = '{\"v\": ' WHERE key = 'k'"
            )
            store._connection.commit()
            assert store.get("k") is None
            assert store.corrupt_dropped == 1

    def test_verify_is_read_only_and_repair_heals(self, tmp_path):
        path = tmp_path / "s.sqlite"
        with ResultStore(path) as store:
            for i in range(4):
                store.put(f"k{i}", {"v": i})
        corrupted = corrupt_store_row(path, 2)
        with ResultStore(path) as store:
            report = store.verify()
            assert report.total == 4 and report.intact == 3
            assert report.corrupt == [corrupted] and not report.clean
            assert len(store) == 4  # verify never modifies
            healed = store.repair()
            assert healed.dropped == [corrupted]
            assert len(store) == 3
            assert store.verify().clean

    def test_fault_space_rows_are_checked_like_result_rows(self, tmp_path):
        path = tmp_path / "s.sqlite"
        space = {"mem_ops": 3, "first_touch": [8, 4], "first_touch_ops": [1, 3]}
        with ResultStore(path) as store:
            store.put("r", {"v": 1})
            store.put_fault_space("a", space)
            store.put_fault_space("b", space)
            assert store.get_fault_space("a") == space
            assert store.has_fault_space("b") and not store.has_fault_space("c")
            # Fault spaces are not results: no hit/miss, no entry.
            assert store.hits == store.misses == 0 and len(store) == 1
            for key in ("a", "b"):
                store._connection.execute(
                    "UPDATE fault_spaces SET payload = ? WHERE key = ?",
                    ('{"mem_ops": 4}', key),
                )
            store._connection.commit()
            report = store.verify()
            assert report.fault_spaces == 2 and not report.clean
            assert report.corrupt_fault_spaces == ["a", "b"] and not report.corrupt
            assert store.get_fault_space("a") is None  # dropped on read
            assert store.corrupt_dropped == 1
            healed = store.repair()
            assert healed.dropped == ["b"]
            assert store.verify().clean and store.verify().fault_spaces == 0

    def test_v1_store_migrates_in_place_and_repair_backfills(self, tmp_path):
        path = tmp_path / "v1.sqlite"
        # Write a faithful v1 layout: no checksum column, no meta table.
        connection = sqlite3.connect(str(path))
        connection.executescript(
            """
            CREATE TABLE results (
                key TEXT PRIMARY KEY,
                kind TEXT NOT NULL DEFAULT '',
                spec TEXT NOT NULL DEFAULT '',
                payload TEXT NOT NULL
            );
            INSERT INTO results (key, kind, payload)
            VALUES ('legacy', 'injection', '{"outcome": "masked"}');
            """
        )
        connection.commit()
        connection.close()
        with ResultStore(path) as store:
            assert store.schema_version == 2
            # Legacy rows read fine (JSON-validated, not checksummed)...
            assert store.get("legacy") == {"outcome": "masked"}
            report = store.verify()
            assert report.legacy == ["legacy"] and report.clean
            # ... and repair backfills their checksums.
            healed = store.repair()
            assert healed.backfilled == ["legacy"]
            assert store.verify().legacy == []

    def test_newer_schema_is_refused_not_guessed(self, tmp_path):
        path = tmp_path / "future.sqlite"
        with ResultStore(path) as store:
            store.put("k", {"v": 1})
        connection = sqlite3.connect(str(path))
        connection.execute(
            "UPDATE store_meta SET value = '99' WHERE key = 'schema_version'"
        )
        connection.commit()
        connection.close()
        with pytest.raises(StoreCorruption) as excinfo:
            ResultStore(path)
        assert excinfo.value.details["found_version"] == 99

    def test_lock_retry_backs_off_then_succeeds(self):
        sleeps = []
        attempts = []

        def flaky():
            attempts.append(True)
            if len(attempts) < 3:
                raise sqlite3.OperationalError("database is locked")
            return "ok"

        assert (
            with_lock_retry(flaky, base_delay=0.01, sleep=sleeps.append) == "ok"
        )
        assert sleeps == [0.01, 0.02]  # exponential backoff

    def test_lock_retry_gives_up_and_ignores_other_errors(self):
        def always_locked():
            raise sqlite3.OperationalError("database is locked")

        with pytest.raises(sqlite3.OperationalError):
            with_lock_retry(always_locked, retries=2, sleep=lambda _t: None)

        def broken():
            raise sqlite3.OperationalError("no such table: results")

        sleeps = []
        with pytest.raises(sqlite3.OperationalError):
            with_lock_retry(broken, sleep=sleeps.append)
        assert sleeps == []  # non-lock errors never retry

    def test_quarantine_table_round_trips(self, tmp_path):
        path = tmp_path / "q.sqlite"
        error = PointTimeout("slow", timeout_seconds=0.5).payload()
        with ResultStore(path) as store:
            store.quarantine_put("poison", error, spec_json='{"spec": 1}')
            assert store.quarantine_count() == 1
            assert store.quarantine_get("poison") == error
        with ResultStore(path) as store:  # survives reopen
            assert store.quarantine_count() == 1
            store.quarantine_clear("poison")
            assert store.quarantine_count() == 0


class TestStoreLifecycle:
    def test_close_is_idempotent(self, tmp_path):
        store = ResultStore(tmp_path / "s.sqlite")
        store.put("k", {"v": 1})
        store.close()
        store.close()  # second close must be a no-op, not an error
        assert store.closed

    def test_context_manager_closes_on_exception(self, tmp_path):
        with pytest.raises(RuntimeError):
            with ResultStore(tmp_path / "s.sqlite") as store:
                raise RuntimeError("campaign blew up")
        assert store.closed
        store.close()  # and teardown may close again safely

    def test_no_wal_handle_leaks_after_failed_campaign(self, tmp_path):
        path = tmp_path / "s.sqlite"
        store = ResultStore(path)
        with pytest.raises(CampaignError):
            run_campaign(
                config(max_retries=0, quarantine=False),
                store=store,
                chaos=parse_chaos("fail@1:always"),
            )
        store.close()
        # The WAL is released: a fresh writer needs no recovery dance.
        with ResultStore(path) as fresh:
            fresh.put("k", {"v": 1})
            assert fresh.get("k") == {"v": 1}


# --------------------------------------------------------------------- #
# the execution supervisor                                              #
# --------------------------------------------------------------------- #
class TestSupervisor:
    def test_transient_failure_is_retried_to_the_identical_summary(self):
        clean = run_campaign(config())
        chaotic = run_campaign(config(), chaos=parse_chaos("fail@2"))
        assert chaotic.render() == clean.render()
        assert chaotic.stats.retries == 1
        assert chaotic.stats.replay_failures == 1
        assert not chaotic.quarantined

    def test_poison_point_is_quarantined_and_reported(self):
        result = run_campaign(
            config(max_retries=1), chaos=parse_chaos("fail@2:always")
        )
        assert result.quarantined_points == 1
        point = result.quarantined[0]
        assert point.index == 2
        assert point.attempts == 2  # initial try + 1 retry
        assert point.error["error"] == "replay-divergence"
        # The stratum excludes it from trials and every rate.
        assert result.strata[0].trials == BASE["trials"] - 1
        assert result.strata[0].quarantined == 1
        text = result.render()
        assert "Quarantined: 1 point(s)" in text
        assert "replay-divergence" in text

    def test_no_quarantine_fails_fast(self):
        with pytest.raises(ReplayDivergence):
            run_campaign(
                config(max_retries=0, quarantine=False),
                chaos=parse_chaos("fail@2:always"),
            )

    def test_quarantine_is_recorded_in_the_store_and_resume_heals(self, tmp_path):
        path = tmp_path / "c.sqlite"
        with ResultStore(path) as store:
            poisoned = run_campaign(
                config(max_retries=0),
                store=store,
                resume=True,
                chaos=parse_chaos("fail@2:always"),
            )
            assert poisoned.quarantined_points == 1
            assert store.quarantine_count() == 1
            assert poisoned.quarantined[0].key not in store
        # A later resume (the fault was transient/chaos) re-simulates
        # exactly the poison point and matches the uninterrupted run.
        with ResultStore(path) as store:
            resumed = run_campaign(config(), store=store, resume=True)
            assert resumed.simulated == 1
            assert resumed.store_hits == BASE["trials"] - 1
        assert resumed.render() == run_campaign(config()).render()

    def test_worker_death_respawns_pool_and_completes(self):
        clean = run_campaign(config(workers=2))
        crashed = run_campaign(
            config(workers=2), chaos=parse_chaos("kill-worker@2")
        )
        assert crashed.render() == clean.render()
        assert crashed.stats.worker_restarts >= 1
        assert crashed.stats.worker_crashes >= 1
        assert not crashed.quarantined

    def test_hung_point_trips_the_watchdog_and_quarantines(self):
        result = run_campaign(
            config(point_timeout=1.5, max_retries=0),
            chaos=parse_chaos("timeout@2:always", hang_seconds=30.0),
        )
        assert result.quarantined_points == 1
        assert result.quarantined[0].error["error"] == "point-timeout"
        assert result.stats.timeouts >= 1
        assert result.points == BASE["trials"] - 1

    def test_serial_campaign_with_timeout_still_enforces_it(self):
        # No --workers: the watchdog transparently uses a 1-worker pool.
        clean = run_campaign(config())
        timed = run_campaign(config(point_timeout=60.0))
        assert timed.render() == clean.render()

    def test_supervised_sharded_run_matches_serial(self):
        serial = run_campaign(config())
        sharded = run_campaign(config(workers=2, point_timeout=60.0))
        assert sharded.render() == serial.render()

    def test_graceful_interrupt_checkpoints_at_a_batch_boundary(self, tmp_path):
        path = tmp_path / "int.sqlite"
        with ResultStore(path) as store:
            with pytest.raises(CampaignInterrupted) as excinfo:
                run_campaign(
                    config(),
                    store=store,
                    resume=True,
                    chaos=parse_chaos("sigint@4"),
                )
            assert excinfo.value.details["signal"] == "SIGINT"
            # The in-flight batch was flushed before raising: the store
            # holds a whole number of batches covering point 4.
            assert len(store) == 6
        with ResultStore(path) as store:
            resumed = run_campaign(config(), store=store, resume=True)
            assert resumed.simulated == 0  # nothing was lost
        assert resumed.render() == run_campaign(config()).render()

    def test_config_validates_supervisor_knobs(self):
        with pytest.raises(ValueError):
            config(point_timeout=0.0)
        with pytest.raises(ValueError):
            config(max_retries=-1)
        with pytest.raises(ValueError):
            config(retry_backoff=-0.1)


def _cli(args, store, tmp_path, *, chaos=None, out=None, extra=(), before_reap=None):
    command = [
        sys.executable,
        "-m",
        "repro",
        "campaign",
        "--kernels",
        "rspeed",
        "--policies",
        "extra-cycle,no-ecc",
        "--trials",
        "4",
        "--batch",
        "2",
        "--scale",
        "0.1",
        "--retry-backoff",
        "0",
        "--store",
        str(store),
        "--resume",
        "--quiet",
        *extra,
    ]
    if chaos is not None:
        command += ["--chaos", chaos]
    if out is not None:
        command += ["--out", str(out)]
    environment = dict(os.environ)
    environment["PYTHONPATH"] = REPO_SRC + os.pathsep + environment.get(
        "PYTHONPATH", ""
    )
    # No pipes: a SIGKILLed campaign can leave orphaned pool workers
    # holding inherited stdout/stderr, which would deadlock a capturing
    # parent. Run in its own session and reap the whole group after.
    process = subprocess.Popen(
        command + list(args),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=environment,
        cwd=str(tmp_path),
        start_new_session=True,
    )
    try:
        code = process.wait(timeout=240)
        if before_reap is not None:
            before_reap(process.pid)
        return code
    finally:
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass


def _live_session_members(session):
    """Pids of the not-yet-exited processes of ``session`` (Linux /proc)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="utf-8") as stat:
                # Fields after "(comm)": state, ppid, pgrp, session, ...
                fields = stat.read().rpartition(")")[2].split()
        except OSError:
            continue
        if int(fields[3]) == session and fields[0] != "Z":
            members.append(int(entry))
    return members


class TestKillAnywhereResume:
    """SIGKILL a campaign mid-grid; resume must be byte-identical."""

    @pytest.mark.parametrize("workers", [None, 2], ids=["serial", "sharded"])
    def test_sigkill_then_resume_is_byte_identical(self, tmp_path, workers):
        extra = () if workers is None else ("--workers", str(workers))
        store = tmp_path / "kill.sqlite"
        killed = _cli([], store, tmp_path, chaos="kill-main@5", extra=extra)
        assert killed == -signal.SIGKILL
        # Some points made it to the store, not all (died mid-grid).
        with ResultStore(store) as opened:
            checkpointed = len(opened)
        assert 0 < checkpointed < 8
        out = tmp_path / "resumed.txt"
        resumed = _cli([], store, tmp_path, out=out, extra=extra)
        assert resumed == 0
        fresh = run_campaign(
            CampaignConfig(
                kernels=("rspeed",),
                policies=("extra-cycle", "no-ecc"),
                scale=0.1,
                trials=4,
                batch=2,
                seed=2019,
            )
        )
        assert out.read_text(encoding="utf-8") == fresh.render() + "\n"

    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs a Linux /proc")
    def test_killed_sharded_campaign_leaves_no_live_worker(self, tmp_path):
        # A SIGKILLed campaign process never shuts its pool down: its
        # workers must notice and exit on their own.
        left = []

        def wait_for_workers(session):
            deadline = time.monotonic() + 10.0
            while True:
                left[:] = _live_session_members(session)
                if not left or time.monotonic() > deadline:
                    return
                time.sleep(0.2)

        killed = _cli(
            [], tmp_path / "kill.sqlite", tmp_path, chaos="kill-main@5",
            extra=("--workers", "2"), before_reap=wait_for_workers,
        )
        assert killed == -signal.SIGKILL
        assert left == []


# --------------------------------------------------------------------- #
# CLI plumbing                                                          #
# --------------------------------------------------------------------- #
class TestRobustnessCli:
    def test_campaign_reports_quarantined_points(self, tmp_path, capsys):
        from repro import __main__ as cli

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
                "--retry-backoff",
                "0",
                "--max-retries",
                "0",
                "--chaos",
                "fail@1:always",
            ]
        )
        assert code == 0  # quarantine means the campaign still completes
        captured = capsys.readouterr()
        assert "quarantined=1" in captured.err
        assert "Quarantined: 1 point(s)" in captured.out

    def test_internal_failure_exits_nonzero_with_one_line(self, monkeypatch, capsys):
        from repro import __main__ as cli

        def explode(*_args, **_kwargs):
            raise RuntimeError("simulator caught fire")

        monkeypatch.setattr("repro.campaign.run_campaign", explode)
        code = cli.main(
            ["campaign", "--kernels", "rspeed", "--trials", "2", "--scale", "0.1"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "[campaign] error: internal: RuntimeError" in err
        assert "Traceback" not in err

    def test_fail_fast_exits_with_structured_taxonomy_error(self, capsys):
        from repro import __main__ as cli

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
                "--retry-backoff",
                "0",
                "--max-retries",
                "0",
                "--no-quarantine",
                "--chaos",
                "fail@1:always",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "[campaign] error: replay-divergence" in err
        assert "Traceback" not in err

    def test_bad_chaos_spec_is_a_usage_error(self, capsys):
        from repro import __main__ as cli

        assert cli.main(["campaign", "--chaos", "explode@1"]) == 2
        assert "chaos" in capsys.readouterr().err

    def test_store_subcommand_verify_corrupt_repair(self, tmp_path, capsys):
        from repro import __main__ as cli

        path = tmp_path / "cli.sqlite"
        with ResultStore(path) as store:
            for i in range(3):
                store.put(f"k{i}", {"v": i})
        assert cli.main(["store", str(path), "--verify"]) == 0
        assert cli.main(["store", str(path), "--corrupt-row", "1"]) == 0
        assert cli.main(["store", str(path), "--verify"]) == 1
        out = capsys.readouterr().out
        assert "1 corrupt" in out
        assert cli.main(["store", str(path), "--repair"]) == 0
        assert cli.main(["store", str(path), "--verify"]) == 0

    def test_corrupt_campaign_row_is_repaired_and_resimulated_once(
        self, tmp_path, capsys
    ):
        """verify flags a corrupted campaign row, repair drops it, and a
        resumed campaign re-simulates exactly that row to a summary
        byte-identical to an undisturbed run."""
        from repro import __main__ as cli

        path = tmp_path / "heal.sqlite"
        with ResultStore(path) as store:
            fresh = run_campaign(config(), store=store)
        assert cli.main(["store", str(path), "--verify"]) == 0
        assert cli.main(["store", str(path), "--corrupt-row", "2"]) == 0
        assert cli.main(["store", str(path), "--verify"]) == 1
        assert cli.main(["store", str(path), "--repair"]) == 0
        assert cli.main(["store", str(path), "--verify"]) == 0
        capsys.readouterr()
        out = tmp_path / "healed.txt"
        code = cli.main(
            [
                "campaign",
                "--kernels",
                "rspeed",
                "--policies",
                "extra-cycle",
                "--trials",
                "6",
                "--batch",
                "3",
                "--scale",
                "0.1",
                "--store",
                str(path),
                "--resume",
                "--out",
                str(out),
                "--quiet",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "simulated=1 " in err
        assert "store-hits=5 " in err
        assert out.read_text(encoding="utf-8") == fresh.render() + "\n"

    def test_store_subcommand_missing_file(self, tmp_path, capsys):
        from repro import __main__ as cli

        assert cli.main(["store", str(tmp_path / "nope.sqlite")]) == 2


# --------------------------------------------------------------------- #
# the acceptance scenario, end to end                                   #
# --------------------------------------------------------------------- #
class TestAcceptance:
    def test_chaos_campaign_quarantines_heals_and_resumes_identically(
        self, tmp_path
    ):
        """ISSUE 6 acceptance: one worker killed mid-shard, one point
        forced to time out, one store row corrupted — the campaign
        completes with the poison point quarantined; verify() finds the
        corrupt row; repair() + resume restores a summary byte-identical
        to the uninterrupted run."""
        grid = dict(
            kernels=("rspeed",),
            policies=("extra-cycle", "no-ecc"),
            scale=0.1,
            trials=4,
            batch=2,
            seed=2019,
            retry_backoff=0.0,
        )
        fresh = run_campaign(CampaignConfig(**grid))
        path = tmp_path / "acceptance.sqlite"
        chaos = parse_chaos(
            "kill-worker@1,timeout@5:always", hang_seconds=30.0
        )
        with ResultStore(path) as store:
            chaotic = run_campaign(
                CampaignConfig(
                    **grid, workers=2, point_timeout=2.0, max_retries=1
                ),
                store=store,
                resume=True,
                chaos=chaos,
            )
            # The killed worker was respawned and its shard retried...
            assert chaotic.stats.worker_restarts >= 1
            # ... and the hung point was quarantined, not fatal.
            assert chaotic.quarantined_points == 1
            assert chaotic.quarantined[0].error["error"] == "point-timeout"
            assert chaotic.points == fresh.points - 1
            assert "Quarantined: 1 point(s)" in chaotic.render()
            assert store.quarantine_count() == 1
        # Corrupt a finished row behind the store's back.
        corrupted_key = corrupt_store_row(path, 2)
        with ResultStore(path) as store:
            report = store.verify()
            assert report.corrupt == [corrupted_key]
            healed = store.repair()
            assert healed.dropped == [corrupted_key]
        # Resume without chaos: exactly the quarantined point and the
        # dropped row are re-simulated; the summary is byte-identical.
        with ResultStore(path) as store:
            resumed = run_campaign(
                CampaignConfig(**grid), store=store, resume=True
            )
            assert resumed.simulated == 2
            assert resumed.quarantined_points == 0
        assert resumed.render() == fresh.render()
