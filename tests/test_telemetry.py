"""Campaign telemetry: metrics registry, trace spans, flight recorder.

The load-bearing property is **deterministic inertness**: with telemetry
on or off, campaign summaries and store payloads are byte-identical —
timestamps and pids live only in the trace file.  The differential tests
here pin that down, the agreement tests check that every supervisor
intervention appears exactly once in the stats line, the metrics
registry and the trace event stream, and the consumer tests drive
``python -m repro trace`` end to end.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.campaign import CampaignConfig, parse_chaos, run_campaign
from repro.store import ResultStore
from repro.telemetry import analyze, console, flight, metrics, schema, trace
from repro.telemetry.trace import Telemetry

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


@pytest.fixture(autouse=True)
def _fresh_telemetry():
    """Tests never inherit (or leak) process-global telemetry state."""
    metrics.reset_registry()
    flight.reset_recorder()
    yield
    trace.deactivate()
    metrics.reset_registry()
    flight.reset_recorder()


# --------------------------------------------------------------------- #
# metrics registry                                                      #
# --------------------------------------------------------------------- #
class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = metrics.MetricsRegistry()
        reg.counter("jobs_total").inc()
        reg.counter("jobs_total").inc(2)
        assert reg.value("jobs_total") == 3
        with pytest.raises(ValueError):
            reg.counter("jobs_total").inc(-1)
        reg.gauge("depth").set(5)
        reg.gauge("depth").set(2)
        assert reg.value("depth") == 2
        hist = reg.histogram("latency", bounds=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(99.0)
        assert hist.count == 3
        assert hist.buckets == [1, 1, 1]

    def test_identity_is_name_plus_sorted_labels(self):
        reg = metrics.MetricsRegistry()
        reg.counter("points", {"mode": "full", "k": "a"}).inc()
        reg.counter("points", {"k": "a", "mode": "full"}).inc()
        reg.counter("points", {"mode": "analytical", "k": "a"}).inc()
        assert reg.value("points", {"mode": "full", "k": "a"}) == 2
        assert len(reg) == 2

    def test_type_conflicts_are_rejected(self):
        reg = metrics.MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_merge_payload_is_additive_for_counters_and_histograms(self):
        a, b = metrics.MetricsRegistry(), metrics.MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        ha = a.histogram("t", bounds=(1.0,))
        hb = b.histogram("t", bounds=(1.0,))
        ha.observe(0.5)
        hb.observe(2.0)
        a.merge_payload(b.to_payload())
        assert a.value("n") == 5
        merged = a.histogram("t", bounds=(1.0,))
        assert merged.count == 2 and merged.buckets == [1, 1]

    def test_merge_rejects_mismatched_bounds(self):
        a, b = metrics.MetricsRegistry(), metrics.MetricsRegistry()
        a.histogram("t", bounds=(1.0,)).observe(0.5)
        b.histogram("t", bounds=(2.0,)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge_payload(b.to_payload())

    def test_prometheus_rendering_is_cumulative_and_typed(self):
        reg = metrics.MetricsRegistry()
        reg.counter("points_total", {"mode": "full"}).inc(4)
        hist = reg.histogram("seconds", bounds=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        text = reg.render_prometheus()
        assert "# TYPE points_total counter" in text
        assert 'points_total{mode="full"} 4' in text
        assert 'seconds_bucket{le="0.1"} 1' in text
        assert 'seconds_bucket{le="1"} 2' in text
        assert 'seconds_bucket{le="+Inf"} 2' in text
        assert "seconds_count 2" in text
        # The free function renders a payload snapshot identically.
        assert metrics.render_prometheus(reg.to_payload()) == text

    def test_drain_phase_payload_resets_and_merges_back(self):
        metrics.observe_phase("triage", 0.01)
        metrics.observe_phase("triage", 0.02)
        payload = metrics.drain_phase_payload()
        assert payload and payload[0]["count"] == 2
        # Drained: a second drain ships nothing.
        assert all(p["count"] == 0 for p in metrics.drain_phase_payload())
        metrics.merge_phase_payload(payload)
        reg = metrics.registry()
        hist = reg.histogram(
            metrics.PHASE_METRIC, {"phase": "triage"}
        )
        assert hist.count == 2

    def test_drain_ships_counters_and_job_metrics_drop_failed_jobs(self):
        metrics.inc("walks_total", 2)
        with metrics.job_metrics():
            metrics.inc("walks_total", 3)
            assert metrics.registry().value("walks_total") == 3
        with pytest.raises(RuntimeError):
            with metrics.job_metrics():
                metrics.inc("walks_total", 7)
                metrics.observe_phase("triage", 0.5)
                raise RuntimeError("failed job")
        payload = metrics.drain_phase_payload()
        assert [(p["name"], p["value"]) for p in payload] == [("walks_total", 5)]
        assert metrics.registry().value("walks_total") == 0


# --------------------------------------------------------------------- #
# flight recorder                                                       #
# --------------------------------------------------------------------- #
class TestFlightRecorder:
    def test_ring_is_bounded_and_sequenced(self):
        recorder = flight.FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record("tick", i=i)
        assert len(recorder) == 4
        assert recorder.recorded == 10
        tail = recorder.tail_payload(2)
        assert [entry["seq"] for entry in tail] == [8, 9]

    def test_tail_payload_strips_timestamps_and_pids(self):
        recorder = flight.FlightRecorder()
        recorder.record("dispatch", index=3)
        (full,) = recorder.tail(1)
        assert "t" in full and "pid" in full
        (payload,) = recorder.tail_payload(1)
        assert payload == {"seq": 0, "kind": "dispatch", "index": 3}

    def test_process_recorder_is_per_pid_and_clearable(self):
        flight.record("a")
        assert flight.recorder().recorded == 1
        flight.recorder().clear()
        assert flight.recorder().recorded == 0
        assert flight.tail_payload() == []


# --------------------------------------------------------------------- #
# trace writer + module activation                                      #
# --------------------------------------------------------------------- #
class TestTraceWriter:
    def _records(self, path):
        with open(path, encoding="utf-8") as stream:
            return [json.loads(line) for line in stream]

    def test_spans_nest_with_parent_ids(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with trace.TraceWriter(path, config={"k": "v"}) as writer:
            root = writer.begin_span("campaign")
            child = writer.begin_span("batch", parent=root, points=3)
            writer.end_span(child, hits=1)
            writer.event("retry", index=2)
            writer.emit_metrics([])
            writer.end_span(root, status="completed")
        records = self._records(path)
        assert records[0]["event"] == "meta"
        assert records[0]["schema"] == trace.TRACE_SCHEMA
        assert records[0]["config"] == {"k": "v"}
        batch = next(r for r in records if r.get("name") == "batch")
        campaign = next(r for r in records if r.get("name") == "campaign")
        assert batch["parent"] == campaign["id"]
        assert batch["attrs"] == {"points": 3, "hits": 1}
        assert batch["t_end"] >= batch["t_start"]
        event = next(r for r in records if r["event"] == "event")
        assert event["name"] == "retry" and event["fields"] == {"index": 2}

    def test_abandoned_spans_are_flushed_as_aborted(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = trace.TraceWriter(path)
        writer.begin_span("campaign")
        writer.close()
        (span,) = [r for r in self._records(path) if r["event"] == "span"]
        assert span["attrs"]["aborted"] is True

    def test_module_hooks_are_noops_when_inactive(self, tmp_path):
        assert trace.active() is None
        assert trace.begin_span("campaign") == 0
        trace.end_span(0)
        trace.event("retry")
        trace.now()
        # Activation opens the writer; double-activation is an error.
        session = Telemetry(tmp_path / "t.jsonl")
        trace.activate(session)
        with pytest.raises(RuntimeError):
            trace.activate(Telemetry(tmp_path / "u.jsonl"))
        span = trace.begin_span("campaign")
        assert span != 0
        trace.end_span(span)
        trace.deactivate()
        assert trace.active() is None

    def test_telemetry_validates_progress_interval(self):
        with pytest.raises(ValueError):
            Telemetry(progress_interval=-1)


# --------------------------------------------------------------------- #
# schema validation                                                     #
# --------------------------------------------------------------------- #
class TestSchema:
    def test_real_trace_records_validate(self, tmp_path):
        path = tmp_path / "t.jsonl"
        run_campaign(config(), telemetry=Telemetry(path))
        with open(path, encoding="utf-8") as stream:
            for number, line in enumerate(stream, start=1):
                assert schema.validate_record(json.loads(line), number) == []

    def test_problems_are_reported(self):
        assert schema.validate_record([]) == ["record: not a JSON object"]
        assert "unknown record kind" in schema.validate_record({"event": "x"})[0]
        errors = schema.validate_record(
            {"event": "span", "name": "point", "id": 1, "parent": None,
             "t_start": 2.0, "t_end": 1.0, "pid": 1, "worker": None, "attrs": {}}
        )
        assert errors == ["record: span ends before it starts"]
        missing = schema.validate_record({"event": "event", "name": "retry"})
        assert any("missing field" in error for error in missing)
        bad_metric = schema.validate_metric(
            {"name": "x", "type": "histogram", "labels": {},
             "bounds": [1.0], "buckets": [1], "sum": 0.0, "count": 1}
        )
        assert any("len(bounds)+1" in error for error in bad_metric)


# --------------------------------------------------------------------- #
# console emitter                                                       #
# --------------------------------------------------------------------- #
class TestConsole:
    def test_quiet_suppresses_output_not_status(self):
        out, err = io.StringIO(), io.StringIO()
        emitter = console.Console(
            output_stream=out, status_stream=err, quiet=True
        )
        emitter.output("the table")
        emitter.status("[campaign] stats")
        emitter.error("[campaign] error: boom")
        assert out.getvalue() == ""
        assert "[campaign] stats" in err.getvalue()
        assert "error: boom" in err.getvalue()

    def test_set_console_swaps_and_restores(self):
        replacement = console.Console(output_stream=io.StringIO())
        previous = console.set_console(replacement)
        try:
            assert console.get_console() is replacement
        finally:
            console.set_console(previous)
        assert console.get_console() is previous

    def test_quarantine_footer_matches_render(self):
        result = run_campaign(
            config(max_retries=0), chaos=parse_chaos("fail@2")
        )
        assert result.quarantined_points == 1
        footer = console.format_quarantine_footer(result.quarantined)
        assert result.render().endswith(footer)
        assert "1 point(s) failed every attempt" in footer

    def test_stats_line_shape(self):
        result = run_campaign(config())
        line = console.format_stats_line(result, 2.0)
        assert line.startswith("[campaign] strata=1 points=6 simulated=6 ")
        assert "quarantined=0" in line and "(3.0 points/s)" in line

    def test_flight_tail_rendering(self):
        recorder = flight.FlightRecorder()
        recorder.record("retry", index=3)
        text = console.format_flight_tail(recorder.tail())
        assert "#0 retry index=3" in text
        assert console.format_flight_tail([]).endswith("(empty)")


# --------------------------------------------------------------------- #
# deterministic inertness (the tentpole's hard constraint)               #
# --------------------------------------------------------------------- #
class TestDeterministicInertness:
    def _store_rows(self, path):
        with ResultStore(path) as store:
            rows = {key: payload for key, payload, _kind in store.iter_rows()}
            quarantine = {
                key: json.loads(error)
                for key, error in store._connection.execute(
                    "SELECT key, error FROM quarantine ORDER BY key"
                )
            }
        return rows, quarantine

    def test_traced_run_is_byte_identical_to_untraced(self, tmp_path):
        chaos_spec = "fail@1,fail@4:always"
        # One dl1 grid, and a target x scenario sweep over two policies.
        grids = {
            "dl1": {},
            "sweep": dict(
                policies=("extra-cycle", "no-ecc"),
                targets=("dl1", "l2"),
                scenarios=("isolation", "laec-worst"),
                trials=4,
                batch=2,
            ),
        }
        for name, grid in grids.items():
            cfg = config(max_retries=1, **grid)
            plain_store = tmp_path / f"{name}-plain.sqlite"
            with ResultStore(plain_store) as store:
                plain = run_campaign(
                    cfg, store=store, chaos=parse_chaos(chaos_spec)
                )
            traced_store = tmp_path / f"{name}-traced.sqlite"
            trace_path = tmp_path / f"{name}.trace"
            with ResultStore(traced_store) as store:
                traced = run_campaign(
                    cfg,
                    store=store,
                    chaos=parse_chaos(chaos_spec),
                    telemetry=Telemetry(trace_path, progress_interval=0),
                )
            # Summaries byte-identical (including the quarantine footer).
            assert traced.render() == plain.render(), name
            assert traced.quarantined_points == plain.quarantined_points == 1
            # Every store payload byte-identical, quarantine rows included —
            # flight-recorder tails carry no timestamps or pids.
            assert self._store_rows(traced_store) == self._store_rows(plain_store)
            # And the trace file itself recorded the run.
            loaded = analyze.TraceFile(trace_path)
            assert loaded.validate() == []
            assert loaded.spans_named("campaign")

    def test_quarantine_payload_carries_the_flight_tail(self):
        result = run_campaign(
            config(max_retries=1), chaos=parse_chaos("fail@2:always")
        )
        assert result.quarantined_points == 1
        tail = result.quarantined[0].error["details"]["flight_recorder"]
        assert tail, "quarantined error must carry a flight-recorder tail"
        kinds = [entry["kind"] for entry in tail]
        assert "point-failure" in kinds or "point-start" in kinds
        for entry in tail:
            assert "t" not in entry and "pid" not in entry
        # JSON round-trippable: it lands in the store quarantine table.
        payload = result.quarantined[0].error
        assert json.loads(json.dumps(payload)) == payload

    def test_two_campaigns_in_one_process_quarantine_identically(self):
        # Flight sequence numbers restart per campaign, so the second
        # run's quarantine payload matches the first byte for byte.
        first = run_campaign(
            config(max_retries=0), chaos=parse_chaos("fail@2")
        )
        second = run_campaign(
            config(max_retries=0), chaos=parse_chaos("fail@2")
        )
        assert first.quarantined[0].error == second.quarantined[0].error


# --------------------------------------------------------------------- #
# stats line / metrics registry / trace events agree under chaos        #
# --------------------------------------------------------------------- #
class TestSupervisorAgreement:
    def _trace_events(self, path, name):
        loaded = analyze.TraceFile(path)
        return [e for e in loaded.events if e["name"] == name]

    def test_retry_and_quarantine_counts_agree(self, tmp_path):
        path = tmp_path / "run.trace"
        result = run_campaign(
            config(max_retries=1),
            chaos=parse_chaos("fail@1,fail@4:always"),
            telemetry=Telemetry(path),
        )
        reg = metrics.registry()
        # fail@1 fails once then succeeds on retry; fail@4:always burns
        # both attempts and is quarantined.
        assert result.stats.retries == 2
        assert reg.value("campaign_retries_total") == 2
        assert len(self._trace_events(path, "retry")) == 2
        assert result.quarantined_points == 1
        assert reg.value("campaign_points_quarantined_total") == 1
        assert len(self._trace_events(path, "quarantine")) == 1
        failures = reg.value(
            "campaign_point_failures_total", {"error": "replay-divergence"}
        )
        assert failures == 3  # one for fail@1, two for fail@4:always
        assert len(self._trace_events(path, "point-failure")) == 3
        assert result.stats.replay_failures == 3

    def test_kill_worker_appears_once_everywhere(self, tmp_path):
        path = tmp_path / "kill.trace"
        result = run_campaign(
            config(workers=2),
            chaos=parse_chaos("kill-worker@2"),
            telemetry=Telemetry(path),
        )
        reg = metrics.registry()
        assert result.stats.worker_restarts >= 1
        assert (
            reg.value("campaign_pool_restarts_total")
            == result.stats.worker_restarts
        )
        assert (
            len(self._trace_events(path, "pool-restart"))
            == result.stats.worker_restarts
        )
        assert reg.value("campaign_retries_total") == result.stats.retries
        assert not result.quarantined

    def test_timeout_appears_once_everywhere(self, tmp_path):
        path = tmp_path / "timeout.trace"
        result = run_campaign(
            config(point_timeout=1.5, max_retries=0),
            chaos=parse_chaos("timeout@2:always", hang_seconds=30.0),
            telemetry=Telemetry(path),
        )
        reg = metrics.registry()
        assert result.quarantined_points == 1
        assert result.quarantined[0].error["error"] == "point-timeout"
        assert reg.value(
            "campaign_point_failures_total", {"error": "point-timeout"}
        ) == result.stats.timeouts
        assert len(self._trace_events(path, "quarantine")) == 1
        assert reg.value("campaign_points_quarantined_total") == 1

    def test_replay_mode_counters_mirror_stats(self, tmp_path):
        result = run_campaign(config(), telemetry=Telemetry(tmp_path / "m.trace"))
        reg = metrics.registry()
        assert reg.value(
            "campaign_replay_points_total", {"mode": "analytical"}
        ) == result.stats.analytical
        assert reg.value(
            "campaign_replay_points_total", {"mode": "streamed"}
        ) == result.stats.streamed
        assert reg.value("campaign_points_simulated_total") == result.simulated
        assert reg.value("campaign_points_total") == result.points
        # The trace is complete: every simulated point got a span, and
        # the metrics snapshot landed in the file.
        loaded = analyze.TraceFile(tmp_path / "m.trace")
        assert loaded.validate() == []
        assert len(loaded.spans_named("point")) == result.simulated > 0
        assert loaded.metrics

    def test_store_counters_and_phases_are_published(self, tmp_path):
        store_path = tmp_path / "s.sqlite"
        with ResultStore(store_path) as store:
            run_campaign(config(), store=store)
        metrics.reset_registry()
        flight.reset_recorder()
        with ResultStore(store_path) as store:
            resumed = run_campaign(config(), store=store, resume=True)
        reg = metrics.registry()
        assert resumed.store_hits == BASE["trials"]
        assert reg.value("campaign_store_hits_total") == BASE["trials"]
        assert (
            reg.value("store_lookups_total", {"result": "hit"})
            == BASE["trials"]
        )
        lookup = reg.histogram("store_lookup_seconds")
        assert lookup.count >= 1
        # Fresh (non-resume) run publishes write latency + phase timings.
        metrics.reset_registry()
        with ResultStore(tmp_path / "w.sqlite") as store:
            run_campaign(config(), store=store)
        reg = metrics.registry()
        assert reg.histogram("store_write_seconds").count >= 1
        phases = {
            metric.labels[0][1]
            for metric in reg
            if metric.name == metrics.PHASE_METRIC
        }
        assert {"sampling", "store_write"} <= phases


    def test_golden_phase_is_timed_once_per_kernel_and_outside_sampling(
        self, tmp_path
    ):
        """The sampler reads the golden run; deriving it must be
        timed as `golden` exactly once per (kernel, scale) and never
        inside the `sampling` timer, so phases do not double-count."""
        from repro.campaign import sampling
        from repro.experiments.runner import clear_kernel_trace_cache

        sampling._SPACE_CACHE.clear()
        clear_kernel_trace_cache()
        path = tmp_path / "phases.trace"
        grid = config(kernels=("rspeed", "canrdr"), scales=(0.05, 0.1), trials=4)
        run_campaign(grid, telemetry=Telemetry(path))
        loaded = analyze.TraceFile(path)
        phases = {
            metric["labels"]["phase"]: metric
            for metric in loaded.metrics
            if metric["name"] == metrics.PHASE_METRIC
        }
        pairs = {(kernel, scale) for kernel, *_, scale in grid.strata()}
        assert phases["golden"]["count"] == len(pairs) == 4
        # A handful of RNG draws costs far less than a golden execution;
        # sampling time that swallowed the golden run would not.
        assert phases["sampling"]["sum"] < phases["golden"]["sum"]
        (campaign,) = loaded.spans_named("campaign")
        wall = campaign["t_end"] - campaign["t_start"]
        assert sum(metric["sum"] for metric in phases.values()) <= wall

    def test_traced_resume_takes_every_fault_space_from_the_store(
        self, tmp_path, monkeypatch
    ):
        """A fully stored resume reads each (kernel, scale)'s fault
        space from the store, so its trace shows no golden phase — and
        says why — while its summary equals the untraced one."""
        from repro.campaign import sampling
        from repro.experiments import runner

        def fault_spaces(loaded):
            return {
                metric["labels"]["source"]: metric["value"]
                for metric in loaded.metrics
                if metric["name"] == "campaign_fault_spaces_total"
            }

        def phase_names(loaded):
            return {
                metric["labels"]["phase"]
                for metric in loaded.metrics
                if metric["name"] == metrics.PHASE_METRIC
            }

        monkeypatch.setattr(runner, "_GOLDEN_CACHE", {})
        monkeypatch.setattr(sampling, "_SPACE_CACHE", {})
        grid = config(kernels=("rspeed", "canrdr"), scales=(0.05, 0.1), trials=4)
        pairs = {(kernel, scale) for kernel, *_, scale in grid.strata()}
        store_path = tmp_path / "s.sqlite"
        cold_path = tmp_path / "cold.trace"
        with ResultStore(store_path) as store:
            cold = run_campaign(grid, store=store, telemetry=Telemetry(cold_path))
        cold_trace = analyze.TraceFile(cold_path)
        assert fault_spaces(cold_trace) == {"golden": len(pairs)}
        assert "golden" in phase_names(cold_trace)

        monkeypatch.setattr(runner, "_GOLDEN_CACHE", {})
        monkeypatch.setattr(sampling, "_SPACE_CACHE", {})
        resume_path = tmp_path / "resume.trace"
        with ResultStore(store_path) as store:
            traced = run_campaign(
                grid, store=store, resume=True, telemetry=Telemetry(resume_path)
            )
            untraced = run_campaign(grid, store=store, resume=True)
        resumed = analyze.TraceFile(resume_path)
        assert fault_spaces(resumed) == {"store": len(pairs)}
        assert "golden" not in phase_names(resumed)
        assert traced.simulated == untraced.simulated == 0
        assert traced.render() == untraced.render() == cold.render()


# --------------------------------------------------------------------- #
# trace analysis + CLI consumer                                         #
# --------------------------------------------------------------------- #
class TestTraceConsumer:
    def test_failure_timeline_reconstructs_kill_worker_run(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "kill.trace"
        result = run_campaign(
            config(workers=2),
            chaos=parse_chaos("kill-worker@2"),
            telemetry=Telemetry(path),
        )
        assert result.stats.worker_restarts >= 1
        loaded = analyze.TraceFile(path)
        timeline = loaded.failure_timeline()
        names = [event["name"] for event in timeline]
        assert "pool-restart" in names and "point-failure" in names
        # Time-ordered.
        times = [event["t"] for event in timeline]
        assert times == sorted(times)
        # The CLI renders the same reconstruction.
        assert main(["trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "failure timeline:" in out
        assert "pool-restart" in out
        assert "slowest" in out
        assert main(["trace", str(path), "--timeline"]) == 0
        assert "point-failure" in capsys.readouterr().out

    def test_cli_metrics_and_validate(self, tmp_path, capsys):
        from repro.__main__ import main

        path = tmp_path / "ok.trace"
        run_campaign(config(), telemetry=Telemetry(path))
        assert main(["trace", str(path), "--validate"]) == 0
        assert "schema OK" in capsys.readouterr().out
        assert main(["trace", str(path), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE campaign_points_total counter" in out
        assert "\ncampaign_points_total 6\n" in out
        assert "campaign_phase_seconds_bucket" in out
        # A corrupted file fails validation with a nonzero exit.
        bad = tmp_path / "bad.trace"
        bad.write_text('{"event": "span", "name": 3}\nnot json\n')
        assert main(["trace", str(bad), "--validate"]) == 1
        assert main(["trace", str(tmp_path / "missing.trace")]) == 2

    def test_slowest_groups_ranked_by_duration(self, tmp_path):
        path = tmp_path / "two.trace"
        run_campaign(
            config(kernels=("rspeed",), policies=("extra-cycle", "no-ecc")),
            telemetry=Telemetry(path),
        )
        loaded = analyze.TraceFile(path)
        ranked = loaded.slowest_groups(10)
        assert len(ranked) == 4  # 2 policies x 2 batches
        durations = [seconds for _label, seconds, _points in ranked]
        assert durations == sorted(durations, reverse=True)
        assert all(points == 3 for _label, _seconds, points in ranked)

    def test_summary_names_workers_and_config(self, tmp_path):
        path = tmp_path / "sum.trace"
        run_campaign(
            config(),
            telemetry=Telemetry(path, config={"kernels": "rspeed"}),
        )
        text = analyze.TraceFile(path).summary()
        assert "config: kernels=rspeed" in text
        assert "status=completed" in text
        assert "failures: none" in text
        assert f"workers: 1 ({os.getpid()})" in text


# --------------------------------------------------------------------- #
# heartbeat                                                             #
# --------------------------------------------------------------------- #
class TestHeartbeat:
    def test_heartbeat_emits_at_batch_boundaries(self):
        err = io.StringIO()
        previous = console.set_console(
            console.Console(status_stream=err)
        )
        try:
            run_campaign(
                config(),
                telemetry=Telemetry(progress_interval=0),
            )
        finally:
            console.set_console(previous)
        lines = [l for l in err.getvalue().splitlines() if "progress" in l]
        assert len(lines) == 2  # one per batch (6 trials / batch 3)
        assert lines[-1].startswith("[campaign] progress 6/6 (100%)")
        assert "points/s" in lines[-1] and "retries=0" in lines[-1]

    def test_heartbeat_respects_interval(self):
        err = io.StringIO()
        previous = console.set_console(console.Console(status_stream=err))
        try:
            run_campaign(
                config(), telemetry=Telemetry(progress_interval=3600)
            )
        finally:
            console.set_console(previous)
        assert "progress" not in err.getvalue()

    def test_no_heartbeat_without_interval(self):
        err = io.StringIO()
        previous = console.set_console(console.Console(status_stream=err))
        try:
            run_campaign(config(), telemetry=None)
        finally:
            console.set_console(previous)
        assert err.getvalue() == ""
