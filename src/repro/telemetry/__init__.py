"""Campaign telemetry: metrics registry, trace spans, flight recorder.

Four concerns, one package:

* :mod:`repro.telemetry.metrics` — the always-on process-local registry
  the engine/supervisor/replay/store publish into;
* :mod:`repro.telemetry.trace` — opt-in JSONL span/event traces plus the
  module-level activation that keeps instrumentation no-op when off;
* :mod:`repro.telemetry.flight` — the bounded ring buffer whose tail
  rides along in quarantine payloads and crash dumps;
* :mod:`repro.telemetry.console` / :mod:`~repro.telemetry.analyze` /
  :mod:`~repro.telemetry.schema` — the human-facing surfaces: one
  emission path for status lines, the ``repro trace`` query layer, and
  trace-record validation.

Everything here is **deterministically inert**: campaign summaries,
store payloads, and committed artifacts are byte-identical whether
telemetry is on or off.
"""
