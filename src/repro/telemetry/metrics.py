"""The campaign metrics registry: counters and histograms.

One :class:`MetricsRegistry` lives per process (``registry()``); the
campaign engine, the execution supervisor, the batched replay backend
and the result store all publish into it through the cheap module-level
helpers (:func:`inc`, :func:`observe`,
:func:`observe_phase`).  The registry is *always on* — publishing is a
dict update, far below measurement noise — and **deterministically
inert**: nothing read from it ever flows into campaign summaries, store
payloads or committed artifacts.  It is exported only through the
telemetry side channel (the ``metrics`` trace event a ``--trace`` run
appends at campaign end, rendered Prometheus-style by
``python -m repro trace PATH --metrics``).

Histograms use **fixed bucket bounds** so snapshots from different
processes merge bucket-wise: pool workers accumulate their per-phase
timings and counters locally, ship a drained snapshot back with each
finished batch job, and the engine folds it into the campaign-process
registry (:func:`drain_phase_payload` / :func:`merge_phase_payload`).

Metric identity is ``(name, sorted labels)``, mirroring the Prometheus
data model (``campaign_phase_seconds{phase="triage"}``).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

#: Fixed bucket bounds (seconds) shared by every duration histogram, so
#: worker snapshots merge bucket-wise with the campaign process.
DURATION_BUCKETS = (
    0.0001,
    0.0005,
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    30.0,
)

#: The per-phase wall-clock histogram fed by :func:`observe_phase`.
PHASE_METRIC = "campaign_phase_seconds"

LabelItems = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Mapping[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: LabelItems, extra: str = "") -> str:
    parts = [f'{key}="{value}"' for key, value in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if isinstance(value, float) and value != int(value):
        return repr(value)
    return str(int(value))


class Counter:
    """A monotonically increasing count."""

    metric_type = "counter"

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def to_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.metric_type,
            "labels": dict(self.labels),
            "value": self.value,
        }

    def merge_payload(self, payload: Mapping[str, object]) -> None:
        self.value += float(payload["value"])  # type: ignore[arg-type]

    def render(self) -> List[str]:
        return [f"{self.name}{_render_labels(self.labels)} {_format_value(self.value)}"]


class Histogram:
    """A fixed-bound bucket histogram (Prometheus cumulative rendering).

    ``bounds`` are the *upper* bucket bounds; one implicit ``+Inf``
    bucket catches the tail.  Internal counts are per-bucket (not
    cumulative) so merging two snapshots is element-wise addition;
    rendering accumulates.
    """

    metric_type = "histogram"

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        bounds: Tuple[float, ...] = DURATION_BUCKETS,
    ) -> None:
        if tuple(sorted(bounds)) != tuple(bounds) or not bounds:
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.name = name
        self.labels = labels
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        slot = len(self.bounds)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                slot = index
                break
        self.buckets[slot] += 1
        self.sum += value
        self.count += 1

    def to_payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "type": self.metric_type,
            "labels": dict(self.labels),
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "sum": self.sum,
            "count": self.count,
        }

    def merge_payload(self, payload: Mapping[str, object]) -> None:
        if tuple(payload["bounds"]) != self.bounds:  # type: ignore[arg-type]
            raise ValueError(
                f"histogram {self.name!r}: cannot merge differing bucket bounds"
            )
        for slot, count in enumerate(payload["buckets"]):  # type: ignore[arg-type]
            self.buckets[slot] += int(count)
        self.sum += float(payload["sum"])  # type: ignore[arg-type]
        self.count += int(payload["count"])  # type: ignore[arg-type]

    def render(self) -> List[str]:
        lines = []
        cumulative = 0
        for bound, count in zip(self.bounds, self.buckets):
            cumulative += count
            labels = _render_labels(self.labels, f'le="{bound:g}"')
            lines.append(f"{self.name}_bucket{labels} {cumulative}")
        cumulative += self.buckets[-1]
        labels = _render_labels(self.labels, 'le="+Inf"')
        lines.append(f"{self.name}_bucket{labels} {cumulative}")
        plain = _render_labels(self.labels)
        lines.append(f"{self.name}_sum{plain} {repr(float(self.sum))}")
        lines.append(f"{self.name}_count{plain} {self.count}")
        return lines


class MetricsRegistry:
    """All metrics of one process, keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._metrics: Dict[Tuple[str, LabelItems], object] = {}

    def _get(self, cls, name: str, labels: Optional[Mapping[str, str]], **kwargs):
        key = (name, _label_key(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = cls(name, key[1], **kwargs)
            self._metrics[key] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        return self._get(Counter, name, labels)

    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        bounds: Tuple[float, ...] = DURATION_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, labels, bounds=bounds)

    def __iter__(self) -> Iterator[object]:
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def __len__(self) -> int:
        return len(self._metrics)

    def value(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> float:
        """The current value of a counter (0 if never published)."""
        metric = self._metrics.get((name, _label_key(labels)))
        return metric.value if isinstance(metric, Counter) else 0

    def to_payload(self) -> List[Dict[str, object]]:
        """JSON-serialisable snapshot, deterministically ordered."""
        return [metric.to_payload() for metric in self]

    def merge_payload(self, payload: List[Mapping[str, object]]) -> None:
        """Fold a snapshot from another process into this registry."""
        classes = {"counter": Counter, "histogram": Histogram}
        for entry in payload:
            cls = classes[str(entry["type"])]
            kwargs = {}
            if cls is Histogram:
                kwargs["bounds"] = tuple(entry["bounds"])  # type: ignore[arg-type]
            metric = self._get(cls, str(entry["name"]), entry.get("labels"), **kwargs)
            metric.merge_payload(entry)

    def render_prometheus(self) -> str:
        """Prometheus text exposition of every metric."""
        return render_prometheus(self.to_payload())


def render_prometheus(payload: List[Mapping[str, object]]) -> str:
    """Render a metrics snapshot (``to_payload`` form) as Prometheus text."""
    staging = MetricsRegistry()
    staging.merge_payload(list(payload))
    lines: List[str] = []
    seen_types: Dict[str, str] = {}
    for metric in staging:
        name, metric_type = metric.name, metric.metric_type  # type: ignore[attr-defined]
        if seen_types.get(name) != metric_type:
            lines.append(f"# TYPE {name} {metric_type}")
            seen_types[name] = metric_type
        lines.extend(metric.render())  # type: ignore[attr-defined]
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------- #
# the process-local registry and publishing helpers                      #
# ---------------------------------------------------------------------- #
_REGISTRY: Optional[MetricsRegistry] = None
_REGISTRY_PID: Optional[int] = None


def registry() -> MetricsRegistry:
    """This process's registry (fresh after a fork, so pool workers never
    double-count events inherited from the parent)."""
    global _REGISTRY, _REGISTRY_PID
    pid = os.getpid()
    if _REGISTRY is None or _REGISTRY_PID != pid:
        _REGISTRY = MetricsRegistry()
        _REGISTRY_PID = pid
    return _REGISTRY


def reset_registry() -> None:
    """Drop every metric (tests; a campaign start snapshots instead)."""
    global _REGISTRY, _REGISTRY_PID
    _REGISTRY = None
    _REGISTRY_PID = None


def inc(
    name: str, amount: float = 1, labels: Optional[Mapping[str, str]] = None
) -> None:
    registry().counter(name, labels).inc(amount)


def observe(
    name: str,
    value: float,
    labels: Optional[Mapping[str, str]] = None,
    bounds: Tuple[float, ...] = DURATION_BUCKETS,
) -> None:
    registry().histogram(name, labels, bounds=bounds).observe(value)


def observe_phase(phase: str, seconds: float) -> None:
    """Record one phase duration (``campaign_phase_seconds{phase=...}``)."""
    observe(PHASE_METRIC, seconds, labels={"phase": phase})


class phase_timer:
    """``with phase_timer("triage"):`` — time a block into its phase."""

    def __init__(self, phase: str) -> None:
        self.phase = phase
        self._started = 0.0

    def __enter__(self) -> "phase_timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        observe_phase(self.phase, time.perf_counter() - self._started)


@contextmanager
def job_metrics() -> Iterator[None]:
    """``with job_metrics():`` — publish into a fresh registry, folded into
    this process's on a clean exit and dropped if the block raises, so a
    failed group job that is split or retried is counted once."""
    global _REGISTRY
    outer = registry()
    _REGISTRY = MetricsRegistry()
    try:
        yield
        outer.merge_payload(registry().to_payload())
    finally:
        _REGISTRY = outer


def drain_phase_payload() -> List[Dict[str, object]]:
    """Snapshot-and-reset this process's metrics (phase timings, counters).

    Pool workers call this at the end of a batch job and ship the
    snapshot back with the results; the engine folds it into the
    campaign process with :func:`merge_phase_payload`.  Draining (rather
    than snapshotting) keeps long-lived warm workers from re-reporting
    old batches.
    """
    global _REGISTRY
    payload = registry().to_payload()
    _REGISTRY = MetricsRegistry()
    return payload


def merge_phase_payload(payload: List[Mapping[str, object]]) -> None:
    if payload:
        registry().merge_payload(list(payload))


__all__ = [
    "DURATION_BUCKETS",
    "PHASE_METRIC",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "drain_phase_payload",
    "inc",
    "job_metrics",
    "merge_phase_payload",
    "observe",
    "observe_phase",
    "phase_timer",
    "registry",
    "render_prometheus",
    "reset_registry",
]
