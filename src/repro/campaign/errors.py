"""The campaign failure taxonomy.

Every way a campaign point (or the harness running it) can fail is a
:class:`CampaignError` subclass with a stable machine-readable ``kind``
and a structured :meth:`~CampaignError.payload`.  The taxonomy is what
the execution supervisor (:mod:`repro.campaign.engine`) quarantines
poison points under, what the store records in its ``quarantine`` table,
and what the CLI renders as its one-line structured error instead of a
traceback:

* :class:`PointTimeout` — one injection exceeded the configured
  per-point wall-clock budget (``point_timeout``);
* :class:`WorkerCrash` — a pool worker died mid-shard (the
  ``BrokenProcessPool`` path: segfault, OOM kill, chaos ``kill-worker``);
* :class:`ReplayDivergence` — the replay itself raised (an internal
  invariant broke, or chaos forced a failure);
* :class:`StoreCorruption` — the result store detected torn or
  bit-corrupted rows, or an incompatible schema;
* :class:`CampaignInterrupted` — SIGINT/SIGTERM arrived; the in-flight
  batch was flushed and the campaign checkpointed before raising.

Quarantine bookkeeping lives here too: a :class:`QuarantinedPoint`
pairs the failed point's identity (global index, stratum coordinates,
spec hash) with the error payload that condemned it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


class CampaignError(Exception):
    """Base of the campaign failure taxonomy (machine-readable ``kind``)."""

    kind: str = "campaign-error"

    def __init__(self, message: str, **details: object) -> None:
        super().__init__(message)
        self.message = message
        self.details: Dict[str, object] = dict(details)

    def payload(self) -> Dict[str, object]:
        """The structured JSON form stored with quarantined points."""
        return {
            "error": self.kind,
            "message": self.message,
            "details": dict(self.details),
        }

    def __reduce__(self):
        # Default Exception pickling rebuilds from ``args`` alone, which
        # would drop ``details`` on the worker -> supervisor hop (and
        # with it the worker's flight-recorder tail).
        return (_rebuild_campaign_error, (type(self), self.message, self.details))

    def __str__(self) -> str:
        return f"{self.kind}: {self.message}"


def _rebuild_campaign_error(cls, message: str, details: Dict[str, object]):
    """Unpickle helper: restore a taxonomy error with its details."""
    return cls(message, **details)


class PointTimeout(CampaignError):
    """One injection point exceeded its per-point wall-clock budget."""

    kind = "point-timeout"


class WorkerCrash(CampaignError):
    """A pool worker died mid-shard (BrokenProcessPool and friends)."""

    kind = "worker-crash"


class ReplayDivergence(CampaignError):
    """The architectural replay raised instead of classifying."""

    kind = "replay-divergence"


class StoreCorruption(CampaignError):
    """The result store detected torn/corrupted rows or a bad schema."""

    kind = "store-corruption"


class CampaignInterrupted(CampaignError):
    """SIGINT/SIGTERM: the campaign checkpointed and stopped cleanly."""

    kind = "interrupted"


def wrap_point_error(error: BaseException, **details: object) -> CampaignError:
    """Normalise an arbitrary per-point exception into the taxonomy.

    :class:`CampaignError` instances pass through (their details are
    extended); anything else a worker raised during replay is, by
    definition, a replay that failed to classify its point —
    :class:`ReplayDivergence` — with the original exception preserved
    in the structured payload.
    """
    if isinstance(error, CampaignError):
        error.details.update(details)
        return error
    return ReplayDivergence(
        f"replay raised {type(error).__name__}: {error}",
        exception=type(error).__name__,
        **details,
    )


@dataclass(frozen=True)
class QuarantinedPoint:
    """One poison point: identity plus the error that condemned it.

    ``index`` is the campaign-global point index (deterministic grid
    order), so quarantine reports are byte-stable across re-runs.
    """

    index: int
    kernel: str
    policy: str
    target: str
    scenario: str
    scale: float
    attempts: int
    error: Dict[str, object]
    key: str = ""
    spec_json: str = ""

    def describe(self) -> str:
        """One deterministic report line for the campaign summary."""
        return (
            f"point {self.index} {self.kernel} x {self.policy} "
            f"[{self.target}/{self.scenario}/{self.scale:g}] "
            f"after {self.attempts} attempt(s): "
            f"{self.error.get('error')}: {self.error.get('message')}"
        )


@dataclass
class SupervisorStats:
    """Harness-level health counters of one campaign run."""

    retries: int = 0
    worker_restarts: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    replay_failures: int = 0
    quarantined: int = 0
    #: Replay-mode composition of the completed points: classified
    #: analytically from the golden timeline (zero re-execution),
    #: executed via snapshot suffix-resume ("streamed"), or satisfied
    #: from the result store.  ``analytical + streamed + store_hits``
    #: equals the number of non-quarantined points the campaign resolved.
    analytical: int = 0
    streamed: int = 0
    store_hits: int = 0
    extra: Dict[str, int] = field(default_factory=dict)

    def record_mode(self, mode: str) -> None:
        """Count one completed point's replay mode."""
        if mode == "analytical":
            self.analytical += 1
        elif mode == "streamed":
            self.streamed += 1

    def record(self, error: CampaignError) -> None:
        if isinstance(error, PointTimeout):
            self.timeouts += 1
        elif isinstance(error, WorkerCrash):
            self.worker_crashes += 1
        elif isinstance(error, ReplayDivergence):
            self.replay_failures += 1
        else:
            self.extra[error.kind] = self.extra.get(error.kind, 0) + 1


__all__ = [
    "CampaignError",
    "CampaignInterrupted",
    "PointTimeout",
    "QuarantinedPoint",
    "ReplayDivergence",
    "StoreCorruption",
    "SupervisorStats",
    "WorkerCrash",
    "wrap_point_error",
]
