"""Deterministic harness-fault injection (chaos) for campaign runs.

The campaign injects faults into a simulated cache hierarchy; this
module injects faults into the *campaign harness itself*, so the
fault-tolerance layer (supervisor, retries, quarantine, store
verify/repair, resume) is testable end to end instead of only on paper.

A :class:`ChaosPlan` is a declarative, fully deterministic schedule
keyed by the campaign-global point index (the same deterministic grid
order the sampler uses — seeded like the sampler, never wall-clock or
PID dependent):

* ``kill-worker@N`` — the worker process simulating point N SIGKILLs
  itself (the ``BrokenProcessPool`` path: the supervisor must respawn
  the pool and retry the shard);
* ``timeout@N`` — point N hangs for :attr:`ChaosPlan.hang_seconds`,
  tripping the supervisor's per-point watchdog;
* ``fail@N`` — the replay of point N raises
  :class:`~repro.campaign.errors.ReplayDivergence`;
* ``kill-main@N`` — the *campaign process* SIGKILLs itself just before
  dispatching point N (crash-anywhere: resume must restore the run);
* ``sigint@N`` — SIGINT is delivered to the campaign process before
  dispatching point N (graceful-interrupt path: flush, checkpoint,
  structured exit).

Directives fire **once** by default — the first attempt fails, the
retry succeeds — which is how transient faults are modelled.  An
``:always`` suffix makes a directive persistent, which is how poison
points are modelled (the supervisor must quarantine them).

The CLI accepts plans as ``--chaos "kill-worker@5,timeout@7:always"``;
:func:`corrupt_store_row` completes the triad by deterministically
corrupting a chosen result-store row (checksum-detectable, see
:meth:`repro.store.ResultStore.verify`).
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.campaign.errors import ReplayDivergence

#: Directive kinds that run inside the worker simulating the point.
WORKER_KINDS = ("kill-worker", "timeout", "fail")
#: Directive kinds the supervisor applies in the campaign process.
SUPERVISOR_KINDS = ("kill-main", "sigint")
CHAOS_KINDS = WORKER_KINDS + SUPERVISOR_KINDS


@dataclass(frozen=True)
class ChaosDirective:
    """One scheduled harness fault: ``kind`` at global point ``index``."""

    kind: str
    index: int
    always: bool = False

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(
                f"unknown chaos kind {self.kind!r}; expected one of {CHAOS_KINDS}"
            )
        if self.index < 0:
            raise ValueError("chaos point index must be >= 0")

    def spec(self) -> str:
        return f"{self.kind}@{self.index}" + (":always" if self.always else "")


@dataclass
class ChaosPlan:
    """A deterministic schedule of harness faults for one campaign run."""

    directives: Tuple[ChaosDirective, ...] = ()
    #: How long a chaos ``timeout`` point sleeps (must exceed the
    #: campaign's ``point_timeout`` for the watchdog to trip).
    hang_seconds: float = 3600.0
    #: Attempt counters, so one-shot directives really fire once.
    _fired: Dict[Tuple[str, int], int] = field(default_factory=dict)

    def directive_for(self, index: int, *, worker: bool) -> Optional[ChaosDirective]:
        """The directive to apply to point ``index`` on this attempt.

        ``worker=True`` selects worker-side kinds (travel with the job
        into the pool), ``worker=False`` supervisor-side kinds.  A
        one-shot directive is consumed by the call that returns it.
        """
        kinds = WORKER_KINDS if worker else SUPERVISOR_KINDS
        for directive in self.directives:
            if directive.index != index or directive.kind not in kinds:
                continue
            fired = self._fired.get((directive.kind, index), 0)
            if directive.always or fired == 0:
                self._fired[(directive.kind, index)] = fired + 1
                return directive
        return None

    def has_directive(self, index: int) -> bool:
        """Non-consuming peek: does ``index`` still have a pending directive?

        The supervisor runs chaos-targeted points as singleton groups
        (where kill/hang/fail semantics are exact); this peek must not
        consume a one-shot directive, or the directive would silently
        never fire.
        """
        for directive in self.directives:
            if directive.index != index:
                continue
            if directive.always or not self._fired.get((directive.kind, index), 0):
                return True
        return False

    def spec(self) -> str:
        return ",".join(directive.spec() for directive in self.directives)


def parse_chaos(text: str, *, hang_seconds: float = 3600.0) -> ChaosPlan:
    """Parse ``"kind@index[:always],..."`` into a :class:`ChaosPlan`."""
    directives = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        always = False
        if chunk.endswith(":always"):
            always = True
            chunk = chunk[: -len(":always")]
        try:
            kind, raw_index = chunk.rsplit("@", 1)
            index = int(raw_index)
        except ValueError as error:
            raise ValueError(
                f"bad chaos directive {chunk!r}; expected kind@index[:always]"
            ) from error
        directives.append(ChaosDirective(kind=kind.strip(), index=index, always=always))
    return ChaosPlan(directives=tuple(directives), hang_seconds=hang_seconds)


def apply_worker_directive(directive: Optional[ChaosDirective], hang_seconds: float) -> None:
    """Execute a worker-side directive inside the simulating process.

    Called by the supervised group job before the real replay; the
    directive (already consumed parent-side for one-shot bookkeeping)
    travels pickled with the job, so pool workers need no shared state.
    """
    if directive is None:
        return
    if directive.kind == "kill-worker":
        # Die the way a segfaulted/OOM-killed worker dies: abruptly,
        # without cleanup — the parent sees BrokenProcessPool.
        # repro: allow[D104] reason=self-signalling chaos kill; the pid is consumed by os.kill, never persisted
        os.kill(os.getpid(), signal.SIGKILL)
    elif directive.kind == "timeout":
        time.sleep(hang_seconds)
    elif directive.kind == "fail":
        raise ReplayDivergence(
            "chaos-injected replay failure",
            chaos=directive.spec(),
        )


def apply_supervisor_directive(directive: Optional[ChaosDirective]) -> None:
    """Execute a supervisor-side directive in the campaign process."""
    if directive is None:
        return
    if directive.kind == "kill-main":
        # repro: allow[D104] reason=self-signalling chaos kill; the pid is consumed by os.kill, never persisted
        os.kill(os.getpid(), signal.SIGKILL)
    elif directive.kind == "sigint":
        # repro: allow[D104] reason=self-signalling chaos interrupt; the pid is consumed by os.kill, never persisted
        os.kill(os.getpid(), signal.SIGINT)


def corrupt_store_row(path, index: int = 0, *, seed: int = 2019) -> str:
    """Deterministically bit-corrupt one stored result row (tests/CI).

    Picks the ``index``-th result row in key order and rewrites one
    payload character derived from ``seed`` — the JSON stays parseable,
    so only the per-row checksum (:meth:`ResultStore.verify`) can tell
    the row is lying.  Returns the corrupted row's key.

    Writes through a raw SQLite connection on purpose: this models
    corruption happening *behind the store's back* (torn write, bad
    sector), which the store must detect, not prevent.
    """
    import sqlite3

    connection = sqlite3.connect(str(path))
    try:
        row = connection.execute(
            "SELECT key, payload FROM results ORDER BY key LIMIT 1 OFFSET ?",
            (index,),
        ).fetchone()
        if row is None:
            raise IndexError(f"store has no result row at index {index}")
        key, payload = row
        digits = [i for i, ch in enumerate(payload) if ch.isdigit()]
        if not digits:
            raise ValueError(f"row {key} has no digit to corrupt")
        at = digits[seed % len(digits)]
        flipped = str((int(payload[at]) + 1) % 10)
        corrupted = payload[:at] + flipped + payload[at + 1 :]
        # repro: allow[S301] reason=deliberate behind-the-store corruption the checksum scan must catch (chaos testing)
        connection.execute(
            "UPDATE results SET payload = ? WHERE key = ?", (corrupted, key)
        )
        connection.commit()
        return key
    finally:
        connection.close()


__all__ = [
    "CHAOS_KINDS",
    "ChaosDirective",
    "ChaosPlan",
    "apply_supervisor_directive",
    "apply_worker_directive",
    "corrupt_store_row",
    "parse_chaos",
]
