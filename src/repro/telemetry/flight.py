"""The flight recorder: a bounded ring of recent harness events.

Every process keeps one (:func:`recorder` — fresh after a fork), always
on: recording is a deque append, and the buffer is bounded, so there is
nothing to configure and nothing to leak.  Its job is post-mortems —
when a point is quarantined, the recorder tail of the process that
watched it fail travels in the structured error payload
(:func:`tail_payload`), and when a campaign dies on SIGINT or an
internal error the tail is dumped to the trace file / console — so an
investigation starts from the last N things the harness actually did,
not from nothing.

Determinism contract: entries carry a monotonic timestamp and the
recording pid *internally* (for trace-file dumps), but
:func:`tail_payload` — the only form that ever reaches a store payload —
strips both.  Store payloads must stay byte-identical across runs and
across trace-on/trace-off, and sequence numbers + event fields are
deterministic where the schedule is; wall-clock and pids never are.
"""

from __future__ import annotations

import os
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

#: Ring capacity: enough to span several batches of dispatch/failure
#: events without ever mattering for memory.
DEFAULT_CAPACITY = 256

#: How many entries a quarantined point's payload carries by default.
DEFAULT_TAIL = 16


class FlightRecorder:
    """Bounded in-memory ring buffer of ``(seq, t, pid, kind, fields)``."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("flight recorder capacity must be positive")
        self.capacity = capacity
        self._entries: Deque[Tuple[int, float, int, str, Dict[str, object]]] = deque(
            maxlen=capacity
        )
        self._seq = 0

    def record(self, kind: str, **fields: object) -> None:
        """Append one event.  ``fields`` must be JSON-serialisable and
        deterministic (no wall-clock, no pids) — they may end up in a
        quarantined point's store payload."""
        self._entries.append(
            (self._seq, time.perf_counter(), os.getpid(), kind, fields)
        )
        self._seq += 1

    def __len__(self) -> int:
        return len(self._entries)

    def tail(self, count: int = DEFAULT_TAIL) -> List[Dict[str, object]]:
        """The last ``count`` entries *with* timestamps and pids — for
        trace-file dumps only, never for store payloads."""
        entries = list(self._entries)[-count:]
        return [
            {"seq": seq, "t": t, "pid": pid, "kind": kind, **fields}
            for seq, t, pid, kind, fields in entries
        ]

    def tail_payload(self, count: int = DEFAULT_TAIL) -> List[Dict[str, object]]:
        """The last ``count`` entries in store-payload form: sequence
        numbers and fields only (timestamps and pids stripped, so the
        payload is deterministic and byte-stable across runs)."""
        entries = list(self._entries)[-count:]
        return [
            {"seq": seq, "kind": kind, **fields}
            for seq, _t, _pid, kind, fields in entries
        ]

    def clear(self) -> None:
        self._entries.clear()
        self._seq = 0


# ---------------------------------------------------------------------- #
# the process-local recorder                                             #
# ---------------------------------------------------------------------- #
_RECORDER: Optional[FlightRecorder] = None
_RECORDER_PID: Optional[int] = None


def recorder() -> FlightRecorder:
    """This process's flight recorder (fresh after a fork, so a pool
    worker's tail describes *its* recent history, not the parent's)."""
    global _RECORDER, _RECORDER_PID
    pid = os.getpid()
    if _RECORDER is None or _RECORDER_PID != pid:
        _RECORDER = FlightRecorder()
        _RECORDER_PID = pid
    return _RECORDER


def record(kind: str, **fields: object) -> None:
    recorder().record(kind, **fields)


def tail_payload(count: int = DEFAULT_TAIL) -> List[Dict[str, object]]:
    return recorder().tail_payload(count)


def reset_recorder() -> None:
    """Drop the process recorder (tests)."""
    global _RECORDER, _RECORDER_PID
    _RECORDER = None
    _RECORDER_PID = None


__all__ = [
    "DEFAULT_CAPACITY",
    "DEFAULT_TAIL",
    "FlightRecorder",
    "record",
    "recorder",
    "reset_recorder",
    "tail_payload",
]
