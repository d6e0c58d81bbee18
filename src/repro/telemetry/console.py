"""One formatting and emission path for campaign console output.

Historically the CLI assembled its status output ad hoc: the stats line
in ``__main__``, the quarantine footer inside ``CampaignResult.render``,
errors wherever they were caught.  This module is the single seam:
every human-facing campaign line — the stats line, the quarantine
footer, the live heartbeat, structured errors, flight-recorder dumps —
is *formatted* by a function here and *emitted* through the process
:class:`Console`, so tests capture output by swapping the console
(:func:`set_console`) instead of scraping interpreter-level stdio, and
``--quiet`` is honoured in exactly one place.

``Console.quiet`` suppresses only :meth:`output` (rendered artefacts on
stdout); :meth:`status` and :meth:`error` lines (stderr) always emit —
CI smoke jobs grep the stats line out of quiet runs.
"""

from __future__ import annotations

import sys
from typing import IO, List, Optional, Sequence

from repro.telemetry.flight import DEFAULT_TAIL


class Console:
    """Where campaign output goes: artefacts to ``output_stream``
    (stdout), status/diagnostics to ``status_stream`` (stderr)."""

    def __init__(
        self,
        *,
        output_stream: Optional[IO[str]] = None,
        status_stream: Optional[IO[str]] = None,
        quiet: bool = False,
    ) -> None:
        self._output_stream = output_stream
        self._status_stream = status_stream
        self.quiet = quiet

    @property
    def output_stream(self) -> IO[str]:
        return self._output_stream if self._output_stream is not None else sys.stdout

    @property
    def status_stream(self) -> IO[str]:
        return self._status_stream if self._status_stream is not None else sys.stderr

    def output(self, text: str) -> None:
        """A rendered artefact (suppressed by ``quiet``)."""
        if not self.quiet:
            print(text, file=self.output_stream)

    def status(self, text: str) -> None:
        """A one-line status/progress message (never suppressed)."""
        print(text, file=self.status_stream)

    def error(self, text: str) -> None:
        print(text, file=self.status_stream)


_CONSOLE = Console()


def get_console() -> Console:
    return _CONSOLE


def set_console(console: Console) -> Console:
    """Swap the process console (tests); returns the previous one."""
    global _CONSOLE
    previous, _CONSOLE = _CONSOLE, console
    return previous


# ---------------------------------------------------------------------- #
# the shared formatting path                                             #
# ---------------------------------------------------------------------- #
def format_stats_line(result, elapsed: float) -> str:
    """The end-of-campaign ``[campaign] ...`` stats line."""
    rate = result.points / elapsed if elapsed > 0 else 0.0
    stats = result.stats
    return (
        f"[campaign] strata={len(result.strata)} points={result.points} "
        f"simulated={result.simulated} store-hits={result.store_hits} "
        f"store-misses={result.store_misses} "
        f"analytical={stats.analytical} "
        f"streamed={stats.streamed} "
        f"store_hits={stats.store_hits} "
        f"quarantined={result.quarantined_points} "
        f"retries={stats.retries} "
        f"pool-restarts={stats.worker_restarts} in {elapsed:.1f}s "
        f"({rate:.1f} points/s)"
    )


def format_heartbeat(
    *,
    done: int,
    expected: int,
    elapsed: float,
    stats,
    quarantined: int,
) -> str:
    """One live progress line for long sweeps (``--progress-interval``).

    ``expected`` is the grid's upper bound (strata × trials); early
    stopping and sampling shortfall only ever bring the real total
    *under* it, so the ETA is conservative.
    """
    rate = done / elapsed if elapsed > 0 else 0.0
    if rate > 0 and expected > done:
        eta = f"{(expected - done) / rate:.0f}s"
    else:
        eta = "--"
    percent = 100.0 * done / expected if expected else 100.0
    return (
        f"[campaign] progress {done}/{expected} ({percent:.0f}%) "
        f"{rate:.1f} points/s eta {eta} "
        f"retries={stats.retries} quarantined={quarantined} "
        f"pool-restarts={stats.worker_restarts}"
    )


def format_quarantine_footer(quarantined: Sequence) -> str:
    """The deterministic quarantine report appended to a summary.

    Byte-compatible with the footer historically inlined in
    ``CampaignResult.render`` — resumed-run summary identity depends on
    this rendering never drifting.
    """
    lines: List[str] = [
        "",
        f"Quarantined: {len(quarantined)} point(s) failed every "
        "attempt and are excluded",
        "from the table above (a --resume after repair re-simulates "
        "them):",
    ]
    for point in sorted(quarantined, key=lambda p: p.index):
        lines.append(f"  - {point.describe()}")
    return "\n".join(lines)


def format_flight_tail(entries: Sequence[dict], *, limit: int = DEFAULT_TAIL) -> str:
    """Human-readable flight-recorder tail for crash/SIGINT dumps."""
    shown = list(entries)[-limit:]
    if not shown:
        return "[campaign] flight recorder: (empty)"
    lines = [f"[campaign] flight recorder tail ({len(shown)} of {len(entries)}):"]
    for entry in shown:
        fields = {
            key: value
            for key, value in entry.items()
            if key not in ("seq", "t", "pid", "kind")
        }
        detail = " ".join(f"{key}={value}" for key, value in sorted(fields.items()))
        lines.append(
            f"[campaign]   #{entry.get('seq')} {entry.get('kind')}"
            + (f" {detail}" if detail else "")
        )
    return "\n".join(lines)


__all__ = [
    "Console",
    "format_flight_tail",
    "format_heartbeat",
    "format_quarantine_footer",
    "format_stats_line",
    "get_console",
    "set_console",
]
