"""Persistent, content-addressed, self-verifying result store.

One SQLite file holds four tables:

* ``results`` — JSON payloads keyed by the canonical spec hash
  (:func:`repro.store.canonical.spec_hash`);
* ``fault_spaces`` — each (kernel, scale)'s fault-sampling population,
  keyed by :func:`repro.store.canonical.fault_space_key`;
* ``store_meta`` — the file-layout version;
* ``quarantine`` — points the campaign supervisor gave up on.

The store is the substrate for two features:

* **campaign checkpoint / resume** — every finished injection point is
  written under its spec hash, so a re-run only simulates missing
  points; the fault spaces written next to them let a resume sample
  its points without re-running any kernel;
* an **opt-in cross-process result cache** for
  :func:`repro.simulation.simulate_spec` / the experiment runner —
  timing results keyed the same way survive process boundaries (unlike
  the in-memory kernel-trace cache).

SQLite keeps the implementation dependency-free, transactional and safe
for one writer + many readers; each process opens its own connection.

Because a poisoned store silently poisons every future ``--resume``,
the store defends itself:

* every result and fault-space row carries a **payload checksum**
  (truncated SHA-256) written with the payload and checked on every
  read — a torn or bit-corrupted row is *dropped on read* (counted in
  :attr:`corrupt_dropped`) and reported as a miss, so the resume path
  transparently re-simulates it (or re-derives the fault space);
* :meth:`verify` scans both tables without modifying the file and
  :meth:`repair` drops corrupt rows / backfills legacy checksums;
* writes retry with exponential backoff when ``database is locked``
  outlives ``busy_timeout`` (competing writers on network filesystems);
* the file is stamped with a **store schema version**; opening a file
  written by a *newer* layout raises
  :class:`~repro.campaign.errors.StoreCorruption` instead of guessing;
  older (v1) files are migrated in place, their rows kept as
  legacy-unchecksummed until :meth:`repair` backfills them;
* a **quarantine table** records points the campaign supervisor gave up
  on, with their structured error payloads;
* :meth:`close` is idempotent and exception-safe, so no teardown path
  leaks a WAL handle.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.telemetry import metrics as _metrics

#: Version of the *file layout* (tables/columns), independent of the
#: canonical spec-encoding version (``repro.store.canonical``).  v1 had
#: no checksum column, meta table or quarantine table.  The
#: ``fault_spaces`` table is additive (an older build ignores it), so
#: it did not bump the version.
STORE_SCHEMA_VERSION = 2

_SCHEMA = """
CREATE TABLE IF NOT EXISTS results (
    key      TEXT PRIMARY KEY,
    kind     TEXT NOT NULL DEFAULT '',
    spec     TEXT NOT NULL DEFAULT '',
    payload  TEXT NOT NULL,
    checksum TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS results_kind ON results (kind);
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS quarantine (
    key   TEXT PRIMARY KEY,
    spec  TEXT NOT NULL DEFAULT '',
    error TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS fault_spaces (
    key      TEXT PRIMARY KEY,
    payload  TEXT NOT NULL,
    checksum TEXT NOT NULL
);
"""

#: ``database is locked`` retry schedule (seconds) used once SQLite's
#: own ``busy_timeout`` has been exhausted.
_LOCK_RETRIES = 5
_LOCK_BASE_DELAY = 0.05


def payload_checksum(payload_text: str) -> str:
    """Truncated SHA-256 of the stored payload text (16 hex chars)."""
    return hashlib.sha256(payload_text.encode("utf-8")).hexdigest()[:16]


def _parse_row(payload_text: str, checksum: str) -> Optional[object]:
    """A row's decoded payload, or None if its checksum or JSON lies.

    An empty checksum marks a legacy (pre-checksum) result row, which
    is JSON-checked only.
    """
    if checksum and payload_checksum(payload_text) != checksum:
        return None
    try:
        return json.loads(payload_text)
    except ValueError:
        return None


def _is_locked_error(error: BaseException) -> bool:
    return isinstance(error, sqlite3.OperationalError) and "locked" in str(error)


def with_lock_retry(
    operation: Callable[[], object],
    *,
    retries: int = _LOCK_RETRIES,
    base_delay: float = _LOCK_BASE_DELAY,
    sleep: Callable[[float], None] = time.sleep,
):
    """Run ``operation``, retrying with exponential backoff while SQLite
    reports ``database is locked`` (beyond the connection's own
    ``busy_timeout``).  Any other error propagates immediately."""
    attempt = 0
    while True:
        try:
            return operation()
        except sqlite3.OperationalError as error:
            if not _is_locked_error(error) or attempt >= retries:
                raise
            _metrics.inc("store_lock_retries_total")
            sleep(base_delay * (2 ** attempt))
            attempt += 1


@dataclass
class StoreHealthReport:
    """The outcome of one :meth:`ResultStore.verify`/``repair`` scan."""

    total: int = 0
    intact: int = 0
    #: Keys whose checksum (or JSON) no longer matches their payload.
    corrupt: List[str] = field(default_factory=list)
    #: Keys written by a pre-checksum (v1) store, not yet backfilled.
    legacy: List[str] = field(default_factory=list)
    #: Keys dropped / backfilled by ``repair`` (empty after ``verify``).
    dropped: List[str] = field(default_factory=list)
    backfilled: List[str] = field(default_factory=list)
    #: Fault-space rows scanned, and the keys of those that lie.
    fault_spaces: int = 0
    corrupt_fault_spaces: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.corrupt_fault_spaces

    def describe(self) -> str:
        text = (
            f"{self.total} rows: {self.intact} intact, "
            f"{len(self.corrupt)} corrupt, {len(self.legacy)} legacy; "
            f"{self.fault_spaces} fault spaces, "
            f"{len(self.corrupt_fault_spaces)} corrupt"
        )
        if self.dropped or self.backfilled:
            text += (
                f"; repaired ({len(self.dropped)} dropped, "
                f"{len(self.backfilled)} checksums backfilled)"
            )
        return text


class ResultStore:
    """Content-addressed JSON result store backed by SQLite.

    ``path`` may be a filesystem path or ``":memory:"`` for an ephemeral
    store (useful in tests).  The store counts its ``hits`` and
    ``misses`` (lookups that found / did not find a payload) plus
    ``corrupt_dropped`` (rows a read rejected and deleted because their
    checksum lied) so callers can assert resume behaviour.
    """

    def __init__(self, path: Union[str, pathlib.Path]) -> None:
        self.path = str(path)
        self._closed = True  # true until the connection is live
        if self.path != ":memory:":
            parent = pathlib.Path(self.path).resolve().parent
            parent.mkdir(parents=True, exist_ok=True)
        self._connection = sqlite3.connect(self.path)
        self._closed = False
        try:
            # Concurrent campaigns sharing one store file: WAL lets
            # readers proceed during a write, and the busy timeout makes
            # competing writers queue instead of raising "database is
            # locked".  (":memory:" silently ignores the WAL request.)
            self._connection.execute("PRAGMA journal_mode=WAL")
            self._connection.execute("PRAGMA busy_timeout=30000")
            self._migrate()
        except BaseException:
            # Never leak a half-opened WAL handle from a failed open.
            self.close()
            raise
        self.hits = 0
        self.misses = 0
        self.corrupt_dropped = 0

    def _migrate(self) -> None:
        """Create or upgrade the file layout in place (v1 -> v2)."""
        from repro.campaign.errors import StoreCorruption

        has_results = self._connection.execute(
            "SELECT 1 FROM sqlite_master WHERE type='table' AND name='results'"
        ).fetchone()
        if has_results:
            columns = {
                row[1]
                for row in self._connection.execute("PRAGMA table_info(results)")
            }
            if "checksum" not in columns:
                # A v1 file: add the checksum column; existing rows stay
                # legacy (empty checksum) until repair() backfills them.
                self._connection.execute(
                    "ALTER TABLE results ADD COLUMN checksum TEXT NOT NULL DEFAULT ''"
                )
        self._connection.executescript(_SCHEMA)
        row = self._connection.execute(
            "SELECT value FROM store_meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is not None and int(row[0]) > STORE_SCHEMA_VERSION:
            version = int(row[0])
            self._connection.commit()
            raise StoreCorruption(
                f"store {self.path!r} uses schema v{version}, newer than "
                f"this build's v{STORE_SCHEMA_VERSION}",
                path=self.path,
                found_version=version,
                supported_version=STORE_SCHEMA_VERSION,
            )
        self._connection.execute(
            "INSERT OR REPLACE INTO store_meta (key, value) VALUES "
            "('schema_version', ?)",
            (str(STORE_SCHEMA_VERSION),),
        )
        self._connection.commit()

    @property
    def schema_version(self) -> int:
        row = self._connection.execute(
            "SELECT value FROM store_meta WHERE key = 'schema_version'"
        ).fetchone()
        return int(row[0]) if row is not None else 1

    # ------------------------------------------------------------------ #
    # core mapping interface                                             #
    # ------------------------------------------------------------------ #
    @contextlib.contextmanager
    def _published_lookup(self):
        """Publish one lookup's latency and hit/miss deltas as metrics."""
        hits, misses = self.hits, self.misses
        started = time.perf_counter()
        try:
            yield
        finally:
            _metrics.observe("store_lookup_seconds", time.perf_counter() - started)
            gained_hits = self.hits - hits
            gained_misses = self.misses - misses
            if gained_hits:
                _metrics.inc(
                    "store_lookups_total", gained_hits, labels={"result": "hit"}
                )
            if gained_misses:
                _metrics.inc(
                    "store_lookups_total", gained_misses, labels={"result": "miss"}
                )

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored payload for ``key``, or None (counted as hit/miss).

        A row whose checksum or JSON no longer matches its payload is a
        lie, not a result: the row is deleted (``corrupt_dropped``) and
        the lookup reported as a miss, so resume re-simulates the point
        instead of trusting torn data.  Legacy (pre-checksum) rows are
        still JSON-validated.
        """
        with self._published_lookup():
            return self._get(key)

    def _get(self, key: str) -> Optional[Dict[str, object]]:
        row = self._connection.execute(
            "SELECT payload, checksum FROM results WHERE key = ?", (key,)
        ).fetchone()
        payload = None if row is None else self._decode("results", key, *row)
        if payload is None:
            self.misses += 1
            return None
        self.hits += 1
        return payload

    def _decode(
        self, table: str, key: str, payload_text: str, checksum: str
    ) -> Optional[Dict[str, object]]:
        """One row's payload, or None after dropping the row as corrupt."""
        payload = _parse_row(payload_text, checksum)
        if payload is None:
            self._drop_corrupt(key, table)
        return payload

    def get_many(self, keys: List[str]) -> Dict[str, Dict[str, object]]:
        """Resolve many keys in one query; returns only the hits.

        Semantically equivalent to calling :meth:`get` per key — same
        checksum verification, same corrupt-row dropping, same hit/miss
        accounting — but the SELECT runs once (chunked under SQLite's
        host-parameter limit) instead of once per key.  The warm
        resume path resolves a whole stratum's store hits up front with
        this before entering the supervisor loop.
        """
        with self._published_lookup():
            return self._get_many(keys)

    def _get_many(self, keys: List[str]) -> Dict[str, Dict[str, object]]:
        found: Dict[str, Dict[str, object]] = {}
        if not keys:
            return found
        rows: Dict[str, Tuple[str, str]] = {}
        # SQLite's default variable limit is 999; stay well under it.
        chunk_size = 500
        unique = list(dict.fromkeys(keys))
        for start in range(0, len(unique), chunk_size):
            chunk = unique[start : start + chunk_size]
            placeholders = ",".join("?" * len(chunk))
            for key, payload_text, checksum in self._connection.execute(
                f"SELECT key, payload, checksum FROM results "
                f"WHERE key IN ({placeholders})",
                chunk,
            ):
                rows[key] = (payload_text, checksum)
        for key in unique:
            row = rows.get(key)
            payload = None if row is None else self._decode("results", key, *row)
            if payload is None:
                self.misses += 1
                continue
            self.hits += 1
            found[key] = payload
        return found

    def _timed_write(self, write: Callable[[], object]) -> None:
        """Run a write under lock-retry, publishing its latency."""
        started = time.perf_counter()
        try:
            with_lock_retry(write)
        finally:
            _metrics.observe("store_write_seconds", time.perf_counter() - started)

    def _drop_corrupt(self, key: str, table: str = "results") -> None:
        with_lock_retry(
            lambda: (
                self._connection.execute(
                    f"DELETE FROM {table} WHERE key = ?", (key,)
                ),
                self._connection.commit(),
            )
        )
        self.corrupt_dropped += 1
        _metrics.inc("store_corrupt_dropped_total")

    def put(
        self,
        key: str,
        payload: Dict[str, object],
        *,
        spec_json: str = "",
        kind: str = "",
    ) -> None:
        """Insert or overwrite the payload stored under ``key``."""
        payload_text = json.dumps(payload, sort_keys=True)

        def write():
            self._connection.execute(
                "INSERT OR REPLACE INTO results "
                "(key, kind, spec, payload, checksum) VALUES (?, ?, ?, ?, ?)",
                (key, kind, spec_json, payload_text, payload_checksum(payload_text)),
            )
            self._connection.commit()

        self._timed_write(write)

    def put_many(
        self,
        rows: Iterable[Tuple[str, Dict[str, object], str]],
        *,
        kind: str = "",
    ) -> None:
        """Insert or overwrite many ``(key, payload, spec_json)`` rows.

        All rows land in **one** SQLite transaction (``executemany``),
        so batch writers — the campaign engine writes one batch of
        injection points at a time — pay one fsync per batch instead of
        one per point.  Equivalent to calling :meth:`put` per row.
        """
        prepared = []
        for key, payload, spec_json in rows:
            payload_text = json.dumps(payload, sort_keys=True)
            prepared.append(
                (key, kind, spec_json, payload_text, payload_checksum(payload_text))
            )
        if not prepared:
            return

        def write():
            self._connection.executemany(
                "INSERT OR REPLACE INTO results "
                "(key, kind, spec, payload, checksum) VALUES (?, ?, ?, ?, ?)",
                prepared,
            )
            self._connection.commit()

        self._timed_write(write)

    def get_fault_space(self, key: str) -> Optional[Dict[str, object]]:
        """The fault-sampling population stored under ``key``, or None.

        Checked and dropped on read like a result row (see :meth:`get`);
        these lookups do not count as result hits or misses.
        """
        with self._published_lookup():
            row = self._connection.execute(
                "SELECT payload, checksum FROM fault_spaces WHERE key = ?", (key,)
            ).fetchone()
            return None if row is None else self._decode("fault_spaces", key, *row)

    def has_fault_space(self, key: str) -> bool:
        """Whether a fault-space row exists under ``key`` (unverified)."""
        row = self._connection.execute(
            "SELECT 1 FROM fault_spaces WHERE key = ?", (key,)
        ).fetchone()
        return row is not None

    def put_fault_space(self, key: str, payload: Dict[str, object]) -> None:
        """Insert or overwrite the fault-sampling population under ``key``."""
        payload_text = json.dumps(payload, sort_keys=True)

        def write():
            self._connection.execute(
                "INSERT OR REPLACE INTO fault_spaces (key, payload, checksum) "
                "VALUES (?, ?, ?)",
                (key, payload_text, payload_checksum(payload_text)),
            )
            self._connection.commit()

        self._timed_write(write)

    def merge_rows(self, rows: Iterable[Tuple[str, str, str, str, str]]) -> int:
        """Idempotently fold foreign ``(key, kind, spec, payload,
        checksum)`` rows in — ``INSERT OR IGNORE``, one transaction.

        This is the shard-merge primitive
        (:mod:`repro.store.sharding`): keys are content addresses and
        payloads deterministic, so ignoring an existing key keeps an
        identical payload, which makes the merge idempotent and
        order-independent.  Returns the number of rows actually
        inserted (already-present keys don't count).
        """
        prepared = list(rows)
        if not prepared:
            return 0
        inserted = 0

        def write():
            nonlocal inserted
            before = self._connection.total_changes
            self._connection.executemany(
                "INSERT OR IGNORE INTO results "
                "(key, kind, spec, payload, checksum) VALUES (?, ?, ?, ?, ?)",
                prepared,
            )
            self._connection.commit()
            inserted = self._connection.total_changes - before

        self._timed_write(write)
        return inserted

    def spec_json(self, key: str) -> Optional[str]:
        """The canonical spec recorded with ``key`` (provenance)."""
        row = self._connection.execute(
            "SELECT spec FROM results WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def __contains__(self, key: str) -> bool:
        row = self._connection.execute(
            "SELECT 1 FROM results WHERE key = ?", (key,)
        ).fetchone()
        return row is not None

    def __len__(self) -> int:
        (count,) = self._connection.execute(
            "SELECT COUNT(*) FROM results"
        ).fetchone()
        return int(count)

    def count(self, kind: str) -> int:
        (count,) = self._connection.execute(
            "SELECT COUNT(*) FROM results WHERE kind = ?", (kind,)
        ).fetchone()
        return int(count)

    def keys(self) -> Iterator[str]:
        for (key,) in self._connection.execute(
            "SELECT key FROM results ORDER BY key"
        ):
            yield key

    def iter_rows(self) -> Iterator[Tuple[str, Dict[str, object], str]]:
        """All ``(key, payload, kind)`` rows in key order.

        Payloads are decoded but *not* checksum-verified — use
        :meth:`verify` / :meth:`repair` for integrity scans.
        """
        for key, payload_text, kind in self._connection.execute(
            "SELECT key, payload, kind FROM results ORDER BY key"
        ):
            yield key, json.loads(payload_text), kind

    # ------------------------------------------------------------------ #
    # integrity: verify / repair                                         #
    # ------------------------------------------------------------------ #
    def _scan(self) -> StoreHealthReport:
        report = StoreHealthReport()
        for key, payload_text, checksum in self._connection.execute(
            "SELECT key, payload, checksum FROM results ORDER BY key"
        ):
            report.total += 1
            if _parse_row(payload_text, checksum) is None:
                report.corrupt.append(key)
            elif not checksum:
                report.legacy.append(key)
            else:
                report.intact += 1
        for key, payload_text, checksum in self._connection.execute(
            "SELECT key, payload, checksum FROM fault_spaces ORDER BY key"
        ):
            report.fault_spaces += 1
            if not checksum or _parse_row(payload_text, checksum) is None:
                report.corrupt_fault_spaces.append(key)
        return report

    def verify(self) -> StoreHealthReport:
        """Scan every result and fault-space row's checksum/JSON without
        modifying the file."""
        return self._scan()

    def repair(self) -> StoreHealthReport:
        """Heal the store: drop corrupt rows, backfill legacy checksums.

        Dropped rows are simply missing afterwards — the resume path
        re-simulates them from their (re-derivable) specs, and re-derives
        a dropped fault space from its kernel's golden run, which is the
        re-simulation fallback the checksum design counts on.
        """
        report = self._scan()

        def heal():
            for key in report.corrupt:
                self._connection.execute(
                    "DELETE FROM results WHERE key = ?", (key,)
                )
            for key in report.corrupt_fault_spaces:
                self._connection.execute(
                    "DELETE FROM fault_spaces WHERE key = ?", (key,)
                )
            for key in report.legacy:
                (payload_text,) = self._connection.execute(
                    "SELECT payload FROM results WHERE key = ?", (key,)
                ).fetchone()
                self._connection.execute(
                    "UPDATE results SET checksum = ? WHERE key = ?",
                    (payload_checksum(payload_text), key),
                )
            self._connection.commit()

        with_lock_retry(heal)
        report.dropped = report.corrupt + report.corrupt_fault_spaces
        self.corrupt_dropped += len(report.dropped)
        report.backfilled = list(report.legacy)
        report.intact += len(report.legacy)
        report.legacy = []
        return report

    # ------------------------------------------------------------------ #
    # quarantine                                                         #
    # ------------------------------------------------------------------ #
    def quarantine_put(
        self, key: str, error: Dict[str, object], *, spec_json: str = ""
    ) -> None:
        """Record a poison point the campaign supervisor gave up on."""

        def write():
            self._connection.execute(
                "INSERT OR REPLACE INTO quarantine (key, spec, error) "
                "VALUES (?, ?, ?)",
                (key, spec_json, json.dumps(error, sort_keys=True)),
            )
            self._connection.commit()

        self._timed_write(write)

    def quarantine_get(self, key: str) -> Optional[Dict[str, object]]:
        row = self._connection.execute(
            "SELECT error FROM quarantine WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else json.loads(row[0])

    def quarantine_count(self) -> int:
        (count,) = self._connection.execute(
            "SELECT COUNT(*) FROM quarantine"
        ).fetchone()
        return int(count)

    def quarantine_clear(self, key: Optional[str] = None) -> None:
        """Forget quarantined keys (all, or just one) — e.g. after a
        resume successfully re-simulated them."""

        def clear():
            if key is None:
                self._connection.execute("DELETE FROM quarantine")
            else:
                self._connection.execute(
                    "DELETE FROM quarantine WHERE key = ?", (key,)
                )
            self._connection.commit()

        with_lock_retry(clear)

    # ------------------------------------------------------------------ #
    # lifecycle                                                          #
    # ------------------------------------------------------------------ #
    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
        self.corrupt_dropped = 0

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Close the connection (idempotent — safe on every teardown path).

        A finished store checkpoints its WAL back into the main file
        (``wal_checkpoint(TRUNCATE)``) before closing, so a clean close
        leaves no stale ``-wal``/``-shm`` side-files next to the
        database — the file on disk *is* the store.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        except sqlite3.Error:
            pass  # e.g. another connection holds the file; close anyway
        self._connection.close()

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"entries={len(self)}"
        return f"ResultStore({self.path!r}, {state})"
