"""SQLite result store for large grids.

The JSONL backend replays its whole file on open; for campaigns in the
hundreds of thousands of scenarios an indexed, queryable store is the
better trade.  One table, primary-keyed by fingerprint, one commit per
``put`` (that commit is the durability point a resumed campaign relies
on), batched ``IN (...)`` lookups for ``get_many``.

Thread-safety: the connection is opened with ``check_same_thread=False``
and every operation runs under an internal lock.  This is load-bearing,
not cosmetic — campaigns persist from their calling thread, but the
idle-commit timer of a batching store flushes from its own thread, and
one store may be shared by several threads; sqlite3's default thread
affinity would raise ``ProgrammingError`` on the first cross-thread
call.  The store is safe to share between threads of one process; it is
*not* a multi-process store (each process opens its own).

Durability: ``PRAGMA journal_mode=WAL`` + ``synchronous=NORMAL``.  WAL
keeps readers unblocked during commits and survives process kills; with
``NORMAL``, a commit is durable against the process dying (the resume
guarantee) though the very last commits may roll back if the *host*
dies — the same trade the JSONL backend's per-record flush makes.

Batched commits: ``commit_batch > 1`` buffers puts and commits up to
that many rows in one transaction (``executemany`` + one ``COMMIT``),
which is the difference between one fsync per scenario and one per
batch on write-heavy campaigns.  The durability point then moves by **at
most one batch**: a SIGKILL loses only the buffered tail, and a resumed
campaign re-runs exactly those scenarios (pinned by
``tests/store/test_bulk_io.py``).  Three things keep the relaxation
honest — every read flushes first (the store never hides rows from
itself), an idle timer flushes a partially filled buffer without
waiting for the batch to fill, and :meth:`close` flushes before
closing.

The schema version is stored per row: rows written under an older
schema are invisible to lookups (their fingerprints would not match
anyway — the version is hashed into the fingerprint) but are kept on
disk for forensics and pruning.  A covering index on
``(schema_version, fingerprint)`` makes the bulk cache-skip pass
(``get_many``/``fingerprints``) an index-only scan instead of a table
walk.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from repro.campaign.codec import outcome_from_dict, outcome_to_dict
from repro.campaign.spec import ScenarioOutcome
from repro.exceptions import ConfigurationError
from repro.store.base import Fingerprintish, ResultStore, _digest
from repro.store.fingerprint import SCHEMA_VERSION

__all__ = ["SqliteResultStore"]

#: SQLite limits the number of bound variables; stay well under it.
_IN_BATCH = 500

#: How long a partially filled commit buffer may sit before it is
#: flushed anyway.  Bounds the durability window in wall time the same
#: way ``commit_batch`` bounds it in rows.
_IDLE_FLUSH_SECONDS = 0.5

_INSERT = (
    "INSERT OR REPLACE INTO results (fingerprint, schema_version, outcome) "
    "VALUES (?, ?, ?)"
)


class SqliteResultStore(ResultStore):
    """SQLite-backed store (one file, indexed lookups, batched commits).

    ``commit_batch=1`` (the default) keeps the historical per-put commit
    — every outcome durable before ``put`` returns.  Larger values
    buffer writes as described in the module docstring.  Safe for
    concurrent use from multiple threads of one process; see the module
    docstring for the thread-safety and WAL guarantees.
    """

    def __init__(self, path: Union[str, Path], *, commit_batch: int = 1,
                 idle_flush_seconds: float = _IDLE_FLUSH_SECONDS):
        if commit_batch < 1:
            raise ConfigurationError(
                f"commit_batch must be >= 1, got {commit_batch}")
        if idle_flush_seconds <= 0:
            raise ConfigurationError(
                f"idle_flush_seconds must be > 0, got {idle_flush_seconds}")
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._conn: Optional[sqlite3.Connection] = None
        self._commit_batch = commit_batch
        self._idle_flush_seconds = idle_flush_seconds
        # Pending rows, digest-keyed so a re-put of a buffered fingerprint
        # stays last-write-wins without writing the loser at all.
        self._buffer: Dict[str, str] = {}
        self._idle_timer: Optional[threading.Timer] = None
        self._io = {"puts": 0, "commits": 0, "committed_rows": 0,
                    "max_commit_batch": 0, "flushes": 0}
        try:
            # check_same_thread=False + self._lock: the idle-commit timer
            # and threads sharing the store use the connection off its
            # opening thread, which the default thread affinity would
            # reject with ProgrammingError.
            conn = sqlite3.connect(str(self._path), check_same_thread=False)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                "  fingerprint TEXT PRIMARY KEY,"
                "  schema_version INTEGER NOT NULL,"
                "  outcome TEXT NOT NULL"
                ")"
            )
            # Covering index for the bulk skip pass: get_many and
            # fingerprints() filter on schema_version and read only the
            # fingerprint, so this resolves them without touching the
            # (payload-bearing) table rows.
            conn.execute(
                "CREATE INDEX IF NOT EXISTS results_schema_fingerprint "
                "ON results (schema_version, fingerprint)"
            )
            conn.commit()
        except sqlite3.DatabaseError as exc:
            raise ConfigurationError(
                f"cannot open result store {self._path}: {exc}"
            ) from exc
        self._conn = conn

    @property
    def path(self) -> Path:
        return self._path

    def _connection(self) -> sqlite3.Connection:
        if self._conn is None:
            raise ConfigurationError(
                f"result store {self._path} is closed"
            )
        return self._conn

    # -- write buffering ---------------------------------------------------

    def _commit_rows(self, rows: List[Tuple[str, int, str]]) -> None:
        """One transaction for ``rows`` (caller holds the lock)."""
        if not rows:
            return
        conn = self._connection()
        conn.executemany(_INSERT, rows)
        conn.commit()
        self._io["commits"] += 1
        self._io["committed_rows"] += len(rows)
        self._io["max_commit_batch"] = max(
            self._io["max_commit_batch"], len(rows))

    def _drain_buffer_locked(self) -> None:
        """Commit and clear the pending buffer (caller holds the lock)."""
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None
        if not self._buffer:
            return
        rows = [(digest, SCHEMA_VERSION, payload)
                for digest, payload in self._buffer.items()]
        self._buffer.clear()
        self._commit_rows(rows)

    def _arm_idle_timer_locked(self) -> None:
        if self._idle_timer is not None:
            return
        timer = threading.Timer(self._idle_flush_seconds, self._idle_flush)
        timer.daemon = True
        self._idle_timer = timer
        timer.start()

    def _idle_flush(self) -> None:
        with self._lock:
            self._idle_timer = None
            if self._conn is None:
                return  # closed (and therefore flushed) under the timer
            if self._buffer:
                self._io["flushes"] += 1
                self._drain_buffer_locked()

    def flush(self) -> None:
        """Commit any buffered rows now (the explicit durability point)."""
        with self._lock:
            if self._conn is None:
                return
            if self._buffer:
                self._io["flushes"] += 1
            self._drain_buffer_locked()

    def io_stats(self) -> Dict[str, int]:
        with self._lock:
            return {**self._io, "buffered": len(self._buffer),
                    "commit_batch": self._commit_batch}

    # -- ResultStore -------------------------------------------------------

    def get(self, fingerprint: Fingerprintish) -> Optional[ScenarioOutcome]:
        with self._lock:
            self._drain_buffer_locked()
            row = self._connection().execute(
                "SELECT outcome FROM results WHERE fingerprint = ? AND schema_version = ?",
                (_digest(fingerprint), SCHEMA_VERSION),
            ).fetchone()
        if row is None:
            return None
        return outcome_from_dict(json.loads(row[0]))

    def get_many(
        self, fingerprints: Iterable[Fingerprintish]
    ) -> Dict[str, ScenarioOutcome]:
        digests = list({_digest(fp) for fp in fingerprints})
        hits: Dict[str, ScenarioOutcome] = {}
        with self._lock:
            self._drain_buffer_locked()
        for start in range(0, len(digests), _IN_BATCH):
            batch = digests[start:start + _IN_BATCH]
            placeholders = ",".join("?" for _ in batch)
            with self._lock:
                rows = self._connection().execute(
                    f"SELECT fingerprint, outcome FROM results "
                    f"WHERE schema_version = ? AND fingerprint IN ({placeholders})",
                    [SCHEMA_VERSION, *batch],
                ).fetchall()
            for digest, payload in rows:
                hits[digest] = outcome_from_dict(json.loads(payload))
        return hits

    def put(self, fingerprint: Fingerprintish, outcome: ScenarioOutcome) -> None:
        payload = json.dumps(outcome_to_dict(outcome), sort_keys=True)
        digest = _digest(fingerprint)
        with self._lock:
            self._connection()  # closed-store check before buffering
            self._io["puts"] += 1
            if self._commit_batch == 1:
                self._commit_rows([(digest, SCHEMA_VERSION, payload)])
                return
            self._buffer[digest] = payload
            if len(self._buffer) >= self._commit_batch:
                self._drain_buffer_locked()
            else:
                self._arm_idle_timer_locked()

    def put_many(
        self, items: Iterable[Tuple[Fingerprintish, ScenarioOutcome]]
    ) -> None:
        rows = [
            (_digest(fp), SCHEMA_VERSION, json.dumps(outcome_to_dict(o), sort_keys=True))
            for fp, o in items
        ]
        with self._lock:
            # Buffered puts precede these rows in submission order; drain
            # them into the same transaction so last-write-wins ordering
            # is preserved across the buffering boundary.
            if self._idle_timer is not None:
                self._idle_timer.cancel()
                self._idle_timer = None
            buffered = [(digest, SCHEMA_VERSION, payload)
                        for digest, payload in self._buffer.items()]
            self._buffer.clear()
            self._io["puts"] += len(rows)
            self._commit_rows(buffered + rows)

    def fingerprints(self) -> FrozenSet[str]:
        with self._lock:
            self._drain_buffer_locked()
            rows = self._connection().execute(
                "SELECT fingerprint FROM results WHERE schema_version = ?",
                (SCHEMA_VERSION,),
            ).fetchall()
        return frozenset(row[0] for row in rows)

    def items(self) -> Iterator[Tuple[str, ScenarioOutcome]]:
        with self._lock:
            self._drain_buffer_locked()
            rows = self._connection().execute(
                "SELECT fingerprint, outcome FROM results WHERE schema_version = ? "
                "ORDER BY fingerprint",
                (SCHEMA_VERSION,),
            ).fetchall()
        for digest, payload in rows:
            yield digest, outcome_from_dict(json.loads(payload))

    def close(self) -> None:
        with self._lock:
            if self._idle_timer is not None:
                self._idle_timer.cancel()
                self._idle_timer = None
            if self._conn is not None:
                self._drain_buffer_locked()
                self._conn.close()
                self._conn = None
