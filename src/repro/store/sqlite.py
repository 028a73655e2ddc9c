"""SQLite result store for large grids.

The JSONL backend replays its whole file on open; for campaigns in the
hundreds of thousands of scenarios an indexed, queryable store is the
better trade.  One table, primary-keyed by fingerprint, one commit per
``put`` (that commit is the durability point a resumed campaign relies
on), batched ``IN (...)`` lookups for ``get_many``.  A row keeps the
outcome as the spec-free array of
:func:`~repro.campaign.codec.outcome_to_row` in its ``outcome`` column
and the spec in a ``spec`` column of its own: ``get_many`` reads only
the outcome column and attaches the caller's specs, while ``get`` and
``items`` decode the spec column to rebuild whole outcomes.

Thread-safety: the connection is opened with ``check_same_thread=False``
and every operation runs under the store's lock.  This is load-bearing,
not cosmetic — campaigns persist from their calling thread, but the
idle timer of a batching store commits from its own thread, and one
store may be shared by several threads; sqlite3's default thread
affinity would raise ``ProgrammingError`` on the first cross-thread
call.  The store is safe to share between threads of one process; it is
*not* a multi-process store (each process opens its own).

Durability: ``PRAGMA journal_mode=WAL`` + ``synchronous=NORMAL``.  WAL
keeps readers unblocked during commits and survives process kills; with
``NORMAL``, a commit is durable against the process dying (the resume
guarantee) though the very last commits may roll back if the *host*
dies — the same trade the JSONL backend's per-record flush makes.

Batched commits: ``commit_batch > 1`` buffers puts in the shared write
buffer (:class:`repro.store.base._CommitBuffer`, which also owns the
idle timer and the counters) and commits up to that many rows in one
transaction (``executemany`` + one ``COMMIT``), which is the difference
between one fsync per scenario and one per batch on write-heavy
campaigns.  ``INSERT OR REPLACE`` applied in submission order keeps a
re-put fingerprint last-write-wins inside a batch.  The durability point
moves by **at most one batch**: a SIGKILL loses only the buffered tail,
and a resumed campaign re-runs exactly those scenarios (pinned by
``tests/store/test_bulk_io.py``).  Every read commits the buffer first,
so the store never hides rows from itself.

The schema version is stored per row: rows written under an older
schema are invisible to lookups (their fingerprints would not match
anyway — the version is hashed into the fingerprint) but are kept on
disk for forensics and pruning.  An index on ``(schema_version,
fingerprint)`` serves the bulk lookups: ``fingerprints()`` reads only
the key, so it is an index-only scan (``COVERING INDEX``), while
``get_many`` searches the index and then reads each hit's ``outcome``
column from its table row.  A table written before schema 4 has no
``spec`` column; opening it adds one (``NULL`` on the old rows, which
no read sees), so an old store opens, misses, takes new puts and
compacts like any other.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple, Union

from repro.campaign.codec import (outcome_from_row, outcome_to_row,
                                  spec_from_dict, spec_to_dict)
from repro.campaign.spec import ScenarioOutcome, ScenarioSpec
from repro.exceptions import ConfigurationError
from repro.store.base import ResultStore, _CommitBuffer
from repro.store.fingerprint import SCHEMA_VERSION, fingerprint_spec

__all__ = ["SqliteResultStore"]

#: SQLite limits the number of bound variables; stay well under it.
_IN_BATCH = 500

_INSERT = (
    "INSERT OR REPLACE INTO results (fingerprint, schema_version, spec, outcome) "
    "VALUES (?, ?, ?, ?)"
)


class SqliteResultStore(ResultStore):
    """SQLite-backed store (one file, indexed lookups, batched commits).

    ``commit_batch=1`` (the default) keeps the historical per-put commit
    — every outcome durable before ``put`` returns.  Larger values
    buffer writes as described in the module docstring.  Safe for
    concurrent use from multiple threads of one process; see the module
    docstring for the thread-safety and WAL guarantees.
    """

    def __init__(self, path: Union[str, Path], *, commit_batch: int = 1):
        self._path = Path(path)
        self._lock = threading.RLock()
        self._writes = _CommitBuffer(self._path, self._lock, self._commit,
                                     commit_batch)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._conn: Optional[sqlite3.Connection] = None
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
                "  outcome TEXT NOT NULL,"
                "  spec TEXT"
                ")"
            )
            if "spec" not in {column for _, column, *_ in
                              conn.execute("PRAGMA table_info(results)")}:
                # A table from before schema 4: the column goes last, as
                # in a new table, and stays NULL on the dead old rows.
                conn.execute("ALTER TABLE results ADD COLUMN spec TEXT")
            # The bulk lookups filter on schema_version and fingerprint.
            # fingerprints() reads only the key, so this index covers it
            # without touching the table rows; get_many searches it and
            # then reads each hit's outcome column from its row.
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

    def _commit(self, rows: List[Tuple[str, int, str, str]]) -> None:
        """One transaction for ``rows`` (the buffer holds the lock).

        A failure rolls the open transaction back before it propagates:
        the buffer keeps the rows pending, and the next commit writes
        them whole.
        """
        conn = self._connection()
        try:
            conn.executemany(_INSERT, rows)
            conn.commit()
        except BaseException:
            conn.rollback()
            raise

    def flush(self) -> None:
        """Commit any buffered rows now (the explicit durability point)."""
        self._writes.flush()

    def io_stats(self) -> Dict[str, int]:
        return self._writes.io_stats()

    # -- ResultStore -------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[ScenarioOutcome]:
        with self._lock:
            self._writes.drain()
            row = self._connection().execute(
                "SELECT spec, outcome FROM results "
                "WHERE fingerprint = ? AND schema_version = ?",
                (fingerprint, SCHEMA_VERSION),
            ).fetchone()
        if row is None:
            return None
        return _decode(*row)

    def get_many(self, specs: Iterable[ScenarioSpec]) -> Dict[str, ScenarioOutcome]:
        by_digest = {fingerprint_spec(spec): spec for spec in specs}
        digests = list(by_digest)
        hits: Dict[str, ScenarioOutcome] = {}
        self._writes.drain()
        for start in range(0, len(digests), _IN_BATCH):
            batch = digests[start:start + _IN_BATCH]
            placeholders = ",".join("?" for _ in batch)
            with self._lock:
                rows = self._connection().execute(
                    f"SELECT fingerprint, outcome FROM results "
                    f"WHERE schema_version = ? AND fingerprint IN ({placeholders})",
                    [SCHEMA_VERSION, *batch],
                ).fetchall()
            # One json.loads for the whole batch of outcome arrays.  A
            # column holding more than one JSON value would shift every
            # later row onto the wrong fingerprint, so the count must match.
            decoded = json.loads("[" + ",".join(row[1] for row in rows) + "]")
            if len(decoded) != len(rows):
                raise ConfigurationError(
                    f"corrupt result store {self._path}: an outcome column "
                    "holds more than one JSON value")
            for (digest, _), row in zip(rows, decoded):
                hits[digest] = outcome_from_row(by_digest[digest], row)
        return hits

    def put(self, fingerprint: str, outcome: ScenarioOutcome) -> None:
        self._writes.add((
            fingerprint, SCHEMA_VERSION,
            json.dumps(spec_to_dict(outcome.spec), sort_keys=True),
            json.dumps(outcome_to_row(outcome), sort_keys=True),
        ))

    def fingerprints(self) -> FrozenSet[str]:
        with self._lock:
            self._writes.drain()
            rows = self._connection().execute(
                "SELECT fingerprint FROM results WHERE schema_version = ?",
                (SCHEMA_VERSION,),
            ).fetchall()
        return frozenset(row[0] for row in rows)

    def items(self) -> Iterator[Tuple[str, ScenarioOutcome]]:
        with self._lock:
            self._writes.drain()
            rows = self._connection().execute(
                "SELECT fingerprint, spec, outcome FROM results "
                "WHERE schema_version = ? ORDER BY fingerprint",
                (SCHEMA_VERSION,),
            ).fetchall()
        for digest, spec, payload in rows:
            yield digest, _decode(spec, payload)

    def close(self) -> None:
        with self._lock:
            self._writes.close()
            if self._conn is not None:
                self._conn.close()
                self._conn = None


def _decode(spec: str, payload: str) -> ScenarioOutcome:
    """A whole outcome from a row's ``spec`` and ``outcome`` columns."""
    return outcome_from_row(spec_from_dict(json.loads(spec)), json.loads(payload))
