"""The result-store interface, the shared write buffer and the backend factory.

A :class:`ResultStore` maps scenario fingerprints — the digest strings
:func:`~repro.store.fingerprint.fingerprint_spec` returns — to the
:class:`~repro.campaign.spec.ScenarioOutcome` the scenario produced.
Stores are written to incrementally — one ``put`` per completed scenario,
durable immediately — so that a killed campaign leaves behind every
outcome it finished, and a rerun against the same store replays them as
cache hits instead of recomputing.

Two persistent backends ship (:class:`~repro.store.jsonl.JsonlResultStore`
for portability and append-only simplicity,
:class:`~repro.store.sqlite.SqliteResultStore` for large grids with
indexed lookups) plus an in-memory backend for tests and ephemeral
campaigns; :func:`open_store` picks one from a path.  Both persistent
backends write through one :class:`_CommitBuffer`, which owns the
``commit_batch`` policy — pending rows, idle timer, write counters,
``flush`` and the drain on close — so a backend supplies only its
``commit(rows)`` and its reads.  A commit that fails loses nothing: its
rows stay pending for the next commit, and the error reaches the caller
that triggered it.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from pathlib import Path
from typing import (Any, Callable, Dict, FrozenSet, Iterable, Iterator, List,
                    Optional, Tuple, Union)

from repro.campaign.spec import ScenarioOutcome, ScenarioSpec
from repro.exceptions import ConfigurationError
from repro.store.fingerprint import fingerprint_spec
from repro.telemetry.logs import get_logger

__all__ = ["ResultStore", "backend_for", "open_store"]

_log = get_logger("store")

#: How long a partially filled commit buffer may sit before it is
#: committed anyway.  Bounds the durability window in wall time the way
#: ``commit_batch`` bounds it in rows.
_IDLE_FLUSH_SECONDS = 0.5


class ResultStore(ABC):
    """Persistent mapping ``fingerprint -> ScenarioOutcome``.

    Implementations must make each :meth:`put` durable before returning
    (that is the resume guarantee) and must return outcomes that compare
    equal to the originally stored ones — cached campaign results are
    asserted *equal* to cold runs, not merely similar.
    """

    # -- required ----------------------------------------------------------

    @abstractmethod
    def get(self, fingerprint: str) -> Optional[ScenarioOutcome]:
        """The stored outcome for this fingerprint, or ``None``."""

    @abstractmethod
    def put(self, fingerprint: str, outcome: ScenarioOutcome) -> None:
        """Store an outcome durably (last write wins on re-put)."""

    @abstractmethod
    def fingerprints(self) -> FrozenSet[str]:
        """All fingerprints with a stored outcome (current schema only)."""

    @abstractmethod
    def close(self) -> None:
        """Release the backing resource.

        ``close`` is **idempotent** — closing twice is a no-op, which is
        what lets stores be used both as context managers and with an
        explicit ``close()`` in ``finally`` blocks.  A ``put`` on a
        closed persistent store raises ``ConfigurationError``; other
        reads and writes after close are undefined (backends may raise).
        """

    # -- conveniences ------------------------------------------------------

    def get_many(self, specs: Iterable[ScenarioSpec]) -> Dict[str, ScenarioOutcome]:
        """Bulk lookup by spec: ``{fingerprint: outcome}`` for the hits only.

        The caller holds the specs it asks for, so a backend that reads
        spec-free rows (:func:`~repro.campaign.codec.outcome_from_row`)
        attaches the caller's spec to each outcome and never decodes its
        own copy.  Duplicate specs yield one entry.
        """
        hits: Dict[str, ScenarioOutcome] = {}
        for spec in specs:
            digest = fingerprint_spec(spec)
            if digest in hits:
                continue
            outcome = self.get(digest)
            if outcome is not None:
                hits[digest] = outcome
        return hits

    def items(self) -> Iterator[Tuple[str, ScenarioOutcome]]:
        """Every ``(fingerprint, outcome)`` pair, sorted by fingerprint.

        The provenance query layer (:mod:`repro.provenance.queries`)
        aggregates over this; backends may override with a streaming
        implementation.
        """
        for digest in sorted(self.fingerprints()):
            outcome = self.get(digest)
            if outcome is not None:
                yield digest, outcome

    def flush(self) -> None:
        """Make every buffered write durable now.

        The default is a no-op because the base contract already makes
        each :meth:`put` durable before returning.  Backends opened with
        a ``commit_batch > 1`` buffer writes and *relax* that contract to
        "durable within one batch, one flush or one idle period,
        whichever comes first"; for them this is the durability point.
        Such a backend never hides rows from itself: SQLite commits the
        buffer before every read, JSONL serves its in-memory index.  A
        commit that fails raises here and keeps its rows buffered.
        """

    def io_stats(self) -> Dict[str, int]:
        """Write-path accounting: puts, flushes, rows per commit.

        Base stores commit per put, so the default reports nothing; the
        persistent backends report their :class:`_CommitBuffer`'s
        counters (``puts``, ``commits``, ``committed_rows``,
        ``max_commit_batch``, ``flushes``, ``buffered``,
        ``commit_batch``).  Numbers feed the telemetry layer's
        ``dispatch:store_*`` counters; they never affect stored data.
        """
        return {}

    def __contains__(self, fingerprint: object) -> bool:
        if not isinstance(fingerprint, str):
            return False
        return self.get(fingerprint) is not None

    def __len__(self) -> int:
        return len(self.fingerprints())

    def __enter__(self) -> "ResultStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _CommitBuffer:
    """The write path of a persistent store: ``commit_batch`` rows per commit.

    :meth:`add` queues one encoded row; once ``commit_batch`` rows are
    pending, the whole batch goes to the backend's ``commit(rows)`` —
    one appended write, or one transaction — in submission order, so a
    fingerprint written twice keeps its last write.  A partial batch is
    committed by :meth:`flush`, by :meth:`close`, or by an idle timer
    :data:`_IDLE_FLUSH_SECONDS` after its first row, whichever comes
    first.  At ``commit_batch=1`` every row is committed before
    :meth:`add` returns.

    Rows leave the buffer only when ``commit`` returns: a commit that
    raises keeps them pending, in order, and re-raises to the ``put``,
    ``flush``, ``close`` or SQLite read that asked for it.  The idle
    timer has no caller, so it logs the failure instead.  ``puts ==
    committed_rows + buffered`` holds at all times.

    Everything runs under the *store's* lock, never a second one: a
    commit shares the store's file or connection with its reads, and
    with two locks a reader (store, then buffer) and the timer (buffer,
    then store) would deadlock.  The timer calls this object's
    :meth:`flush`, never the store's public methods, which a tracer may
    have wrapped for the calling thread alone.
    """

    def __init__(self, path: Path, lock: threading.RLock,
                 commit: Callable[[List[Any]], None], commit_batch: int):
        if commit_batch < 1:
            raise ConfigurationError(
                f"commit_batch must be >= 1, got {commit_batch}")
        self._path = path
        self._lock = lock
        self._commit = commit
        self._commit_batch = commit_batch
        self._rows: List[Any] = []
        self._timer: Optional[threading.Timer] = None
        self._closed = False
        self._io = {"puts": 0, "commits": 0, "committed_rows": 0,
                    "max_commit_batch": 0, "flushes": 0}

    def check_open(self) -> None:
        """Raise ``ConfigurationError`` once the store is closed."""
        if self._closed:
            raise ConfigurationError(f"result store {self._path} is closed")

    def add(self, row: Any) -> None:
        """Queue one row; commit the batch once it is full."""
        with self._lock:
            self.check_open()
            self._io["puts"] += 1
            self._rows.append(row)
            if len(self._rows) >= self._commit_batch:
                self.drain()
            elif self._timer is None:
                self._timer = threading.Timer(_IDLE_FLUSH_SECONDS, self._idle_flush)
                self._timer.daemon = True
                self._timer.start()

    def drain(self) -> None:
        """Commit every pending row now (SQLite's reads call this first)."""
        with self._lock:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            rows = self._rows
            if not rows:
                return
            self._commit(rows)
            self._rows = []
            self._io["commits"] += 1
            self._io["committed_rows"] += len(rows)
            self._io["max_commit_batch"] = max(
                self._io["max_commit_batch"], len(rows))

    def flush(self) -> None:
        """:meth:`drain`, counted as a flush when it committed rows."""
        with self._lock:
            pending = bool(self._rows)
            self.drain()
            if pending:
                self._io["flushes"] += 1

    def _idle_flush(self) -> None:
        try:
            self.flush()
        except Exception:  # noqa: BLE001 - a timer has no caller to raise to
            _log.warning("idle commit of result store %s failed; its rows "
                         "stay pending for the next commit", self._path,
                         exc_info=True)

    def close(self) -> None:
        """Drain, then refuse every later row (idempotent)."""
        with self._lock:
            self.drain()
            self._closed = True

    def io_stats(self) -> Dict[str, int]:
        with self._lock:
            return {**self._io, "buffered": len(self._rows),
                    "commit_batch": self._commit_batch}


def backend_for(path: Union[str, Path]) -> str:
    """The backend a store path names: ``"memory"``, ``"sqlite"`` or ``"jsonl"``.

    ``":memory:"`` is the in-memory store, a ``.sqlite`` / ``.sqlite3`` /
    ``.db`` suffix is SQLite, and anything else is the append-only JSONL
    backend.  :func:`open_store` and :mod:`repro.store.compact` both
    dispatch on it.
    """
    text = str(path)
    if text == ":memory:":
        return "memory"
    if text.endswith((".sqlite", ".sqlite3", ".db")):
        return "sqlite"
    return "jsonl"


def open_store(path: Union[str, Path], *, commit_batch: int = 1) -> ResultStore:
    """Open a result store, picking the backend with :func:`backend_for`.

    The file (and its parent directory) is created on first use.

    ``commit_batch`` > 1 turns on buffered writes for the persistent
    backends: up to that many outcomes are committed in one transaction
    (SQLite) or one appended write (JSONL), trading the per-put fsync
    for bulk throughput while moving the durability point by at most one
    batch (an idle timer and every SQLite read commit early).  The
    in-memory backend ignores it.
    """
    from repro.store.jsonl import JsonlResultStore
    from repro.store.memory import MemoryResultStore
    from repro.store.sqlite import SqliteResultStore

    backend = backend_for(path)
    if backend == "memory":
        return MemoryResultStore()
    if backend == "sqlite":
        return SqliteResultStore(path, commit_batch=commit_batch)
    return JsonlResultStore(path, commit_batch=commit_batch)
