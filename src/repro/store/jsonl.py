"""Append-only JSONL result store.

One JSON object per line: ``{"fp": <digest>, "v": <schema>, "outcome":
{...}}``.  The format is deliberately boring — portable, diffable,
mergeable with ``cat`` — and append-only, so a ``put`` is a single
``write + flush`` and a campaign killed mid-run loses at most the line
it was writing.

Opening the store reads it through :mod:`repro.jsonlog`: a **torn
final line** (the campaign was killed mid-append) is truncated away, so
the next append starts on a clean line; corruption *before* the final
line raises, because silently dropping stored evidence would make a
resumed campaign recompute it — or a half-loaded index could shadow a
later duplicate record.  Rows from **other schema versions** are
skipped but kept on disk: their fingerprints hash the version in, so no
lookup can match them.  ``FORMATS.md`` lists the row's fields and the
byte-level fixtures that pin each case.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Tuple, Union

from repro import jsonlog
from repro.campaign.codec import outcome_from_dict, outcome_to_dict
from repro.campaign.spec import ScenarioOutcome
from repro.exceptions import ConfigurationError
from repro.store.base import Fingerprintish, ResultStore, _digest
from repro.store.fingerprint import SCHEMA_VERSION

__all__ = ["JsonlResultStore"]

#: See :data:`repro.store.sqlite._IDLE_FLUSH_SECONDS` — same contract.
_IDLE_FLUSH_SECONDS = 0.5


def read_row(record: Any) -> Optional[Tuple[str, ScenarioOutcome]]:
    """One decoded store row as ``(fingerprint, outcome)``.

    The :mod:`repro.jsonlog` ``accept`` of the store and of compaction:
    rows of other schema versions read as ``None`` before anything else
    is checked; a current-version row must decode whole.
    """
    if not isinstance(record, dict):
        raise ConfigurationError(f"record is not an object: {record!r}")
    if record.get("v") != SCHEMA_VERSION:
        return None
    digest = record["fp"]
    if not isinstance(digest, str) or not digest:
        # A record of the right version with a broken key is
        # corruption, not a schema mismatch.
        raise ConfigurationError(
            f"record has a non-string fingerprint: {digest!r}")
    return digest, outcome_from_dict(record["outcome"])


class JsonlResultStore(ResultStore):
    """Append-only JSONL backend (the portable default).

    ``commit_batch=1`` (the default) appends and flushes per record —
    the historical behaviour.  Larger values buffer encoded lines and
    append them as **one** ``write`` of the joined block per batch; a
    kill mid-write then leaves complete lines plus at most one torn
    final line, which is *exactly* the artefact the open-time
    classification above already recognises and truncates — the
    byte-level torn-tail guarantees hold unchanged, only the durability
    point moves by at most one batch (bounded in wall time by an idle
    flush timer).  Reads are always served from the in-memory index, so
    buffering never affects read-your-writes.
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
        self._commit_batch = commit_batch
        self._idle_flush_seconds = idle_flush_seconds
        self._pending: List[str] = []
        self._idle_timer: Optional[threading.Timer] = None
        self._io = {"puts": 0, "commits": 0, "committed_rows": 0,
                    "max_commit_batch": 0, "flushes": 0}
        self._index: Dict[str, ScenarioOutcome] = dict(jsonlog.heal(
            self._path, read_row,
            f"corrupt result store {self._path}: unreadable record"))
        self._file = self._path.open("a", encoding="utf-8")

    @property
    def path(self) -> Path:
        return self._path

    # -- write buffering ---------------------------------------------------

    def _commit_lines(self, lines: List[str]) -> None:
        """One appended write for ``lines`` (caller holds the lock).

        A single ``write`` of the joined block is the whole trick: the
        kernel appends it contiguously, so an interrupting kill leaves a
        clean-line prefix plus at most one torn tail — the same artefact
        a torn single-record append leaves.
        """
        if not lines:
            return
        self._file.write("".join(lines))
        # Flushed to the OS per commit: durable against the process being
        # killed (the resume guarantee), not against the host dying.
        self._file.flush()
        self._io["commits"] += 1
        self._io["committed_rows"] += len(lines)
        self._io["max_commit_batch"] = max(
            self._io["max_commit_batch"], len(lines))

    def _drain_pending_locked(self) -> None:
        if self._idle_timer is not None:
            self._idle_timer.cancel()
            self._idle_timer = None
        if not self._pending:
            return
        lines, self._pending = self._pending, []
        self._commit_lines(lines)

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
            if self._file.closed:
                return
            if self._pending:
                self._io["flushes"] += 1
                self._drain_pending_locked()

    def flush(self) -> None:
        """Append any buffered records now (the explicit durability point)."""
        with self._lock:
            if self._file.closed:
                return
            if self._pending:
                self._io["flushes"] += 1
            self._drain_pending_locked()

    def io_stats(self) -> Dict[str, int]:
        with self._lock:
            return {**self._io, "buffered": len(self._pending),
                    "commit_batch": self._commit_batch}

    # -- ResultStore -------------------------------------------------------

    def get(self, fingerprint: Fingerprintish) -> Optional[ScenarioOutcome]:
        return self._index.get(_digest(fingerprint))

    def put(self, fingerprint: Fingerprintish, outcome: ScenarioOutcome) -> None:
        digest = _digest(fingerprint)
        record = {"fp": digest, "v": SCHEMA_VERSION, "outcome": outcome_to_dict(outcome)}
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            self._io["puts"] += 1
            if self._commit_batch == 1:
                self._commit_lines([line])
            else:
                self._pending.append(line)
                if len(self._pending) >= self._commit_batch:
                    self._drain_pending_locked()
                else:
                    self._arm_idle_timer_locked()
            self._index[digest] = outcome

    def fingerprints(self) -> FrozenSet[str]:
        return frozenset(self._index)

    def close(self) -> None:
        with self._lock:
            if self._idle_timer is not None:
                self._idle_timer.cancel()
                self._idle_timer = None
            if not self._file.closed:
                self._drain_pending_locked()
                self._file.close()
