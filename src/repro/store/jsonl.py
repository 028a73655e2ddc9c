"""Append-only JSONL result store.

One JSON object per line: ``{"fp": <digest>, "v": <schema>, "spec":
{...}, "outcome": [...]}``, where ``outcome`` is the spec-free array of
:func:`~repro.campaign.codec.outcome_to_row` and ``spec`` the
:func:`~repro.campaign.codec.spec_to_dict` encoding.  The format is
deliberately boring — portable, diffable, mergeable with ``cat`` — and
append-only, so a commit is a single ``write + flush`` of one or more
lines and a campaign killed mid-run loses at most the lines that write
carried.  Batching, the idle flush and the counters are the shared
write buffer's (:class:`repro.store.base._CommitBuffer`); this module
supplies the commit, the row codec and the in-memory index that serves
every read.

Opening the store reads it through :mod:`repro.jsonlog`, one line at a
time straight from the file, and indexes each row as it is read, so
the open holds the index and no copy of the file, list of its lines or
superseded row: a **torn final line** (the campaign was killed
mid-append) is truncated away, so the next append starts on a clean
line; corruption *before* the final line raises, because silently
dropping stored evidence would make a resumed campaign recompute it —
or a half-loaded index could shadow a later duplicate record.  Rows
from **other schema versions** are skipped but kept on disk: their
fingerprints hash the version in, so no lookup can match them.
``FORMATS.md`` lists the row's fields and the byte-level fixtures that
pin each case.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, FrozenSet, List, Optional, Tuple, Union

from repro import jsonlog
from repro.campaign.codec import (outcome_from_row, outcome_to_row,
                                  spec_from_dict, spec_to_dict)
from repro.campaign.spec import ScenarioOutcome
from repro.exceptions import ConfigurationError
from repro.store.base import ResultStore, _CommitBuffer
from repro.store.fingerprint import SCHEMA_VERSION

__all__ = ["JsonlResultStore"]


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
    return digest, outcome_from_row(spec_from_dict(record["spec"]),
                                    record["outcome"])


class JsonlResultStore(ResultStore):
    """Append-only JSONL backend (the portable default).

    ``commit_batch=1`` (the default) appends and flushes per record —
    the historical behaviour.  Larger values buffer encoded lines and
    append them as **one** ``write`` of the joined block per batch; a
    kill mid-write then leaves complete lines plus at most one torn
    final line, which is *exactly* the artefact the open-time
    classification above already recognises and truncates — the
    byte-level torn-tail guarantees hold unchanged, only the durability
    point moves by at most one batch (bounded in wall time by the idle
    flush).  Reads are always served from the in-memory index, so
    buffering never affects read-your-writes.  The index holds whole
    outcomes, decoded once at open, so ``get_many`` is a dict lookup
    per spec.
    """

    def __init__(self, path: Union[str, Path], *, commit_batch: int = 1):
        self._path = Path(path)
        self._lock = threading.RLock()
        self._writes = _CommitBuffer(self._path, self._lock, self._commit,
                                     commit_batch)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._index: Dict[str, ScenarioOutcome] = {}
        jsonlog.heal(self._path, self._index_row,
                     f"corrupt result store {self._path}: unreadable record")
        self._file = self._path.open("a", encoding="utf-8")

    @property
    def path(self) -> Path:
        return self._path

    def _index_row(self, record: Any) -> None:
        """The open's ``accept``: index each row as it is read.  A later
        row of a fingerprint replaces the earlier one at once, so the
        open holds the index and no superseded outcome."""
        row = read_row(record)
        if row is not None:
            self._index[row[0]] = row[1]

    def _commit(self, lines: List[str]) -> None:
        """One appended write for ``lines`` (the buffer holds the lock).

        A single ``write`` of the joined block is the whole trick: the
        kernel appends it contiguously, so an interrupting kill leaves a
        clean-line prefix plus at most one torn tail — the same artefact
        a torn single-record append leaves.
        """
        self._file.write("".join(lines))
        # Flushed to the OS per commit: durable against the process being
        # killed (the resume guarantee), not against the host dying.
        self._file.flush()

    def flush(self) -> None:
        """Append any buffered records now (the explicit durability point)."""
        self._writes.flush()

    def io_stats(self) -> Dict[str, int]:
        return self._writes.io_stats()

    # -- ResultStore -------------------------------------------------------

    def get(self, fingerprint: str) -> Optional[ScenarioOutcome]:
        return self._index.get(fingerprint)

    def put(self, fingerprint: str, outcome: ScenarioOutcome) -> None:
        record = {"fp": fingerprint, "v": SCHEMA_VERSION,
                  "spec": spec_to_dict(outcome.spec),
                  "outcome": outcome_to_row(outcome)}
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            self._writes.check_open()
            # Indexed first: a failed commit leaves the row pending, and
            # the index serves pending rows.
            self._index[fingerprint] = outcome
            self._writes.add(line)

    def fingerprints(self) -> FrozenSet[str]:
        return frozenset(self._index)

    def close(self) -> None:
        with self._lock:
            self._writes.close()
            self._file.close()
