"""Offline store compaction: ``python -m repro.store.compact``.

Result stores accumulate weight that reads can never see again:

* rows written under an older :data:`repro.store.SCHEMA_VERSION` — their
  fingerprints hash the version in, so no current lookup can ever match
  them (readers already skip them; compaction is where they finally go);
* superseded JSONL duplicates — the append-only backend records every
  ``put``, so a re-run that overwrites a fingerprint leaves the stale
  line in place and only the in-memory index knows the last one wins;
* a torn final line left by a campaign killed mid-append (the store
  heals this lazily on the next open; compaction heals it eagerly).

Compaction applies the *same* classification the readers use — it keeps
exactly the rows a fresh :class:`~repro.store.jsonl.JsonlResultStore` /
:class:`~repro.store.sqlite.SqliteResultStore` would index, byte-for-byte
for JSONL (kept lines are copied, never re-encoded), and raises the same
:class:`~repro.exceptions.ConfigurationError` on mid-file corruption
instead of silently discarding stored evidence.  The JSONL rewrite is
atomic (:func:`repro.jsonlog.rewrite`), so a kill mid-compaction leaves
either the old file or the new one, never a mix.

``--dry-run`` reports what *would* happen without touching the file;
backends are picked from the path by :func:`repro.store.base.backend_for`,
the rule :func:`repro.store.base.open_store` uses.
"""

from __future__ import annotations

import argparse
import sqlite3
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro import jsonlog
from repro.exceptions import ConfigurationError
from repro.store.base import backend_for
from repro.store.fingerprint import SCHEMA_VERSION
from repro.store.jsonl import read_row

__all__ = ["CompactReport", "compact_jsonl", "compact_sqlite", "compact_store", "main"]


@dataclass(frozen=True)
class CompactReport:
    """What one compaction pass found (and, unless dry-run, did)."""

    path: str
    backend: str
    rows_kept: int
    rows_dropped_schema: int
    rows_deduped: int
    tail_bytes_healed: int
    bytes_before: int
    bytes_after: int
    dry_run: bool

    @property
    def changed(self) -> bool:
        return bool(
            self.rows_dropped_schema or self.rows_deduped or self.tail_bytes_healed
        )

    def as_dict(self) -> Dict[str, Any]:
        return {
            "path": self.path,
            "backend": self.backend,
            "rows_kept": self.rows_kept,
            "rows_dropped_schema": self.rows_dropped_schema,
            "rows_deduped": self.rows_deduped,
            "tail_bytes_healed": self.tail_bytes_healed,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
            "dry_run": self.dry_run,
        }

    def summary(self) -> str:
        verb = "would keep" if self.dry_run else "kept"
        parts = [f"{verb} {self.rows_kept} rows"]
        if self.rows_dropped_schema:
            parts.append(f"dropped {self.rows_dropped_schema} dead-schema")
        if self.rows_deduped:
            parts.append(f"deduped {self.rows_deduped}")
        if self.tail_bytes_healed:
            parts.append(f"healed {self.tail_bytes_healed}-byte torn tail")
        if not self.changed:
            parts.append("already compact")
        return (
            f"{self.path} [{self.backend}]: {', '.join(parts)} "
            f"({self.bytes_before} -> {self.bytes_after} bytes)"
        )


def _row_line(line: bytes) -> Tuple[Any, bytes]:
    """Decode one store line, keeping its bytes for a verbatim copy."""
    return jsonlog.loads(line), line


def compact_jsonl(path: Union[str, Path], *, dry_run: bool = False) -> CompactReport:
    """Compact one JSONL store file.

    Classification is ``JsonlResultStore``'s own (:func:`read_row`
    through :mod:`repro.jsonlog`): a torn final line (no data after it)
    is healed away, any other unreadable line raises, other-schema rows
    are dropped, and of duplicate current-schema rows the *last* wins
    (the semantics appends already have through the in-memory index).
    Kept lines are preserved byte-for-byte, in their original relative
    order.  The file is streamed: the pass holds the last line of each
    live fingerprint and nothing else, and never joins them.
    """
    path = Path(path)
    # Last line per live fingerprint, in the order of last occurrences:
    # a re-put pops its digest and re-inserts it at the end.
    last: Dict[str, bytes] = {}
    dropped_schema = deduped = 0

    def keep_last(decoded: Tuple[Any, bytes]) -> None:
        nonlocal dropped_schema, deduped
        record, line = decoded
        row = read_row(record)
        if row is None:
            dropped_schema += 1
            return
        if last.pop(row[0], None) is not None:
            deduped += 1
        last[row[0]] = line

    bytes_before = good_until = 0
    if path.exists():
        with open(path, "rb") as lines:
            _, good_until = jsonlog.read(
                lines, keep_last,
                f"corrupt result store {path}: unreadable record",
                decode=_row_line)
            # The bytes classified, not a size taken before the pass: a
            # store appended to meanwhile still reports consistently.
            bytes_before = lines.tell()
    tail_healed = bytes_before - good_until
    changed = bool(dropped_schema or deduped or tail_healed)
    report = CompactReport(
        path=str(path),
        backend="jsonl",
        rows_kept=len(last),
        rows_dropped_schema=dropped_schema,
        rows_deduped=deduped,
        tail_bytes_healed=tail_healed,
        bytes_before=bytes_before,
        bytes_after=(sum(len(line) + 1 for line in last.values())
                     if changed else bytes_before),
        dry_run=dry_run,
    )
    if not dry_run and changed:
        jsonlog.rewrite(path, (line + b"\n" for line in last.values()))
    return report


def compact_sqlite(path: Union[str, Path], *, dry_run: bool = False) -> CompactReport:
    """Compact one SQLite store: drop dead-schema rows, then ``VACUUM``.

    Duplicates cannot exist (fingerprint is the primary key), so the
    whole job is deleting rows whose ``schema_version`` no current
    lookup can match, and reclaiming their pages.
    """
    path = Path(path)
    bytes_before = path.stat().st_size if path.exists() else 0
    conn = sqlite3.connect(str(path))
    try:
        kept = conn.execute(
            "SELECT COUNT(*) FROM results WHERE schema_version = ?",
            (SCHEMA_VERSION,),
        ).fetchone()[0]
        dead = conn.execute(
            "SELECT COUNT(*) FROM results WHERE schema_version != ?",
            (SCHEMA_VERSION,),
        ).fetchone()[0]
        if not dry_run and dead:
            with conn:
                conn.execute(
                    "DELETE FROM results WHERE schema_version != ?",
                    (SCHEMA_VERSION,),
                )
            conn.execute("VACUUM")
            conn.execute("PRAGMA wal_checkpoint(TRUNCATE)")
    except sqlite3.DatabaseError as exc:
        raise ConfigurationError(f"cannot compact {path}: {exc}") from exc
    finally:
        conn.close()
    bytes_after = path.stat().st_size if path.exists() else 0
    return CompactReport(
        path=str(path),
        backend="sqlite",
        rows_kept=kept,
        rows_dropped_schema=dead,
        rows_deduped=0,
        tail_bytes_healed=0,
        bytes_before=bytes_before,
        bytes_after=bytes_after if not dry_run else bytes_before,
        dry_run=dry_run,
    )


def compact_store(path: Union[str, Path], *, dry_run: bool = False) -> CompactReport:
    """Compact one store, picking the backend from the path.

    :func:`~repro.store.base.backend_for` decides, as it does for
    :func:`~repro.store.base.open_store`: ``.sqlite`` / ``.sqlite3`` /
    ``.db`` is SQLite, anything else JSONL (``:memory:`` has nothing on
    disk to compact and is rejected).
    """
    backend = backend_for(path)
    if backend == "memory":
        raise ConfigurationError("the in-memory store has no file to compact")
    if not Path(path).exists():
        raise ConfigurationError(f"no such store: {path}")
    if backend == "sqlite":
        return compact_sqlite(path, dry_run=dry_run)
    return compact_jsonl(path, dry_run=dry_run)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store.compact",
        description=(
            "Compact result stores: drop rows from dead schema versions, "
            "dedupe superseded JSONL records, heal torn JSONL tails."
        ),
    )
    parser.add_argument("paths", nargs="+", metavar="STORE",
                        help="store files (.jsonl or .sqlite/.sqlite3/.db)")
    parser.add_argument("--dry-run", action="store_true",
                        help="report what would change without rewriting")
    args = parser.parse_args(argv)

    status = 0
    for path in args.paths:
        try:
            report = compact_store(path, dry_run=args.dry_run)
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            status = 1
            continue
        print(report.summary())
    return status


if __name__ == "__main__":
    sys.exit(main())
