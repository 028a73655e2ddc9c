"""The append-only JSONL log: classified read, heal and atomic rewrite.

Every log kept on disk — the JSONL result store, the campaign journal,
the Chrome trace and the metrics dump — is appended in whole lines, one
flushed ``write`` at a time, so a SIGKILL tears at most the final line.
This module is the one place that tells such a kill artefact from real
damage (``FORMATS.md`` gives each format's rules):

* blank lines are skipped;
* an unreadable final line with no data after it is a **torn tail**, a
  kill artefact: dropped on read, cut away by :func:`heal`;
* any other unreadable line raises
  :class:`~repro.exceptions.ConfigurationError` — a line written whole,
  newline included, cannot come from a torn append.

The caller's ``accept(record)`` decides what "unreadable" means: it
applies the format's shape checks and version filter, in the format's
own order, and returns the value to keep, ``None`` to skip the record,
or raises ``ValueError``, ``KeyError``, ``TypeError`` or
``ConfigurationError``.  Only the standard library and
:mod:`repro.exceptions` are imported, so every layer may use it.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, List, Tuple

from repro.exceptions import ConfigurationError

__all__ = ["heal", "loads", "read", "rewrite"]

_UNREADABLE = (ValueError, KeyError, TypeError, ConfigurationError)


def loads(line: bytes) -> Any:
    """Decode one stripped UTF-8 line (the default ``decode``)."""
    return json.loads(line.decode("utf-8"))


def read(
    data: bytes,
    accept: Callable[[Any], Any],
    corrupt: str,
    *,
    decode: Callable[[bytes], Any] = loads,
    start: int = 0,
) -> Tuple[List[Any], int]:
    """Classify the lines of ``data`` from byte offset ``start``.

    Returns ``accept``'s values for the kept lines, in file order, and
    the offset just past the last good line.  ``corrupt`` starts the
    error for an unreadable line that is not the torn tail (``"corrupt
    campaign journal <path>: unreadable record"``); the line number and
    the cause are appended.  ``decode`` turns a stripped line into what
    ``accept`` sees.
    """
    records: List[Any] = []
    good_until = start
    first_line = data.count(b"\n", 0, start) + 1
    for line_number, raw_line in enumerate(
            data[start:].split(b"\n"), start=first_line):
        stripped = raw_line.strip()
        if stripped:
            try:
                record = accept(decode(stripped))
            except _UNREADABLE as exc:
                if good_until + len(raw_line) + 1 <= len(data):
                    # More data follows: real corruption, not a torn append.
                    raise ConfigurationError(
                        f"{corrupt} on line {line_number} ({exc})"
                    ) from exc
                break  # the torn tail: dropped
            if record is not None:
                records.append(record)
        good_until += len(raw_line) + 1  # the split-away "\n"
    return records, min(good_until, len(data))


def heal(path: Path, accept: Callable[[Any], Any], corrupt: str) -> List[Any]:
    """:func:`read` ``path`` (absent: no records), cut back to its last
    good line so the next append starts on a clean line.

    A torn tail is truncated away; a last good line without its newline
    gets one appended.  The good prefix is never rewritten, so a kill
    during either step leaves every good record readable.
    """
    if not path.exists():
        return []
    data = path.read_bytes()
    records, good_until = read(data, accept, corrupt)
    if good_until < len(data):
        os.truncate(path, good_until)
    elif data and not data.endswith(b"\n"):
        with open(path, "ab") as handle:
            handle.write(b"\n")
    return records


def rewrite(path: Path, data: bytes) -> None:
    """Replace ``path``'s bytes atomically: temp file, fsync,
    ``os.replace``.  A kill leaves the old bytes or the new ones."""
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name, suffix=".compact"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
