"""The append-only JSONL log: classified read, heal and atomic rewrite.

Every log kept on disk — the JSONL result store, the campaign journal,
the Chrome trace and the metrics dump — is appended in whole lines, one
flushed ``write`` at a time, so a SIGKILL tears at most the final line.
This module is the one place that tells such a kill artefact from real
damage (``FORMATS.md`` gives each format's rules):

* blank lines are skipped;
* an unreadable final line with no newline after it is a **torn
  tail**, a kill artefact: dropped on read, cut away by :func:`heal`;
* any other unreadable line raises
  :class:`~repro.exceptions.ConfigurationError` — a line written whole,
  newline included, cannot come from a torn append.

The caller's ``accept(record)`` decides what "unreadable" means: it
applies the format's shape checks and version filter, in the format's
own order, and returns the value to keep, ``None`` to skip the record,
or raises ``ValueError``, ``KeyError``, ``TypeError`` or
``ConfigurationError``.  Only the standard library and
:mod:`repro.exceptions` are imported, so every layer may use it.

One classifier, :class:`_Scan`, sits behind every entry point.  It
takes the log one line at a time, split at ``b"\\n"`` only, and holds
nothing but the values ``accept`` keeps.  :func:`heal` and
:func:`read_file` stream the file from disk, so memory does not grow
with a log's history: a writer's open with an ``accept`` that keeps
nothing validates every line and holds one line at a time, and a
reader holds only the records it returns.  :func:`read` classifies
bytes a caller already holds (compaction, the trace reader).
"""

from __future__ import annotations

import io
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, List, Tuple

from repro.exceptions import ConfigurationError

__all__ = ["heal", "loads", "read", "read_file", "rewrite"]

_UNREADABLE = (ValueError, KeyError, TypeError, ConfigurationError)


def loads(line: bytes) -> Any:
    """Decode one stripped UTF-8 line (the default ``decode``)."""
    return json.loads(line.decode("utf-8"))


class _Scan:
    """One pass of the line classifier over ``lines``.

    ``lines`` yields the log's lines one at a time, split at ``b"\\n"``
    only, each with its newline (a binary file or :class:`io.BytesIO`;
    only the final line can lack one).  ``line_number`` and ``offset``
    place the first of them in the file.  Iterating yields ``accept``'s
    kept values in file order and holds nothing else.  Once it is
    exhausted, ``good_until`` is the offset just past the last good
    line, ``torn`` says whether a torn tail followed it, and
    ``unterminated`` whether that last good line lacks its newline.
    """

    def __init__(self, lines: Iterable[bytes], accept: Callable[[Any], Any],
                 corrupt: str, decode: Callable[[bytes], Any] = loads, *,
                 line_number: int = 1, offset: int = 0):
        self._lines = lines
        self._accept = accept
        self._corrupt = corrupt
        self._decode = decode
        self._line_number = line_number
        self.good_until = offset
        self.torn = False
        self.unterminated = False

    def __iter__(self) -> Iterator[Any]:
        accept, decode = self._accept, self._decode
        good_until, raw_line = self.good_until, b"\n"
        for line_number, raw_line in enumerate(self._lines,
                                               self._line_number):
            stripped = raw_line.strip()
            if stripped:
                try:
                    record = accept(decode(stripped))
                except _UNREADABLE as exc:
                    if raw_line.endswith(b"\n"):
                        # Written whole: real corruption, not a torn append.
                        raise ConfigurationError(
                            f"{self._corrupt} on line {line_number} ({exc})"
                        ) from exc
                    self.torn = True  # the torn tail: dropped
                    break
                if record is not None:
                    yield record
            good_until += len(raw_line)
        else:
            self.unterminated = not raw_line.endswith(b"\n")
        self.good_until = good_until


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
    lines = io.BytesIO(data)  # shares ``data``'s buffer; no copy
    lines.seek(start)
    scan = _Scan(lines, accept, corrupt, decode,
                 line_number=data.count(b"\n", 0, start) + 1, offset=start)
    return list(scan), scan.good_until


def read_file(path: Path, accept: Callable[[Any], Any],
              corrupt: str) -> Tuple[Any, ...]:
    """:func:`read` the file at ``path`` from disk, one line at a time.

    Returns ``accept``'s kept values and holds nothing else: neither the
    file's bytes nor its lines.  The file is only read, never healed.
    """
    with open(path, "rb") as lines:
        return tuple(_Scan(lines, accept, corrupt))


def heal(path: Path, accept: Callable[[Any], Any], corrupt: str) -> List[Any]:
    """Classify ``path`` (absent: no records) from disk, one line at a
    time, and cut it back to its last good line so the next append
    starts on a clean line.

    Returns ``accept``'s kept values; an ``accept`` that returns
    ``None`` validates every line and keeps nothing.  A torn tail is
    truncated away; a last good line without its newline gets one
    appended.  The good prefix is never rewritten, so a kill during
    either step leaves every good record readable.
    """
    if not path.exists():
        return []
    with open(path, "rb") as lines:
        scan = _Scan(lines, accept, corrupt)
        records = list(scan)
    if scan.torn:
        os.truncate(path, scan.good_until)
    elif scan.unterminated:
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
