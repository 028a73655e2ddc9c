"""The append-only JSONL log: classified read, heal and atomic rewrite.

The JSONL result store, the campaign journal and the metrics dump are
appended in whole lines, one flushed ``write`` at a time, so a SIGKILL
tears at most the final line; the Chrome trace is written whole by
:func:`rewrite`.  This module is the one place that tells such a kill
artefact from real damage (``FORMATS.md`` gives each format's rules):

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
nothing but the values ``accept`` keeps.  Both entry points stream the
file from disk, so memory does not grow with a log's history: a
writer's open (:func:`heal`) with an ``accept`` that keeps nothing
validates every line and holds one line at a time, and a reader
(:func:`read`, on a file its caller opened) holds only the records it
returns.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, List, Tuple

from repro.exceptions import ConfigurationError

__all__ = ["heal", "loads", "read", "rewrite"]

_UNREADABLE = (ValueError, KeyError, TypeError, ConfigurationError)


def loads(line: bytes) -> Any:
    """Decode one stripped UTF-8 line (the default ``decode``)."""
    return json.loads(line.decode("utf-8"))


class _Scan:
    """One pass of the line classifier over the open binary file
    ``lines``, from where it stands to its end.

    The file yields the log's lines one at a time, split at ``b"\\n"``
    only, each with its newline (only the final line can lack one).
    ``line_number`` is the number of the first of them.  Iterating
    yields ``accept``'s kept values in file order and holds nothing
    else.  Once it is exhausted, ``good_until`` is the offset just past
    the last good line, ``torn`` says whether a torn tail followed it,
    and ``unterminated`` whether that last good line lacks its newline.
    """

    def __init__(self, lines: BinaryIO, accept: Callable[[Any], Any],
                 corrupt: str, decode: Callable[[bytes], Any] = loads, *,
                 line_number: int = 1):
        self._lines = lines
        self._accept = accept
        self._corrupt = corrupt
        self._decode = decode
        self._line_number = line_number
        self.good_until = lines.tell()
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
    lines: BinaryIO,
    accept: Callable[[Any], Any],
    corrupt: str,
    *,
    decode: Callable[[bytes], Any] = loads,
    line_number: int = 1,
) -> Tuple[List[Any], int]:
    """Classify the lines of the open binary file ``lines``, one at a
    time, from where it stands to its end; the file is only read, never
    healed.

    Returns ``accept``'s values for the kept lines, in file order, and
    the offset just past the last good line; it holds nothing else,
    neither the file's bytes nor its lines.  A caller that has read a
    header first passes the number of the next line.  ``corrupt`` starts
    the error for an unreadable line that is not the torn tail
    (``"corrupt campaign journal <path>: unreadable record"``); the line
    number and the cause are appended.  ``decode`` turns a stripped line
    into what ``accept`` sees.
    """
    scan = _Scan(lines, accept, corrupt, decode, line_number=line_number)
    return list(scan), scan.good_until


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


def rewrite(path: Path, chunks: Iterable[bytes]) -> None:
    """Replace ``path``'s bytes with ``chunks``, in order, atomically:
    temp file, fsync, ``os.replace``.  A kill leaves the old bytes or
    the new ones.  The chunks are written as they come, so the rewrite
    holds one at a time.

    The new file keeps the old one's permissions; a first write gets
    what a plain ``open`` gives (the temp file is opened that way, in a
    private temp directory, not by ``mkstemp``, which makes it 0600).
    """
    tmp_dir = tempfile.mkdtemp(
        dir=str(path.parent), prefix=path.name, suffix=".rewrite")
    tmp_name = os.path.join(tmp_dir, path.name)
    try:
        with open(tmp_name, "xb") as handle:
            handle.writelines(chunks)
            handle.flush()
            os.fsync(handle.fileno())
        if path.exists():
            shutil.copymode(path, tmp_name)
        os.replace(tmp_name, path)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)
