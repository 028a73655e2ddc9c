"""Trace and metrics exporters: torn-tail-safe files tools can open.

Two formats, both written one flushed line at a time so a SIGKILL tears
at most the final line (the same discipline as the JSONL result store
and the campaign journal):

* **Chrome trace-event JSON** — :class:`ChromeTraceWriter` emits the
  trace-event array format that Perfetto and ``chrome://tracing`` load
  directly: a ``[`` header line, then one complete (``"ph": "X"``)
  event object per line, comma-terminated.  The format explicitly
  tolerates a missing closing bracket, which is exactly what makes an
  append-only, kill-safe trace file *also* a valid trace file.
  :func:`read_trace` applies :mod:`repro.jsonlog`'s torn-tail
  classification: an unreadable final line is dropped, unreadable data
  mid-file raises.

* **Metrics JSONL** — :func:`append_metrics` appends one
  schema-versioned JSON object per snapshot (a whole
  :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot` keyed by
  campaign id), healing a torn tail first; :func:`read_metrics` reads
  them back with the same torn-tail tolerance.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro import jsonlog
from repro.exceptions import ConfigurationError
from repro.telemetry.spans import SpanRecord

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "ChromeTraceWriter",
    "span_to_trace_event",
    "write_trace",
    "read_trace",
    "append_metrics",
    "read_metrics",
]

#: Bump on any change to the metrics-dump record schema; readers skip
#: rows of other versions.
TELEMETRY_SCHEMA_VERSION = 1

_TRACE_HEADER = "[\n"


def span_to_trace_event(record: SpanRecord) -> Dict[str, Any]:
    """One span as a Chrome complete ("X") trace event.

    ``ts``/``dur`` are microseconds; ``pid``/``tid`` place the span on
    the viewer's process/thread rows, so worker-process spans of one
    campaign land on separate rows under the same trace.  The campaign
    correlation id travels in ``args.trace_id``.
    """
    args = {"trace_id": record.trace_id, "span_id": record.span_id}
    if record.parent_id is not None:
        args["parent_id"] = record.parent_id
    args.update(record.attrs)
    return {
        "name": record.name,
        "cat": "repro",
        "ph": "X",
        "ts": round(record.start_ts * 1e6, 3),
        "dur": round(record.duration * 1e6, 3),
        "pid": record.pid,
        "tid": record.tid,
        "args": args,
    }


class ChromeTraceWriter:
    """Incremental, kill-safe writer for one Chrome trace file.

    Each ``write`` is one flushed line; ``close`` is idempotent and the
    writer is a context manager.  The file is truncated on open — a
    trace describes one session, re-running overwrites it.
    """

    def __init__(self, path: Union[str, Path]):
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._file = self._path.open("w", encoding="utf-8")
        self._file.write(_TRACE_HEADER)
        self._file.flush()

    @property
    def path(self) -> Path:
        return self._path

    def write(self, record: SpanRecord) -> None:
        line = json.dumps(span_to_trace_event(record), sort_keys=True) + ",\n"
        with self._lock:
            self._file.write(line)
            self._file.flush()

    def write_all(self, records) -> None:
        for record in records:
            self.write(record)

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "ChromeTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def write_trace(path: Union[str, Path], records) -> Path:
    """Write ``records`` as one Chrome trace file; returns the path."""
    with ChromeTraceWriter(path) as writer:
        writer.write_all(records)
        return writer.path


_CLOSE = object()  # what a "]" line decodes to


def _decode_event(line: bytes) -> Any:
    """One trace line's JSON without its comma (``]``: :data:`_CLOSE`)."""
    line = line.rstrip(b",").strip()
    return _CLOSE if line in (b"", b"]") else jsonlog.loads(line)


def _accept_event(event: Any) -> Optional[Dict[str, Any]]:
    if event is _CLOSE:
        return None
    if not isinstance(event, dict) or "ph" not in event or "name" not in event:
        raise ConfigurationError(f"not a trace event: {event!r}")
    return event


def read_trace(path: Union[str, Path]) -> Tuple[Dict[str, Any], ...]:
    """Parse a Chrome trace file back into event dicts, validating it.

    Torn-tail classification is :mod:`repro.jsonlog`'s: an unreadable
    *final* line is a kill artefact and is dropped; unreadable data
    *followed by more data* is corruption and raises
    :class:`~repro.exceptions.ConfigurationError`, as does a file that
    is not a trace-event array at all.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no trace file at {path}")
    data = path.read_bytes()
    header = data.partition(b"\n")[0]
    if header.strip() not in (b"[", b"[]"):
        raise ConfigurationError(
            f"{path} is not a Chrome trace-event file (missing '[' header)"
        )
    events, _ = jsonlog.read(
        data, _accept_event, f"corrupt trace file {path}: unreadable event",
        decode=_decode_event, start=len(header) + 1)
    return tuple(events)


# -- metrics dump -------------------------------------------------------------


def _check_metrics(record: Any) -> None:
    """The dump's shape check; keeps nothing (the append's heal)."""
    if not isinstance(record, dict) or "metrics" not in record:
        raise ConfigurationError(f"not a metrics record: {record!r}")


def _accept_metrics(record: Any) -> Optional[Dict[str, Any]]:
    """The dump's shape check, then its version filter."""
    _check_metrics(record)
    return record if record.get("v") == TELEMETRY_SCHEMA_VERSION else None


def append_metrics(
    path: Union[str, Path],
    campaign: str,
    snapshot: Dict[str, Dict[str, Any]],
    *,
    extra: Optional[Dict[str, Any]] = None,
) -> Path:
    """Append one metrics snapshot (whole registry) for ``campaign``.

    The dump is healed first (:func:`repro.jsonlog.heal`), so a record
    torn by a killed earlier append cannot glue onto this one.  The heal
    validates every line but holds one at a time and keeps none.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    record = {
        "v": TELEMETRY_SCHEMA_VERSION,
        "type": "metrics",
        "campaign": campaign,
        "metrics": snapshot,
    }
    if extra:
        record.update(extra)
    jsonlog.heal(path, _check_metrics,
                 f"corrupt metrics dump {path}: unreadable record")
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
        handle.flush()
    return path


def read_metrics(path: Union[str, Path]) -> Tuple[Dict[str, Any], ...]:
    """Read a metrics JSONL dump (torn-tail-tolerant, version-filtered).

    The file is streamed from disk; the read holds only the records it
    returns.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"no metrics dump at {path}")
    return jsonlog.read_file(
        path, _accept_metrics, f"corrupt metrics dump {path}: unreadable record")
