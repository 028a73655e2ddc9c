"""Trace and metrics exporters: kill-safe files tools can open.

Two formats, both read through :mod:`repro.jsonlog`'s line classifier
(an unreadable final line is dropped, unreadable data mid-file raises)
one line at a time, so a read holds only the records it returns:

* **Chrome trace-event JSON** — :func:`write_trace` writes the
  trace-event array format that Perfetto and ``chrome://tracing`` load
  directly: a ``[`` header line, then one complete (``"ph": "X"``)
  event object per line, comma-terminated, never closed (the format
  tolerates the missing bracket).  The whole file is written in one
  atomic :func:`repro.jsonlog.rewrite`, so a kill leaves the old trace
  or the new one.  :func:`read_trace` checks the header, then streams
  the events.

* **Metrics JSONL** — :func:`append_metrics` appends one
  schema-versioned JSON object per snapshot (a whole
  :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot` keyed by
  campaign id) in one flushed write, healing a torn tail first, so a
  SIGKILL tears at most the final line; :func:`read_metrics` reads them
  back with the same torn-tail tolerance.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from repro import jsonlog
from repro.exceptions import ConfigurationError
from repro.telemetry.spans import SpanRecord

__all__ = [
    "TELEMETRY_SCHEMA_VERSION",
    "span_to_trace_event",
    "write_trace",
    "read_trace",
    "append_metrics",
    "read_metrics",
]

#: Bump on any change to the metrics-dump record schema; readers skip
#: rows of other versions.
TELEMETRY_SCHEMA_VERSION = 1

_TRACE_HEADER = b"[\n"


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


def _trace_lines(records) -> Iterator[bytes]:
    yield _TRACE_HEADER
    for record in records:
        yield (json.dumps(span_to_trace_event(record), sort_keys=True)
               + ",\n").encode("utf-8")


def write_trace(path: Union[str, Path], records) -> Path:
    """Write ``records`` as one Chrome trace file; returns the path.

    The header and every event line go to disk in one atomic
    :func:`repro.jsonlog.rewrite`, one line at a time: a kill leaves the
    old file or the new one, and a rewrite replaces what an earlier one
    wrote.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    jsonlog.rewrite(path, _trace_lines(records))
    return path


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
    with open(path, "rb") as lines:
        header = lines.readline()
        if header.strip() not in (b"[", b"[]"):
            raise ConfigurationError(
                f"{path} is not a Chrome trace-event file (missing '[' header)"
            )
        events, _ = jsonlog.read(
            lines, _accept_event, f"corrupt trace file {path}: unreadable event",
            decode=_decode_event, line_number=2)
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
    with open(path, "rb") as lines:
        records, _ = jsonlog.read(
            lines, _accept_metrics,
            f"corrupt metrics dump {path}: unreadable record")
    return tuple(records)
