"""One byte-fixture suite over every log format (``FORMATS.md``).

All five readers classify lines through :mod:`repro.jsonlog`; each test
here runs one fixture through every reader it applies to, with that
format's own writer, error message and heal.  The formats differ in
three places, and these tests pin the differences:

* the journal and the metrics dump check a record's shape before its
  version, while the store (and compaction) skip another version first;
* compaction leaves a complete final record that lacks only its newline
  as it is (nothing to drop, so no rewrite); the other writers add the
  newline when they heal;
* the Chrome trace has no version and no heal (its writer replaces the
  whole file atomically), and an empty trace file is not a trace at all.
"""

from __future__ import annotations

import io
import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import pytest

from repro import jsonlog
from repro.campaign import CampaignRunner, theorem8_specs
from repro.exceptions import ConfigurationError
from repro.provenance import JOURNAL_SCHEMA_VERSION, CampaignJournal, read_journal
from repro.provenance.usage import ResourceUsage
from repro.store import (
    SCHEMA_VERSION,
    JsonlResultStore,
    SqliteResultStore,
    fingerprint_spec,
)
from repro.store.compact import compact_jsonl
from repro.telemetry import (
    TELEMETRY_SCHEMA_VERSION,
    Tracer,
    append_metrics,
    read_metrics,
    write_trace,
)
from repro.telemetry.export import read_trace

OUTCOMES = CampaignRunner().run(
    theorem8_specs([4], seeds=(1,), max_steps=4_000)).outcomes[:3]
GOOD_RECORDS = 3  # every fixture below starts from three good records


def _line(record) -> bytes:
    return json.dumps(record, sort_keys=True).encode() + b"\n"


@dataclass(frozen=True)
class Format:
    """One reader, its writer and what its fixtures look like."""

    name: str
    write_good: Callable[[Path], None]
    #: The reader under test; returns how many records it kept.
    read: Callable[[Path], int]
    #: Its unreadable-line message.
    message: str
    #: A valid-JSON record missing a required key, without its newline.
    missing_keys: bytes
    #: The operation that heals the file (``None``: the format never
    #: heals); returns the bytes it may append after healing.
    heal: Optional[Callable[[Path], bytes]] = None
    #: A whole line of another version (``None``: no version field).
    other_version: Optional[bytes] = None
    #: ``{"v": 999}``: skipped where the version is checked first,
    #: unreadable where the shape is.
    shapeless_other_version_skipped: bool = False
    heals_missing_newline: bool = True


def _write_store(path: Path) -> None:
    with JsonlResultStore(path) as store:
        for outcome in OUTCOMES:
            store.put(fingerprint_spec(outcome.spec), outcome)


def _read_store(path: Path) -> int:
    with JsonlResultStore(path) as store:
        return len(store)


def _heal_store(path: Path) -> bytes:
    JsonlResultStore(path).close()
    return b""


def _write_journal(path: Path) -> None:
    with CampaignJournal(path) as journal:
        journal.campaign_started("c1", 1)
        journal.scenario("c1", "a" * 64, "ran")
        journal.campaign_finished("c1")


def _heal_journal(path: Path) -> bytes:
    CampaignJournal(path).close()
    return b""


def _write_trace(path: Path) -> None:
    tracer = Tracer(trace_id="feed00000001")
    for index in range(GOOD_RECORDS):
        with tracer.span("scenario", label=f"s{index}"):
            pass
    write_trace(path, tracer.drain())


def _write_metrics(path: Path) -> None:
    for index in range(GOOD_RECORDS):
        append_metrics(path, f"c{index}", {})


def _heal_metrics(path: Path) -> bytes:
    append_metrics(path, "appended", {})
    return _line({"campaign": "appended", "metrics": {}, "type": "metrics",
                  "v": TELEMETRY_SCHEMA_VERSION})


def _heal_compact(path: Path) -> bytes:
    compact_jsonl(path)
    return b""


FORMATS = [
    Format(
        name="store",
        write_good=_write_store,
        read=_read_store,
        heal=_heal_store,
        message="corrupt result store .*: unreadable record on line 2",
        missing_keys=json.dumps({"fp": "a" * 64, "v": SCHEMA_VERSION}).encode(),
        other_version=_line({"fp": "f" * 64, "outcome": {}, "v": 999}),
        shapeless_other_version_skipped=True,
    ),
    Format(
        name="compaction",
        write_good=_write_store,
        read=lambda path: compact_jsonl(path, dry_run=True).rows_kept,
        heal=_heal_compact,
        message="corrupt result store .*: unreadable record on line 2",
        missing_keys=json.dumps({"fp": "a" * 64, "v": SCHEMA_VERSION}).encode(),
        other_version=_line({"fp": "f" * 64, "outcome": {}, "v": 999}),
        shapeless_other_version_skipped=True,
        heals_missing_newline=False,
    ),
    Format(
        name="journal",
        write_good=_write_journal,
        read=lambda path: len(read_journal(path)),
        heal=_heal_journal,
        message="corrupt campaign journal .*: unreadable record on line 2",
        missing_keys=json.dumps({"v": JOURNAL_SCHEMA_VERSION}).encode(),
        other_version=_line({"campaign": "old", "total": 1,
                             "type": "campaign-start", "v": 999}),
    ),
    Format(
        name="trace",
        write_good=_write_trace,
        read=lambda path: len(read_trace(path)),
        message="corrupt trace file .*: unreadable event on line 2",
        missing_keys=json.dumps({"ph": "X"}).encode() + b",",
    ),
    Format(
        name="metrics",
        write_good=_write_metrics,
        read=lambda path: len(read_metrics(path)),
        heal=_heal_metrics,
        message="corrupt metrics dump .*: unreadable record on line 2",
        missing_keys=json.dumps(
            {"type": "metrics", "v": TELEMETRY_SCHEMA_VERSION}).encode(),
        other_version=_line({"metrics": {}, "v": 999}),
    ),
]
VERSIONED = [fmt for fmt in FORMATS if fmt.other_version is not None]


def _ids(fmt: Format) -> str:
    return fmt.name


def _good(fmt: Format, tmp_path: Path):
    path = tmp_path / f"{fmt.name}.jsonl"
    fmt.write_good(path)
    data = path.read_bytes()
    assert fmt.read(path) == GOOD_RECORDS
    assert path.read_bytes() == data
    return path, data


@pytest.mark.parametrize("fmt", FORMATS, ids=_ids)
class TestEveryFormat:
    def test_torn_final_line_is_dropped(self, fmt, tmp_path):
        path, good = _good(fmt, tmp_path)
        path.write_bytes(good + b'{"torn": "mid-wri')
        assert fmt.read(path) == GOOD_RECORDS
        if fmt.heal is not None:
            appended = fmt.heal(path)
            assert path.read_bytes() == good + appended

    def test_valid_json_prefix_missing_keys_is_dropped(self, fmt, tmp_path):
        path, good = _good(fmt, tmp_path)
        path.write_bytes(good + fmt.missing_keys)
        assert fmt.read(path) == GOOD_RECORDS
        if fmt.heal is not None:
            appended = fmt.heal(path)
            assert path.read_bytes() == good + appended

    def test_final_record_missing_only_its_newline_is_kept(self, fmt, tmp_path):
        path, good = _good(fmt, tmp_path)
        assert good.endswith(b"\n")
        path.write_bytes(good[:-1])
        assert fmt.read(path) == GOOD_RECORDS
        if fmt.heal is not None:
            appended = fmt.heal(path)
            if fmt.heals_missing_newline:
                assert path.read_bytes() == good + appended
            else:
                assert path.read_bytes() == good[:-1]

    def test_unreadable_final_line_with_its_newline_raises(self, fmt, tmp_path):
        path, good = _good(fmt, tmp_path)
        path.write_bytes(good + b"not json at all\n")
        last_line = good.count(b"\n") + 1
        with pytest.raises(ConfigurationError, match=fmt.message.replace(
                "line 2", f"line {last_line}")):
            fmt.read(path)
        assert path.read_bytes() == good + b"not json at all\n"

    def test_json_that_is_not_a_record_raises_mid_file(self, fmt, tmp_path):
        path, good = _good(fmt, tmp_path)
        lines = good.split(b"\n")
        for not_a_record in (b"null", b"123", b'["a"]'):
            lines[1] = not_a_record + (b"," if fmt.name == "trace" else b"")
            path.write_bytes(b"\n".join(lines))
            with pytest.raises(ConfigurationError, match=fmt.message):
                fmt.read(path)

    def test_mid_file_corruption_raises_and_leaves_the_file(self, fmt, tmp_path):
        path, good = _good(fmt, tmp_path)
        lines = good.split(b"\n")
        lines[1] = b"{torn garbage"
        damaged = b"\n".join(lines)
        path.write_bytes(damaged)
        with pytest.raises(ConfigurationError, match=fmt.message):
            fmt.read(path)
        if fmt.heal is not None:
            with pytest.raises(ConfigurationError, match=fmt.message):
                fmt.heal(path)
        assert path.read_bytes() == damaged


@pytest.mark.parametrize("fmt", VERSIONED, ids=_ids)
class TestVersionedFormats:
    def test_empty_file_reads_empty_and_is_untouched(self, fmt, tmp_path):
        path = tmp_path / f"{fmt.name}.jsonl"
        path.write_bytes(b"")
        assert fmt.read(path) == 0
        assert path.read_bytes() == b""
        appended = fmt.heal(path)
        assert path.read_bytes() == appended

    def test_file_of_other_version_rows_reads_empty_and_is_untouched(
            self, fmt, tmp_path):
        path = tmp_path / f"{fmt.name}.jsonl"
        path.write_bytes(fmt.other_version * 3)
        assert fmt.read(path) == 0
        assert path.read_bytes() == fmt.other_version * 3

    def test_other_version_rows_among_good_ones_are_skipped(self, fmt, tmp_path):
        path, good = _good(fmt, tmp_path)
        lines = good.splitlines(keepends=True)
        mixed = b"".join([fmt.other_version, *lines[:1], fmt.other_version,
                          *lines[1:], fmt.other_version])
        path.write_bytes(mixed)
        assert fmt.read(path) == GOOD_RECORDS
        assert path.read_bytes() == mixed

    def test_shape_or_version_first(self, fmt, tmp_path):
        # ``{"v": 999}`` has another version and none of the keys.
        path, good = _good(fmt, tmp_path)
        damaged = b'{"v": 999}\n' + good
        path.write_bytes(damaged)
        if fmt.shapeless_other_version_skipped:
            assert fmt.read(path) == GOOD_RECORDS
        else:
            with pytest.raises(ConfigurationError, match=fmt.message.replace(
                    "line 2", "line 1")):
                fmt.read(path)
        assert path.read_bytes() == damaged


class TestRecordFields:
    """The records as ``FORMATS.md`` lists them: one canonical
    ``json.dumps(record, sort_keys=True)`` per line, these keys."""

    @staticmethod
    def _records(path: Path, framing: bytes = b"\n"):
        records = []
        for line in path.read_bytes().splitlines(keepends=True):
            assert line.endswith(framing)
            body = line[:-len(framing)]
            record = json.loads(body)
            assert body == json.dumps(record, sort_keys=True).encode()
            records.append(record)
        return records

    def test_store_row(self, tmp_path):
        path = tmp_path / "store.jsonl"
        _write_store(path)
        rows = self._records(path)
        assert len(rows) == len(OUTCOMES)
        for row, outcome in zip(rows, OUTCOMES):
            assert set(row) == {"fp", "spec", "outcome", "v"}
            assert row["v"] == SCHEMA_VERSION and len(row["fp"]) == 64
            assert row["outcome"] == [
                outcome.verdict, outcome.agreement_ok, outcome.validity_ok,
                outcome.termination_ok, outcome.distinct_decisions,
                outcome.decided, outcome.steps, outcome.truncated,
                list(outcome.violations), outcome.error,
                outcome.messages_sent, outcome.messages_delivered]
            assert set(row["spec"]) == {
                "kind", "n", "f", "k", "scheduler", "seed", "crashes",
                "max_steps", "params", "recording"}

    def test_sqlite_results_table(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with SqliteResultStore(path) as store:
            store.put(fingerprint_spec(OUTCOMES[0].spec), OUTCOMES[0])
        jsonl = tmp_path / "store.jsonl"
        _write_store(jsonl)
        conn = sqlite3.connect(str(path))
        try:
            columns = [row[1:] for row in conn.execute(
                "PRAGMA table_info(results)")]
            index = [row[2] for row in conn.execute(
                "PRAGMA index_info(results_schema_fingerprint)")]
            (fingerprint, version, spec, outcome), = conn.execute(
                "SELECT fingerprint, schema_version, spec, outcome FROM results")
        finally:
            conn.close()
        assert columns == [
            ("fingerprint", "TEXT", 0, None, 1),
            ("schema_version", "INTEGER", 1, None, 0),
            ("outcome", "TEXT", 1, None, 0),
            ("spec", "TEXT", 0, None, 0),
        ]
        assert index == ["schema_version", "fingerprint"]
        first_row = self._records(jsonl)[0]
        assert (fingerprint, version) == (first_row["fp"], SCHEMA_VERSION)
        assert spec == json.dumps(first_row["spec"], sort_keys=True)
        assert outcome == json.dumps(first_row["outcome"], sort_keys=True)

    def test_journal_records(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            journal.campaign_started("c1", 3)
            journal.scenario("c1", "a" * 64, "ran")
            journal.cached("c1", ["b" * 64, "b" * 64], ResourceUsage(steps=3))
            journal.early_stop("c1", (4, 1, 1), "ok")
            journal.campaign_finished("c1")
        common = {"v", "ts", "elapsed", "type", "campaign"}
        extra = {
            "campaign-start": {"total", "backend", "workers", "pid"},
            "scenario": {"fp", "decision", "verdict", "label",
                         "worker_pid", "usage"},
            "cached": {"fps", "usage"},
            "early-stop": {"point", "verdict"},
            "campaign-finish": {"stats"},
        }
        records = self._records(path)
        assert [r["type"] for r in records] == list(extra)
        for record in records:
            assert record["v"] == JOURNAL_SCHEMA_VERSION
            assert set(record) == common | extra[record["type"]]
        for record in records[1:3]:
            assert set(record["usage"]) == {
                "seconds", "steps", "messages_sent", "messages_delivered"}
        assert records[2]["fps"] == ["b" * 64, "b" * 64]
        assert records[2]["usage"]["steps"] == 3
        assert records[2]["usage"]["seconds"] == 0.0

    def test_trace_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        _write_trace(path)
        header, body = path.read_bytes().split(b"\n", 1)
        assert header == b"["
        body_path = tmp_path / "body"
        body_path.write_bytes(body)
        for event in self._records(body_path, framing=b",\n"):
            assert set(event) == {
                "name", "cat", "ph", "ts", "dur", "pid", "tid", "args"}
            assert (event["cat"], event["ph"]) == ("repro", "X")
            assert {"trace_id", "span_id"} <= set(event["args"])

    def test_metrics_record(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        append_metrics(path, "c1", {}, extra={"stats": {"total": 1}})
        (record,) = self._records(path)
        assert set(record) == {"v", "type", "campaign", "metrics", "stats"}
        assert (record["v"], record["type"]) == (TELEMETRY_SCHEMA_VERSION,
                                                  "metrics")


class TestTraceHeader:
    def test_empty_file_is_not_a_trace(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"")
        with pytest.raises(ConfigurationError, match="missing '\\[' header"):
            read_trace(path)

    def test_header_only_file_reads_empty(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        for data in (b"[\n", b"[", b"[]\n", b"[\n]\n"):
            path.write_bytes(data)
            assert read_trace(path) == ()


class TestPrimitive:
    """The shared operations themselves, on bare bytes in a file."""

    @staticmethod
    def _accept(record):
        if "k" not in record:
            raise ConfigurationError("no k")
        return record["k"]

    def test_read_reports_the_good_prefix(self):
        data = b'{"k": 1}\n\n  {"k": 2}  \n{"k"'
        records, good_until = jsonlog.read(
            io.BytesIO(data), self._accept, "corrupt log")
        assert records == [1, 2]
        assert good_until == len(data) - len(b'{"k"')

    def test_read_from_an_offset_numbers_lines_from_the_file_start(self):
        lines = io.BytesIO(b'header\n{"k": 1}\n{}\n{"k": 3}\n')
        lines.readline()
        with pytest.raises(ConfigurationError, match="on line 3"):
            jsonlog.read(lines, self._accept, "corrupt log", line_number=2)

    def test_read_from_an_offset_measures_the_good_prefix_from_the_file_start(self):
        data = b'header\n{"k": 1}\n{"k"'
        lines = io.BytesIO(data)
        lines.readline()
        records, good_until = jsonlog.read(
            lines, self._accept, "corrupt log", line_number=2)
        assert records == [1]
        assert good_until == len(data) - len(b'{"k"')

    def test_error_names_the_line_and_the_cause(self):
        with pytest.raises(ConfigurationError,
                           match=r"^corrupt log on line 2 \(no k\)$"):
            jsonlog.read(io.BytesIO(b'{"k": 1}\n{}\n{"k": 3}\n'),
                         self._accept, "corrupt log")

    def test_unreadable_final_line_with_its_newline_raises(self):
        with pytest.raises(ConfigurationError, match="on line 2"):
            jsonlog.read(io.BytesIO(b'{"k": 1}\n{"k"\n'), self._accept,
                         "corrupt log")

    @pytest.mark.parametrize("data, healed", [
        (b'{"k": 1}\n{"k"', b'{"k": 1}\n'),
        (b'{"k": 1}\n{"k": 2}', b'{"k": 1}\n{"k": 2}\n'),
        (b'{"k": 1}\n  ', b'{"k": 1}\n  \n'),
        (b'{"k"', b""),
        (b'{"k": 1}\n', b'{"k": 1}\n'),
    ], ids=["torn", "unterminated", "blank-tail", "torn-only", "clean"])
    def test_heal_truncates_or_terminates(self, tmp_path, data, healed):
        path = tmp_path / "log.jsonl"
        path.write_bytes(data)
        jsonlog.heal(path, self._accept, "corrupt log")
        assert path.read_bytes() == healed

    def test_heal_of_an_absent_file_creates_nothing(self, tmp_path):
        path = tmp_path / "absent.jsonl"
        assert jsonlog.heal(path, self._accept, "corrupt log") == []
        assert not path.exists()

    def test_rewrite_swaps_the_bytes_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_bytes(b"old\n")
        jsonlog.rewrite(path, [b"new\n"])
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["log.jsonl"]

    def test_rewrite_keeps_the_permissions_a_plain_write_keeps(self, tmp_path):
        plain = tmp_path / "plain.jsonl"
        plain.write_bytes(b"")
        fresh = tmp_path / "fresh.jsonl"
        jsonlog.rewrite(fresh, [b"new\n"])
        assert fresh.stat().st_mode == plain.stat().st_mode
        fresh.chmod(0o640)
        jsonlog.rewrite(fresh, [b"newer\n"])
        assert fresh.stat().st_mode & 0o777 == 0o640
