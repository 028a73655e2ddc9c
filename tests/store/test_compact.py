"""``python -m repro.store.compact``: byte-level fixtures for both backends.

Compaction must keep exactly the rows the readers would index — kept
JSONL lines byte-for-byte, last duplicate winning — drop dead-schema
rows, heal torn tails, refuse mid-file corruption with the same error
the loader raises, and do all of it atomically with an honest
``--dry-run``.  Fixtures mirror ``test_mixed_schema.py``'s.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import replace

import pytest

from repro.campaign import CampaignRunner, theorem8_solvable_grid, theorem8_specs
from repro.exceptions import ConfigurationError
from repro.store import JsonlResultStore, SqliteResultStore, fingerprint_spec
from repro.store.compact import compact_jsonl, compact_store, main
from repro.store.jsonl import read_row

SPECS = theorem8_specs([4], seeds=(1,), max_steps=4_000)
OUTCOMES = CampaignRunner().run(SPECS).outcomes[:4]


def _v2_rows():
    return [
        {
            "fp": format(0xB0 + i, "064x"),
            "v": 2,
            "outcome": {"verdict": "ok", "props": {"agreement": True}},
        }
        for i in range(2)
    ]


def _write_messy_jsonl(path):
    """v3 rows with one superseded duplicate, v2 rows around them, torn tail.

    Returns the v3 lines a reader would index, in kept order (the stale
    first write of outcome 0 is superseded by its re-put).
    """
    with JsonlResultStore(path) as store:
        store.put(fingerprint_spec(OUTCOMES[0].spec), OUTCOMES[0])  # superseded
        for outcome in OUTCOMES:
            store.put(fingerprint_spec(outcome.spec), outcome)
    v3_lines = path.read_text().splitlines()
    assert len(v3_lines) == len(OUTCOMES) + 1
    v2_lines = [json.dumps(row, sort_keys=True) for row in _v2_rows()]
    mixed = [v2_lines[0]] + v3_lines[:3] + [v2_lines[1]] + v3_lines[3:]
    path.write_bytes(("\n".join(mixed) + "\n").encode() + b'{"fp": "torn')
    return v3_lines[1:]  # the duplicate's last occurrence wins


class TestCompactJsonl:
    def test_keeps_live_rows_byte_for_byte(self, tmp_path):
        path = tmp_path / "store.jsonl"
        kept_lines = _write_messy_jsonl(path)
        report = compact_store(path)
        assert report.backend == "jsonl"
        assert report.rows_kept == len(OUTCOMES)
        assert report.rows_dropped_schema == 2
        assert report.rows_deduped == 1
        assert report.tail_bytes_healed == len(b'{"fp": "torn')
        assert not report.dry_run
        assert path.read_bytes() == ("\n".join(kept_lines) + "\n").encode()

    def test_compacted_store_reads_identically(self, tmp_path):
        path = tmp_path / "store.jsonl"
        _write_messy_jsonl(path)
        compact_store(path)
        with JsonlResultStore(path) as store:
            assert len(store) == len(OUTCOMES)
            for outcome in OUTCOMES:
                assert store.get(fingerprint_spec(outcome.spec)) == outcome

    def test_dry_run_reports_but_never_writes(self, tmp_path):
        path = tmp_path / "store.jsonl"
        _write_messy_jsonl(path)
        before = path.read_bytes()
        report = compact_store(path, dry_run=True)
        assert report.dry_run and report.changed
        assert report.rows_dropped_schema == 2 and report.rows_deduped == 1
        assert path.read_bytes() == before

    def test_dry_run_beside_a_live_append_reports_the_bytes_it_read(
            self, tmp_path, monkeypatch):
        # A campaign appends while the pass reads: the report counts the
        # bytes it classified, so it never shows a negative heal.
        path = tmp_path / "store.jsonl"
        with JsonlResultStore(path) as store:
            for outcome in OUTCOMES:
                store.put(fingerprint_spec(outcome.spec), outcome)
        appended = []

        def read_row_then_append(record):
            if not appended:
                with path.open("ab") as handle:
                    handle.write(b"\n")
                appended.append(True)
            return read_row(record)

        monkeypatch.setattr("repro.store.compact.read_row", read_row_then_append)
        report = compact_jsonl(path, dry_run=True)
        assert report.tail_bytes_healed == 0 and not report.changed
        assert report.bytes_before == report.bytes_after

    def test_idempotent(self, tmp_path):
        path = tmp_path / "store.jsonl"
        _write_messy_jsonl(path)
        compact_store(path)
        once = path.read_bytes()
        second = compact_store(path)
        assert not second.changed
        assert second.bytes_before == second.bytes_after == len(once)
        assert path.read_bytes() == once

    def test_clean_store_is_untouched(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with JsonlResultStore(path) as store:
            for outcome in OUTCOMES:
                store.put(fingerprint_spec(outcome.spec), outcome)
        before = path.read_bytes()
        report = compact_store(path)
        assert not report.changed and report.rows_kept == len(OUTCOMES)
        assert path.read_bytes() == before

    def test_empty_file_is_a_noop(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_bytes(b"")
        report = compact_store(path)
        assert report.rows_kept == 0 and not report.changed

    def test_mid_file_corruption_raises_and_preserves_the_file(self, tmp_path):
        path = tmp_path / "store.jsonl"
        with JsonlResultStore(path) as store:
            store.put(fingerprint_spec(OUTCOMES[0].spec), OUTCOMES[0])
        good = path.read_bytes()
        path.write_bytes(b"!!garbage!!\n" + good)
        with pytest.raises(ConfigurationError, match="corrupt result store"):
            compact_store(path)
        assert path.read_bytes() == b"!!garbage!!\n" + good

    def test_torn_only_tail_is_healed_even_solo(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_bytes(b'{"fp": "torn')
        report = compact_store(path)
        assert report.tail_bytes_healed == len(b'{"fp": "torn')
        assert path.read_bytes() == b""


class TestCompactMemory:
    def test_dry_run_peaks_at_the_rows_it_keeps_not_the_files_history(
            self, tmp_path, traced_memory):
        # The 858 specs of Theorem 8's n=10 grid (crash schedules of
        # every length), written once and appended ten times: the pass
        # holds the last line of each fingerprint, so the nine
        # superseded copies cost no memory.
        specs = theorem8_solvable_grid(
            [10], seeds=(1, 2), recording="verdict-only").compile()
        rows = len(specs)
        once = tmp_path / "once.jsonl"
        with JsonlResultStore(once, commit_batch=256) as store:
            for spec in specs:
                store.put(fingerprint_spec(spec), replace(OUTCOMES[0], spec=spec))
        ten = tmp_path / "ten.jsonl"
        ten.write_bytes(once.read_bytes() * 10)
        report_once, _, peak_once = traced_memory(
            lambda: compact_jsonl(once, dry_run=True))
        report_ten, _, peak_ten = traced_memory(
            lambda: compact_jsonl(ten, dry_run=True))
        assert report_once.rows_kept == report_ten.rows_kept == rows
        assert report_ten.rows_deduped == 9 * rows
        assert report_ten.bytes_after == once.stat().st_size
        assert peak_ten < 1.25 * peak_once + 256 * 1024


class TestCompactSqlite:
    def _write_mixed(self, path):
        with SqliteResultStore(path) as store:
            for outcome in OUTCOMES:
                store.put(fingerprint_spec(outcome.spec), outcome)
        conn = sqlite3.connect(path)
        with conn:
            for row in _v2_rows():
                conn.execute(
                    "INSERT OR REPLACE INTO results "
                    "(fingerprint, schema_version, outcome) VALUES (?, ?, ?)",
                    (row["fp"], 2, json.dumps(row["outcome"])),
                )
        conn.close()

    def test_drops_dead_schema_rows_keeps_live_ones(self, tmp_path):
        path = tmp_path / "store.sqlite"
        self._write_mixed(path)
        report = compact_store(path)
        assert report.backend == "sqlite"
        assert report.rows_kept == len(OUTCOMES)
        assert report.rows_dropped_schema == 2
        conn = sqlite3.connect(path)
        total = conn.execute("SELECT COUNT(*) FROM results").fetchone()[0]
        conn.close()
        assert total == len(OUTCOMES)
        with SqliteResultStore(path) as store:
            for outcome in OUTCOMES:
                assert store.get(fingerprint_spec(outcome.spec)) == outcome

    def test_dry_run_deletes_nothing(self, tmp_path):
        path = tmp_path / "store.sqlite"
        self._write_mixed(path)
        report = compact_store(path, dry_run=True)
        assert report.dry_run and report.rows_dropped_schema == 2
        conn = sqlite3.connect(path)
        dead = conn.execute(
            "SELECT COUNT(*) FROM results WHERE schema_version = 2"
        ).fetchone()[0]
        conn.close()
        assert dead == 2

    def test_idempotent(self, tmp_path):
        path = tmp_path / "store.sqlite"
        self._write_mixed(path)
        compact_store(path)
        second = compact_store(path)
        assert not second.changed and second.rows_kept == len(OUTCOMES)

    def test_non_database_file_is_a_loud_error(self, tmp_path):
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"this is not sqlite")
        with pytest.raises(ConfigurationError):
            compact_store(path)


class TestCompactCli:
    def test_cli_compacts_multiple_stores(self, tmp_path, capsys):
        jsonl = tmp_path / "a.jsonl"
        _write_messy_jsonl(jsonl)
        sqlite_path = tmp_path / "b.sqlite"
        TestCompactSqlite()._write_mixed(sqlite_path)
        assert main([str(jsonl), str(sqlite_path)]) == 0
        out = capsys.readouterr().out
        assert "a.jsonl [jsonl]" in out and "b.sqlite [sqlite]" in out
        assert "dropped 2 dead-schema" in out

    def test_cli_dry_run_flag(self, tmp_path, capsys):
        path = tmp_path / "a.jsonl"
        _write_messy_jsonl(path)
        before = path.read_bytes()
        assert main(["--dry-run", str(path)]) == 0
        assert "would keep" in capsys.readouterr().out
        assert path.read_bytes() == before

    def test_cli_errors_on_missing_and_memory_stores(self, tmp_path, capsys):
        assert main([str(tmp_path / "missing.jsonl")]) == 1
        assert main([":memory:"]) == 1
        err = capsys.readouterr().err
        assert "no such store" in err
        assert "no file to compact" in err

    def test_cli_keeps_going_after_an_error(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        _write_messy_jsonl(good)
        assert main([str(tmp_path / "missing.jsonl"), str(good)]) == 1
        captured = capsys.readouterr()
        assert "good.jsonl [jsonl]" in captured.out
        assert "no such store" in captured.err
