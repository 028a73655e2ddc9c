"""Mixed-schema store reads: v2 rows alongside v3 rows, byte-for-byte.

Stores outlive schema bumps: a long-running sweep directory can hold
rows written before :data:`repro.store.SCHEMA_VERSION` was raised to 3.
Reading such a store must be *tolerant* — old rows are skipped (their
fingerprints can never match a current-version lookup anyway, since the
schema version is hashed into the fingerprint), never decoded with the
current codec, and never allowed to crash iteration.  These fixtures
pin that contract at the byte level for both backends, alongside the
torn-tail fixtures in ``test_backends.py``.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.campaign import CampaignRunner, theorem8_specs
from repro.campaign.codec import outcome_to_dict
from repro.report import main as report_main
from repro.store import (JsonlResultStore, SqliteResultStore,
                         fingerprint_spec, open_store)
from repro.store.compact import main as compact_main

SPECS = theorem8_specs([4], seeds=(1,), max_steps=4_000)
OUTCOMES = CampaignRunner().run(SPECS).outcomes[:3]


def _v2_rows():
    """Plausible SCHEMA_VERSION=2 records, in the pre-``recording`` shape.

    The payloads are deliberately *not* decodable by the current codec
    (missing fields, renamed keys): a tolerant reader must skip them on
    the version tag alone, before ever looking inside.
    """
    return [
        {
            "fp": format(0xA0 + i, "064x"),
            "v": 2,
            "outcome": {
                "spec": {"kind": "theorem8-solvable", "n": 4, "f": 1, "k": 1},
                "verdict": "ok",
                "props": {"agreement": True},  # v2 key layout, not v3's
            },
        }
        for i in range(3)
    ]


class TestJsonlMixedSchema:
    def _write_mixed(self, path):
        """v2 and v3 rows interleaved, exactly as appends would land."""
        with JsonlResultStore(path) as store:
            for outcome in OUTCOMES:
                store.put(fingerprint_spec(outcome.spec), outcome)
        v3_lines = path.read_text().splitlines()
        v2_lines = [json.dumps(row, sort_keys=True) for row in _v2_rows()]
        mixed = [
            v2_lines[0], v3_lines[0], v2_lines[1],
            v3_lines[1], v3_lines[2], v2_lines[2],
        ]
        content = ("\n".join(mixed) + "\n").encode()
        path.write_bytes(content)
        return content

    def test_v2_rows_are_skipped_v3_rows_decode(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        self._write_mixed(path)
        with JsonlResultStore(path) as store:
            assert len(store) == len(OUTCOMES)
            for outcome in OUTCOMES:
                assert store.get(fingerprint_spec(outcome.spec)) == outcome
            for row in _v2_rows():
                assert store.get(row["fp"]) is None
            assert len(store.fingerprints()) == len(OUTCOMES)

    def test_mixed_file_bytes_are_preserved(self, tmp_path):
        # Skipping is read-only: old rows stay on disk for forensics (or
        # a future migration); opening the store never rewrites them.
        path = tmp_path / "mixed.jsonl"
        content = self._write_mixed(path)
        with JsonlResultStore(path):
            pass
        assert path.read_bytes() == content

    def test_mixed_store_accepts_new_appends(self, tmp_path):
        path = tmp_path / "mixed.jsonl"
        self._write_mixed(path)
        extra = CampaignRunner().run(SPECS).outcomes[3]
        with JsonlResultStore(path) as store:
            store.put(fingerprint_spec(extra.spec), extra)
        with JsonlResultStore(path) as reopened:
            assert len(reopened) == len(OUTCOMES) + 1
            assert reopened.get(fingerprint_spec(extra.spec)) == extra

    def test_v2_tail_row_with_undecodable_payload_is_not_corruption(self, tmp_path):
        # A v2 row in final position, complete with newline: schema skip
        # must win over the torn-tail and corruption classifications.
        path = tmp_path / "mixed.jsonl"
        with JsonlResultStore(path) as store:
            store.put(fingerprint_spec(OUTCOMES[0].spec), OUTCOMES[0])
        before = path.read_bytes()
        tail = (json.dumps(_v2_rows()[0], sort_keys=True) + "\n").encode()
        path.write_bytes(before + tail)
        with JsonlResultStore(path) as store:
            assert len(store) == 1
        assert path.read_bytes() == before + tail


class TestSqliteMixedSchema:
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

    def test_v2_rows_invisible_to_reads_and_iteration(self, tmp_path):
        path = tmp_path / "mixed.sqlite"
        self._write_mixed(path)
        with SqliteResultStore(path) as store:
            assert len(store) == len(OUTCOMES)
            for outcome in OUTCOMES:
                assert store.get(fingerprint_spec(outcome.spec)) == outcome
            for row in _v2_rows():
                assert store.get(row["fp"]) is None
            hits = store.get_many([o.spec for o in OUTCOMES])
            assert set(hits) == {fingerprint_spec(o.spec) for o in OUTCOMES}
            # items() decodes lazily: exhausting it must never touch the
            # undecodable v2 payloads.
            decoded = dict(store.items())
            assert len(decoded) == len(OUTCOMES)

    def test_v2_rows_survive_in_the_table(self, tmp_path):
        path = tmp_path / "mixed.sqlite"
        self._write_mixed(path)
        with SqliteResultStore(path):
            pass
        conn = sqlite3.connect(path)
        count = conn.execute(
            "SELECT COUNT(*) FROM results WHERE schema_version = 2"
        ).fetchone()[0]
        conn.close()
        assert count == len(_v2_rows())


def _v3_rows():
    """SCHEMA_VERSION=3 rows as the previous release wrote them: the whole
    outcome, spec embedded, under the key its fingerprint had then."""
    return [(format(0xB0 + i, "064x"), outcome_to_dict(outcome))
            for i, outcome in enumerate(OUTCOMES)]


def _write_v3_sqlite(path):
    """A store from before schema 4: the old table, no ``spec`` column."""
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "CREATE TABLE results (fingerprint TEXT PRIMARY KEY, "
            "schema_version INTEGER NOT NULL, outcome TEXT NOT NULL)")
        conn.execute("CREATE INDEX results_schema_fingerprint "
                     "ON results (schema_version, fingerprint)")
        conn.executemany(
            "INSERT INTO results (fingerprint, schema_version, outcome) "
            "VALUES (?, 3, ?)",
            [(digest, json.dumps(outcome, sort_keys=True))
             for digest, outcome in _v3_rows()])
    conn.close()


def _write_v3_jsonl(path):
    path.write_text("".join(
        json.dumps({"fp": digest, "v": 3, "outcome": outcome},
                   sort_keys=True) + "\n"
        for digest, outcome in _v3_rows()))


class TestStoresFromSchemaThree:
    """Stores written before the spec-free rows open, miss, take new
    puts, compact and report."""

    @pytest.mark.parametrize("name,write", [
        ("old.sqlite", _write_v3_sqlite),
        ("old.jsonl", _write_v3_jsonl),
    ])
    def test_old_store_opens_misses_persists_compacts_and_reports(
            self, tmp_path, capsys, name, write):
        path = tmp_path / name
        write(path)
        extra = CampaignRunner().run(SPECS[3:4]).outcomes[0]
        with open_store(path) as store:
            assert len(store) == 0
            assert store.get_many([o.spec for o in OUTCOMES]) == {}
            assert list(store.items()) == []
            for digest, _ in _v3_rows():
                assert store.get(digest) is None
            store.put(fingerprint_spec(extra.spec), extra)
        with open_store(path) as reopened:
            assert dict(reopened.items()) == {fingerprint_spec(extra.spec): extra}
            assert reopened.get_many([extra.spec]) == {
                fingerprint_spec(extra.spec): extra}
        assert compact_main([str(path)]) == 0
        assert f"dropped {len(OUTCOMES)} dead-schema" in capsys.readouterr().out
        with open_store(path) as compacted:
            assert dict(compacted.items()) == {fingerprint_spec(extra.spec): extra}
        assert report_main(["--store", str(path)]) == 0

    def test_old_sqlite_store_compacts_before_any_open(self, tmp_path, capsys):
        path = tmp_path / "old.sqlite"
        _write_v3_sqlite(path)
        assert compact_main([str(path)]) == 0
        assert f"dropped {len(OUTCOMES)} dead-schema" in capsys.readouterr().out
        with SqliteResultStore(path) as store:
            assert len(store) == 0

    def test_opening_adds_the_spec_column_once(self, tmp_path):
        path = tmp_path / "old.sqlite"
        _write_v3_sqlite(path)
        for _ in range(2):
            with SqliteResultStore(path):
                pass
        conn = sqlite3.connect(path)
        columns = [row[1] for row in conn.execute("PRAGMA table_info(results)")]
        old_rows = conn.execute(
            "SELECT COUNT(*) FROM results WHERE spec IS NULL").fetchone()[0]
        conn.close()
        assert columns == ["fingerprint", "schema_version", "outcome", "spec"]
        assert old_rows == len(OUTCOMES)
