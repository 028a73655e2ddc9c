"""Bulk store I/O: batched commits, idle flush, index plans, kill windows.

``commit_batch > 1`` relaxes the per-put durability point to "within one
batch or one flush".  These tests pin everything that relaxation is
*not* allowed to change: read-your-writes, last-write-wins ordering
inside a batch, the JSONL torn-tail classification, and
— via a SIGKILL mid-campaign — the at-most-one-batch loss bound a
resumed campaign relies on.  They also pin the two pure perf claims:
commit counts actually drop, and the bulk skip queries search the
``(schema_version, fingerprint)`` index (``fingerprints()`` from the
index alone).
"""

from __future__ import annotations

import json
import logging
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.store.base as store_base
from repro.campaign import CampaignRunner, theorem8_specs
from repro.campaign.spec import ScenarioOutcome, ScenarioSpec
from repro.exceptions import ConfigurationError
from repro.store import (
    CachingRunner,
    JsonlResultStore,
    SqliteResultStore,
    open_store,
)
from repro.store.fingerprint import SCHEMA_VERSION, fingerprint_spec
from slow_kind import slow_specs

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"


def outcome_for(seed: int, *, steps: int = 1) -> ScenarioOutcome:
    spec = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                        scheduler="random", seed=seed, max_steps=4_000)
    return ScenarioOutcome(spec=spec, verdict="ok", distinct_decisions=1,
                           decided=3, steps=steps)


def batching_store(tmp_path, backend: str, commit_batch: int = 8):
    cls = {"jsonl": JsonlResultStore, "sqlite": SqliteResultStore}[backend]
    return cls(tmp_path / f"store.{backend}", commit_batch=commit_batch)


#: A row each backend's commit rejects: JSONL cannot join it, SQLite
#: inserts the rows before it and then hits the NOT NULL constraint.
UNWRITABLE_ROW = {"jsonl": None,
                  "sqlite": ("unwritable", SCHEMA_VERSION, "{}", None)}

#: What the backend's commit raises on :data:`UNWRITABLE_ROW`.
COMMIT_ERRORS = (TypeError, sqlite3.IntegrityError)


def fail_first_commit(monkeypatch, backend: str) -> None:
    """Make the backend's first commit fail part-way through its batch."""
    cls = {"jsonl": JsonlResultStore, "sqlite": SqliteResultStore}[backend]
    real = cls._commit
    calls = []

    def commit(self, rows):
        calls.append(len(rows))
        real(self, [*rows, UNWRITABLE_ROW[backend]] if len(calls) == 1 else rows)

    monkeypatch.setattr(cls, "_commit", commit)


def assert_no_row_unaccounted(store) -> None:
    io = store.io_stats()
    assert io["puts"] == io["committed_rows"] + io["buffered"]


class TestBatchedCommits:
    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_commit_counts_drop_to_one_per_batch(self, tmp_path, backend):
        store = batching_store(tmp_path, backend, commit_batch=8)
        try:
            for seed in range(20):
                store.put(fingerprint_spec(outcome_for(seed).spec),
                          outcome_for(seed))
            store.flush()
            io = store.io_stats()
            assert io["puts"] == 20
            assert io["committed_rows"] == 20
            assert io["commits"] == 3  # 8 + 8 + flushed 4
            assert io["max_commit_batch"] == 8
            assert io["buffered"] == 0
        finally:
            store.close()

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_default_keeps_per_put_commits(self, tmp_path, backend):
        store = batching_store(tmp_path, backend, commit_batch=1)
        try:
            for seed in range(5):
                store.put(fingerprint_spec(outcome_for(seed).spec),
                          outcome_for(seed))
            io = store.io_stats()
            assert io["commits"] == 5
            assert io["max_commit_batch"] == 1
        finally:
            store.close()

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_read_your_writes_while_buffered(self, tmp_path, backend):
        store = batching_store(tmp_path, backend, commit_batch=100)
        try:
            outcome = outcome_for(1)
            digest = fingerprint_spec(outcome.spec)
            store.put(digest, outcome)
            assert store.get(digest) == outcome
            assert digest in store.get_many([outcome.spec])
            assert digest in store.fingerprints()
        finally:
            store.close()

    def test_sqlite_reads_flush_first(self, tmp_path):
        store = batching_store(tmp_path, "sqlite", commit_batch=100)
        try:
            outcome = outcome_for(1)
            store.put(fingerprint_spec(outcome.spec), outcome)
            assert store.io_stats()["buffered"] == 1
            store.get(fingerprint_spec(outcome.spec))
            assert store.io_stats()["buffered"] == 0  # the read drained it
        finally:
            store.close()

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_close_flushes_buffered_rows(self, tmp_path, backend):
        store = batching_store(tmp_path, backend, commit_batch=100)
        outcomes = [outcome_for(seed) for seed in range(7)]
        for outcome in outcomes:
            store.put(fingerprint_spec(outcome.spec), outcome)
        store.close()
        with open_store(tmp_path / f"store.{backend}") as reopened:
            assert len(reopened) == 7

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_idle_timer_flushes_partial_batch(self, tmp_path, backend,
                                              monkeypatch):
        monkeypatch.setattr(store_base, "_IDLE_FLUSH_SECONDS", 0.05)
        store = batching_store(tmp_path, backend, commit_batch=100)
        try:
            outcome = outcome_for(1)
            store.put(fingerprint_spec(outcome.spec), outcome)
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if store.io_stats()["buffered"] == 0:
                    break
                time.sleep(0.01)
            io = store.io_stats()
            assert io["buffered"] == 0
            assert io["commits"] == 1
        finally:
            store.close()
        # Durable on disk, not just indexed in memory.
        with open_store(tmp_path / f"store.{backend}") as reopened:
            assert len(reopened) == 1

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_last_write_wins_inside_one_batch(self, tmp_path, backend):
        old = outcome_for(1, steps=1)
        new = outcome_for(1, steps=2)  # same fingerprint, later write
        digest = fingerprint_spec(old.spec)
        store = batching_store(tmp_path, backend, commit_batch=100)
        try:
            store.put(digest, old)
            store.put(digest, new)  # both rows pending in one batch
            assert store.get(digest) == new
        finally:
            store.close()
        with open_store(tmp_path / f"store.{backend}") as reopened:
            assert reopened.get(digest) == new
            assert len(reopened) == 1

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_commit_batch_validated(self, tmp_path, backend):
        with pytest.raises(ConfigurationError):
            batching_store(tmp_path, backend, commit_batch=0)

    def test_open_store_threads_commit_batch(self, tmp_path):
        with open_store(tmp_path / "s.sqlite", commit_batch=4) as store:
            assert store.io_stats()["commit_batch"] == 4
        with open_store(tmp_path / "s.jsonl", commit_batch=4) as store:
            assert store.io_stats()["commit_batch"] == 4
        with open_store(":memory:") as store:
            assert store.io_stats() == {}  # in-memory ignores batching


class TestQueryPlan:
    def test_bulk_skip_query_is_index_only(self, tmp_path):
        store = SqliteResultStore(tmp_path / "plan.sqlite")
        try:
            for seed in range(10):
                store.put(fingerprint_spec(outcome_for(seed).spec),
                          outcome_for(seed))
            conn = store._connection()
            placeholders = ",".join("?" for _ in range(3))
            plan_rows = conn.execute(
                f"EXPLAIN QUERY PLAN SELECT fingerprint, outcome FROM results "
                f"WHERE schema_version = ? AND fingerprint IN ({placeholders})",
                [SCHEMA_VERSION, "a" * 64, "b" * 64, "c" * 64],
            ).fetchall()
            plan = " ".join(str(row) for row in plan_rows)
            assert "USING INDEX" in plan or "USING COVERING INDEX" in plan, plan
            # fingerprints() — the skip pass's other query — never walks
            # the payload-bearing table rows.
            scan_rows = conn.execute(
                "EXPLAIN QUERY PLAN SELECT fingerprint FROM results "
                "WHERE schema_version = ?", (SCHEMA_VERSION,),
            ).fetchall()
            scan = " ".join(str(row) for row in scan_rows)
            assert "COVERING INDEX results_schema_fingerprint" in scan, scan
        finally:
            store.close()


class TestFailedCommits:
    """A commit that raises keeps its rows pending: the next commit
    carries them, and no row is ever lost or counted twice."""

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_failed_batch_commit_raises_and_keeps_the_batch(
            self, tmp_path, monkeypatch, backend):
        monkeypatch.setattr(store_base, "_IDLE_FLUSH_SECONDS", 3600.0)
        fail_first_commit(monkeypatch, backend)
        store = batching_store(tmp_path, backend, commit_batch=4)
        outcomes = [outcome_for(seed) for seed in range(8)]
        failed = []
        try:
            for outcome in outcomes:
                digest = fingerprint_spec(outcome.spec)
                try:
                    store.put(digest, outcome)
                except COMMIT_ERRORS:
                    failed.append(outcome)
                    if backend == "sqlite":  # the partial insert rolled back
                        assert not store._conn.in_transaction
                assert_no_row_unaccounted(store)
            assert failed == [outcomes[3]]  # the put that filled the batch
            assert store.get(fingerprint_spec(failed[0].spec)) == failed[0]
            store.flush()
            assert_no_row_unaccounted(store)
            assert store.io_stats()["committed_rows"] == 8
        finally:
            store.close()
        with open_store(tmp_path / f"store.{backend}") as reopened:
            assert len(reopened) == 8

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    def test_failed_idle_commit_is_logged_and_keeps_the_rows(
            self, tmp_path, monkeypatch, backend):
        monkeypatch.setattr(store_base, "_IDLE_FLUSH_SECONDS", 0.05)
        fail_first_commit(monkeypatch, backend)
        logged = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = logged.append
        logger = logging.getLogger("repro.store")
        logger.addHandler(handler)
        store = batching_store(tmp_path, backend, commit_batch=100)
        try:
            store.put(fingerprint_spec(outcome_for(1).spec), outcome_for(1))
            deadline = time.monotonic() + 5.0
            while not logged and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(logged) == 1  # the timer's failed commit
            assert store.io_stats()["buffered"] == 1
            assert_no_row_unaccounted(store)
            store.flush()
            assert_no_row_unaccounted(store)
            assert store.io_stats()["committed_rows"] == 1
        finally:
            logger.removeHandler(handler)
            store.close()
        with open_store(tmp_path / f"store.{backend}") as reopened:
            assert len(reopened) == 1


class TestJsonlTornTail:
    """The byte-level torn-tail classification must hold for files
    written by *buffered* appends exactly as for per-record appends."""

    def _buffered_file(self, tmp_path) -> Path:
        path = tmp_path / "torn.jsonl"
        store = JsonlResultStore(path, commit_batch=5)
        for seed in range(5):  # exactly one batched write of 5 lines
            store.put(fingerprint_spec(outcome_for(seed).spec),
                      outcome_for(seed))
        assert store.io_stats()["commits"] == 1
        store.close()
        return path

    def test_torn_final_line_truncated_away(self, tmp_path):
        path = self._buffered_file(tmp_path)
        with path.open("ab") as handle:
            handle.write(b'{"fp": "dead', )  # a kill mid-batched-write
        with JsonlResultStore(path) as store:
            assert len(store) == 5
        assert path.read_bytes().count(b"\n") == 5  # tail gone, file clean

    def test_torn_json_prefix_line_truncated_away(self, tmp_path):
        path = self._buffered_file(tmp_path)
        with path.open("ab") as handle:
            handle.write(b'{"fp": "ab"}')  # valid JSON, incomplete record
        with JsonlResultStore(path) as store:
            assert len(store) == 5

    def test_garbage_with_newline_is_corruption(self, tmp_path):
        path = self._buffered_file(tmp_path)
        with path.open("ab") as handle:
            handle.write(b"!!! not json !!!\n")
        with pytest.raises(ConfigurationError, match="corrupt"):
            JsonlResultStore(path)

    def test_mid_file_damage_is_corruption(self, tmp_path):
        path = self._buffered_file(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = b"torn mid file\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(ConfigurationError, match="corrupt"):
            JsonlResultStore(path)


SCENARIOS = 40
SLEEP_MS = 30
COMMIT_BATCH = 4

CHILD_SCRIPT = """
import sys
from repro.campaign import CampaignRunner
from repro.store import CachingRunner, open_store
from slow_kind import slow_specs

store_path, count, sleep_ms, commit_batch = (
    sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4]))
specs = slow_specs(count, sleep_ms=sleep_ms)
runner = CachingRunner(
    open_store(store_path, commit_batch=commit_batch),
    CampaignRunner(backend="process", workers=2, chunk_size=1),
)
runner.run(specs)
print("FINISHED", flush=True)
"""


def _stored_count(path: Path) -> int:
    if not path.exists():
        return 0
    if path.suffix == ".jsonl":
        return path.read_bytes().count(b"\n")
    try:
        connection = sqlite3.connect(str(path))
        try:
            row = connection.execute("SELECT COUNT(*) FROM results").fetchone()
            return int(row[0])
        finally:
            connection.close()
    except sqlite3.Error:
        return 0


def _kill_batched_child(store_path: Path, kill_after: int) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    with subprocess.Popen(
        [sys.executable, "-c", CHILD_SCRIPT, str(store_path),
         str(SCENARIOS), str(SLEEP_MS), str(COMMIT_BATCH)],
        env=env, cwd=str(HERE),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    ) as child:
        try:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if _stored_count(store_path) >= kill_after:
                    break
                if child.poll() is not None:
                    stdout, stderr = child.communicate(timeout=10)
                    pytest.fail(
                        f"campaign child exited before the kill "
                        f"(rc={child.returncode}):\n{stderr.decode(errors='replace')}"
                    )
                time.sleep(0.02)
            else:
                pytest.fail(f"store never reached {kill_after} outcomes in time")
            os.killpg(os.getpgid(child.pid), signal.SIGKILL)
            child.wait(timeout=30)
        finally:
            if child.poll() is None:
                try:
                    os.killpg(os.getpgid(child.pid), signal.SIGKILL)
                except ProcessLookupError:
                    pass
                child.wait(timeout=30)
    assert child.returncode != 0
    return _stored_count(store_path)


@pytest.mark.parametrize("store_name", ["batched.jsonl", "batched.sqlite"])
def test_sigkill_mid_batched_commit_loses_at_most_one_batch(tmp_path, store_name):
    """The new durability point: a kill mid-campaign with ``commit_batch``
    buffering still resumes to the identical result, and the lost window
    is bounded — the campaign demonstrably persisted progress in batches
    and the resume re-runs only what the tail lost."""
    store_path = tmp_path / store_name
    completed_before_kill = _kill_batched_child(store_path, kill_after=6)
    assert completed_before_kill >= 6
    assert completed_before_kill < SCENARIOS

    specs = slow_specs(SCENARIOS, sleep_ms=SLEEP_MS)
    with open_store(store_path, commit_batch=COMMIT_BATCH) as store:
        completed = len(store)
        assert completed >= completed_before_kill
        resumed_runner = CachingRunner(
            store, CampaignRunner(backend="process", workers=2, chunk_size=1))
        resumed = resumed_runner.run(specs)

    uninterrupted = CampaignRunner().run(specs)
    assert resumed == uninterrupted
    stats = resumed_runner.last_stats
    # Everything durably committed before the kill is served from cache;
    # the loss window is the buffered tail, at most one commit batch.
    assert stats.cached >= completed_before_kill
    assert stats.cached + stats.executed == SCENARIOS


class TestCampaignsOverBatchedStores:
    def test_warm_rerun_equal_and_fully_cached(self, tmp_path):
        specs = theorem8_specs([4], seeds=(1,), max_steps=4_000)
        path = tmp_path / "campaign.sqlite"
        with open_store(path, commit_batch=16) as store:
            runner = CachingRunner(store, CampaignRunner())
            cold = runner.run(specs)
            io = store.io_stats()
            assert io["commits"] < io["puts"]  # batching actually engaged
        with open_store(path, commit_batch=16) as store:
            runner = CachingRunner(store, CampaignRunner())
            warm = runner.run(specs)
            assert runner.last_stats.cached == len(specs)
        assert warm == cold

    def test_no_spec_hashed_twice_per_campaign(self, tmp_path, monkeypatch):
        """The fingerprint memo + CachingRunner threading contract: one
        sha256 per distinct spec instance for the whole campaign."""
        import repro.store.fingerprint as fingerprint_module

        calls = []
        real_sha256 = fingerprint_module.hashlib.sha256

        def counting_sha256(blob):
            calls.append(blob)
            return real_sha256(blob)

        monkeypatch.setattr(
            fingerprint_module.hashlib, "sha256", counting_sha256)
        specs = theorem8_specs([4], seeds=(1,), max_steps=4_000)
        with open_store(tmp_path / "hash.sqlite", commit_batch=8) as store:
            CachingRunner(store, CampaignRunner()).run(specs)
        # One fingerprint hash per spec — the skip pass, the store puts
        # and persist() all reuse it (derived_seed hashes are separate
        # and counted here too, also at most one per executed spec).
        assert len(calls) <= 2 * len(specs)
