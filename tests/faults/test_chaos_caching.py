"""Chaos through the full persistence stack: CachingRunner + journal +
telemetry + (faulty) stores.

Pins how infrastructure failures *surface*: quarantined specs become
``"error"`` outcomes visible in the result, the journal (whose ledger
must stay exact — ``replay_ledger`` validates it) and the telemetry
counters; store-write failures degrade to warnings and counters, never
to lost outcomes; and quarantined outcomes are **not** persisted, so a
later run re-attempts the spec instead of caching an infrastructure
accident as if it were a property of the scenario.
"""

from __future__ import annotations

import sqlite3

import pytest

import repro.store.base as store_base
from repro.campaign import CampaignRunner, theorem8_specs
from repro.exceptions import ConfigurationError
from repro.faults import FaultPlan, FaultyStore, InjectedFaultError, RetryPolicy
from repro.provenance import read_journal, replay_ledger
from repro.store import (
    CachingRunner,
    MemoryResultStore,
    fingerprint_spec,
    open_store,
)
from repro.telemetry.session import TelemetryConfig, TelemetrySession

SPECS = theorem8_specs([4], seeds=(1,), max_steps=4_000)
BASELINE = CampaignRunner().run(SPECS)

FAST_RETRY = RetryPolicy(
    max_attempts=3, backoff_seconds=0.01, task_timeout_seconds=5.0,
    teardown_grace_seconds=1.0,
)


class TestQuarantineSurfacing:
    def _run_poisoned(self, tmp_path, store):
        poisoned = SPECS[5]
        plan = FaultPlan(poison_labels=(poisoned.label(),))
        journal_path = tmp_path / "journal.jsonl"
        telemetry = TelemetrySession(TelemetryConfig(sample_threshold=0))
        runner = CachingRunner(
            store,
            CampaignRunner(faults=plan, retry=FAST_RETRY),
            journal=journal_path,
            telemetry=telemetry,
        )
        result = runner.run(SPECS)
        # Close the journal only: closing a MemoryResultStore clears the
        # rows the callers read afterwards.
        runner.journal.close()
        return poisoned, journal_path, telemetry, runner, result

    def test_quarantine_reaches_result_journal_and_telemetry(self, tmp_path):
        store = MemoryResultStore()
        poisoned, journal_path, telemetry, runner, result = (
            self._run_poisoned(tmp_path, store))

        # Result: exactly one quarantined error outcome.
        bad = [o for o in result.outcomes
               if o.verdict == "error" and o.error.startswith("QuarantineError")]
        assert [o.spec for o in bad] == [poisoned]
        assert result.fault_stats.quarantined == 1

        # Journal: the ledger is exact despite the quarantined scenario
        # never reaching a worker's event emitter.
        replay = replay_ledger(read_journal(journal_path))
        ledger = replay.campaigns[runner.last_campaign_id]
        assert ledger.finished
        assert ledger.total == len(SPECS)
        assert ledger.recorded == ledger.total
        assert ledger.stats.get("faults", {}).get("quarantined") == 1

        # Telemetry: the counter exists, flagged timing so it never
        # perturbs cross-backend deterministic snapshots.
        assert telemetry.metrics.counter("quarantined").value == 1
        assert "quarantined" not in telemetry.deterministic_snapshot()

    def test_quarantined_outcomes_are_not_persisted(self, tmp_path):
        store = MemoryResultStore()
        poisoned, _, _, _, result = self._run_poisoned(tmp_path, store)
        assert store.get(fingerprint_spec(poisoned)) is None
        for outcome in result.outcomes:
            if outcome.spec != poisoned:
                assert store.get(fingerprint_spec(outcome.spec)) == outcome

    def test_later_run_reattempts_the_quarantined_spec(self, tmp_path):
        store = MemoryResultStore()
        poisoned, *_ = self._run_poisoned(tmp_path, store)
        # Same store, fault-free runner: the quarantined spec is the one
        # cache miss, and the campaign converges to the baseline.
        runner = CachingRunner(store, CampaignRunner())
        result = runner.run(SPECS)
        assert result == BASELINE
        assert runner.last_stats.cached == len(SPECS) - 1
        assert runner.last_stats.executed == 1


class TestFaultyStoreTolerance:
    def test_write_failures_do_not_lose_outcomes(self, tmp_path):
        inner = open_store(tmp_path / "store.jsonl")
        faulty = FaultyStore(inner, FaultPlan(store_failure_rate=1.0))
        runner = CachingRunner(faulty, CampaignRunner())
        result = runner.run(SPECS)

        # Every write failed, yet the campaign result is untouched.
        assert result == BASELINE
        assert faulty.failed_writes == len(SPECS)
        assert len(inner) == 0

        # The same store instance retries on the next run (attempt 2 is
        # past the transient gate) and persistence heals.
        healed = CachingRunner(faulty, CampaignRunner()).run(SPECS)
        assert healed == BASELINE
        assert len(inner) == len(SPECS)

        replay_runner = CachingRunner(faulty)
        assert replay_runner.run(SPECS) == BASELINE
        assert replay_runner.last_stats.cached == len(SPECS)
        inner.close()

    @pytest.mark.parametrize("name", ["store.jsonl", "store.sqlite"])
    def test_run_flushes_and_reports_through_the_wrapper(
            self, tmp_path, monkeypatch, name):
        # No idle flush during the test: only the campaign's closing
        # flush can put the batched outcomes on disk.
        monkeypatch.setattr(store_base, "_IDLE_FLUSH_SECONDS", 3600.0)
        path = tmp_path / name
        inner = open_store(path, commit_batch=1000)
        faulty = FaultyStore(inner, FaultPlan(store_failure_rate=0.0))
        try:
            CachingRunner(faulty, CampaignRunner()).run(SPECS)
            if path.suffix == ".jsonl":
                on_disk = path.read_bytes().count(b"\n")
            else:
                connection = sqlite3.connect(str(path))
                try:
                    (on_disk,) = connection.execute(
                        "SELECT COUNT(*) FROM results").fetchone()
                finally:
                    connection.close()
            assert on_disk == len(SPECS)
            assert faulty.io_stats() == inner.io_stats()
            assert faulty.io_stats()["puts"] == len(SPECS)
        finally:
            inner.close()

    def test_store_write_failures_are_counted_in_journal_stats(self, tmp_path):
        faulty = FaultyStore(MemoryResultStore(),
                             FaultPlan(store_failure_rate=1.0))
        journal_path = tmp_path / "journal.jsonl"
        with CachingRunner(faulty, CampaignRunner(),
                           journal=journal_path) as runner:
            runner.run(SPECS)
        replay = replay_ledger(read_journal(journal_path))
        ledger = replay.campaigns[runner.last_campaign_id]
        assert ledger.stats.get("store_write_failures") == len(SPECS)

    def test_direct_puts_raise_the_injected_error(self):
        faulty = FaultyStore(MemoryResultStore(),
                             FaultPlan(store_failure_rate=1.0))
        outcome = BASELINE.outcomes[0]
        with pytest.raises(InjectedFaultError):
            faulty.put(fingerprint_spec(outcome.spec), outcome)
        # Second attempt on the same fingerprint passes the gate.
        faulty.put(fingerprint_spec(outcome.spec), outcome)
        assert faulty.get(fingerprint_spec(outcome.spec)) == outcome

    @pytest.mark.parametrize("backend", [
        {"backend": "serial"},
        {"backend": "process", "workers": 2},
    ], ids=["serial", "process"])
    def test_configuration_errors_still_propagate(self, backend):
        # A user mistake (unpersistable spec) must raise, not be absorbed
        # as a tolerated infrastructure failure.
        class Broken(MemoryResultStore):
            def put(self, fingerprint, outcome):
                raise ConfigurationError("unpersistable")

        runner = CachingRunner(Broken(), CampaignRunner(**backend))
        with pytest.raises(ConfigurationError):
            runner.run(SPECS[:2])


class TestChaoticCachingEquality:
    def test_process_chaos_under_caching_matches_baseline(self, tmp_path):
        plan = FaultPlan(seed=31, crash_rate=0.1, raise_rate=0.15)
        journal_path = tmp_path / "journal.jsonl"
        store = open_store(tmp_path / "store.jsonl")
        runner = CachingRunner(
            store,
            CampaignRunner(backend="process", workers=2, chunk_size=4,
                           faults=plan, retry=FAST_RETRY),
            journal=journal_path,
        )
        result = runner.run(SPECS)
        runner.close()
        assert result == BASELINE
        assert result.fault_stats.task_retries >= 1

        # Retried chunks re-emit worker events; the journal ledger must
        # still be exact — one scenario record per slot.
        replay = replay_ledger(read_journal(journal_path))
        ledger = replay.campaigns[runner.last_campaign_id]
        assert ledger.finished
        assert ledger.recorded == ledger.total == len(SPECS)
        assert ledger.stats.get("faults", {}).get("task_retries", 0) >= 1
