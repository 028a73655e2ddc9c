"""Demo: fault injection, supervised recovery, quarantine, compaction.

Runs the Theorem 8 border campaign under escalating chaos and checks
the fault-tolerance contract end to end:

1. **transient chaos, process backend** — a seeded
   :class:`~repro.faults.FaultPlan` SIGKILLs workers, injects task
   exceptions and delays; the supervised dispatch loop retries and
   re-queues until the result is **equal to the fault-free baseline**,
   and the journal's ledger stays exact;
2. **poison** — one spec fails on every attempt; the supervisor retries,
   bisects, then quarantines it into an ``"error"`` outcome (reported in
   the result, the journal stats and a quarantine-report artifact)
   instead of aborting the campaign — and the quarantined spec is *not*
   persisted, so a later run re-attempts it;
3. **store-write chaos** — a fifth of first writes fail; outcomes
   survive in memory and the failures are counted, never raised;
4. **compaction** — ``python -m repro.store.compact`` drops dead
   schema-version rows and superseded duplicates from the chaos store.

Run with::

    PYTHONPATH=src python examples/campaign_chaos.py

Set ``REPRO_CHAOS_JOURNAL`` and ``REPRO_QUARANTINE_REPORT`` to keep the
artifacts (CI uploads them next to the benchmark JSON).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

from repro.campaign import CampaignRunner, theorem8_specs
from repro.faults import FaultPlan, FaultyStore, RetryPolicy
from repro.provenance import read_journal, replay_ledger
from repro.store import CachingRunner, MemoryResultStore, open_store
from repro.store.compact import compact_store

RETRY = RetryPolicy(
    max_attempts=3, backoff_seconds=0.02, task_timeout_seconds=10.0,
    teardown_grace_seconds=1.0,
)


def main() -> None:
    specs = theorem8_specs([4, 5], seeds=(1,), max_steps=6_000)
    baseline = CampaignRunner().run(specs)
    print(f"campaign: {len(specs)} scenarios, fault-free "
          f"{baseline.verdict_counts()}")

    with tempfile.TemporaryDirectory() as tmp:
        journal_path = Path(os.environ.get(
            "REPRO_CHAOS_JOURNAL", Path(tmp) / "chaos_journal.jsonl"))
        report_path = Path(os.environ.get(
            "REPRO_QUARANTINE_REPORT", Path(tmp) / "quarantine_report.json"))
        store_path = Path(tmp) / "chaos.jsonl"

        # 1. Transient chaos on the process backend: crashed workers and
        #    injected exceptions perturb the schedule, never the result.
        plan = FaultPlan(seed=42, crash_rate=0.1, raise_rate=0.15,
                         delay_rate=0.1, delay_seconds=0.002)
        store = open_store(store_path)
        runner = CachingRunner(
            store,
            CampaignRunner(backend="process", workers=2, chunk_size=4,
                           faults=plan, retry=RETRY),
            journal=journal_path,
        )
        result = runner.run(specs)
        assert result == baseline, "chaos must never change outcomes"
        stats = result.fault_stats
        # The plan hangs nothing: a worker's death is seen on its
        # sentinel, never guessed from a deadline.
        assert stats.task_timeouts == 0, "a death was attributed by timeout"
        print(f"chaos:     equal to baseline under "
              f"{stats.worker_deaths} worker death(s), "
              f"{stats.task_retries} retr{'y' if stats.task_retries == 1 else 'ies'}, "
              f"{stats.task_timeouts} timeout(s)")

        ledger = replay_ledger(read_journal(journal_path)).campaigns[
            runner.last_campaign_id]
        assert ledger.finished and ledger.recorded == ledger.total == len(specs)
        print(f"journal:   ledger exact ({ledger.total} scenarios, "
              f"faults in stats: {sorted(ledger.stats.get('faults', {}))})")

        # 2. Poison one spec: retry -> bisect -> quarantine, campaign
        #    completes, and the quarantine is reported everywhere.
        poisoned = specs[7]
        poison_plan = FaultPlan(poison_labels=(poisoned.label(),))
        poisoned_result = CampaignRunner(
            backend="process", workers=2, chunk_size=8,
            faults=poison_plan, retry=RETRY,
        ).run(specs)
        quarantined = [o for o in poisoned_result.outcomes
                       if o.verdict == "error"
                       and o.error.startswith("QuarantineError")]
        assert [o.spec.label() for o in quarantined] == [poisoned.label()]
        report = {
            "campaign_scenarios": len(specs),
            "fault_stats": poisoned_result.fault_stats.as_dict(),
            "quarantined": [
                {"label": o.spec.label(), "error": o.error}
                for o in quarantined
            ],
        }
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(json.dumps(report, indent=2) + "\n")
        print(f"poison:    {poisoned.label()} quarantined after "
              f"{poisoned_result.fault_stats.bisections} bisection(s); "
              f"report at {report_path}")

        # 3. Store-write chaos: failed writes degrade to counters.
        inner = MemoryResultStore()
        faulty = FaultyStore(inner, FaultPlan(store_failure_rate=0.2))
        tolerant = CachingRunner(faulty, CampaignRunner()).run(specs)
        assert tolerant == baseline
        assert 0 < faulty.failed_writes < len(specs)
        assert len(inner) == len(specs) - faulty.failed_writes
        print(f"store:     {faulty.failed_writes} injected write failures, "
              f"zero lost outcomes")

        # 4. Compact the chaos store (plus a planted dead-schema row).
        store.close()
        with store_path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(
                {"fp": "0" * 64, "v": 1, "outcome": {}}) + "\n")
        compacted = compact_store(store_path)
        assert compacted.rows_dropped_schema == 1
        assert compacted.rows_kept == len(specs)
        print(f"compact:   {compacted.summary()}")

    print("\nall fault-tolerance guarantees hold")


if __name__ == "__main__":
    main()
