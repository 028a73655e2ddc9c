"""Demo: persistent campaigns — caching, resume, budgets, provenance.

Runs the Theorem 8 border campaign against a persistent result store
three times:

1. **cold** — every scenario executes, each outcome is persisted the
   moment it exists (kill the run at any point: nothing completed is
   lost);
2. **warm** — the identical campaign replays entirely from cache and
   produces a ``CampaignResult`` *equal* to the cold one;
3. **interrupted + resumed** — a half-populated store stands in for a
   killed run; the resumed campaign recomputes only the missing half and
   still equals the uninterrupted result.

It then shows an adaptive budget (``EarlyStopPolicy`` stops sampling a
point once a violation is certified), the campaign **journal** every run
appended to (per-scenario ran/cached/skipped decisions with their
``ResourceUsage``), the query layer's cost aggregation, and the JSON
round trip of a full campaign result.  Run with::

    PYTHONPATH=src python examples/campaign_store.py

Set ``REPRO_JOURNAL=/path/to/journal.jsonl`` to keep the journal (CI
uploads it as an artifact next to the benchmark JSON).
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

from repro.campaign import CampaignResult, CampaignRunner, theorem8_specs
from repro.provenance import aggregate_cost, read_journal, replay_ledger
from repro.store import (
    CachingRunner,
    EarlyStopPolicy,
    LogProgressReporter,
    fingerprint_spec,
    open_store,
)


def main() -> None:
    n_values = [4, 5]
    specs = theorem8_specs(n_values, seeds=(1,), max_steps=6_000)
    print(f"campaign: {len(specs)} scenarios over n={n_values}")
    print(f"  example fingerprint: {fingerprint_spec(specs[0])[:12]}… "
          f"<- {specs[0].label()}")

    with tempfile.TemporaryDirectory() as tmp:
        jsonl_path = Path(tmp) / "theorem8.jsonl"
        sqlite_path = Path(tmp) / "theorem8.sqlite"
        journal_path = Path(os.environ.get("REPRO_JOURNAL", Path(tmp) / "journal.jsonl"))

        # 1. Cold run: outcomes are persisted incrementally, with live
        #    pool-wide progress from per-scenario events, and every
        #    decision journaled.
        with CachingRunner(
            open_store(jsonl_path),
            CampaignRunner(backend="process", workers=2),
            progress=LogProgressReporter(every=25),
            journal=journal_path,
        ) as runner:
            cold = runner.run(specs)
            print(f"cold run:  {runner.last_stats.as_dict()}")
            assert runner.last_stats.executed == len(specs)

        # 2. Warm run (fresh store handle, as after a restart): pure
        #    cache replay, equal result, journaled as all-cached.
        with CachingRunner(open_store(jsonl_path), journal=journal_path) as runner:
            warm = runner.run(specs)
            print(f"warm run:  {runner.last_stats.as_dict()}")
            assert runner.last_stats.executed == 0
            assert warm == cold, "cache replay must equal the cold campaign"

        # 3. Interrupted + resumed, on the SQLite backend: half the
        #    campaign is already stored (standing in for a killed run) —
        #    the resumed campaign computes only the other half.
        with CachingRunner(open_store(sqlite_path), journal=journal_path) as half:
            half.run(specs[: len(specs) // 2])
        with CachingRunner(
            open_store(sqlite_path),
            CampaignRunner(backend="process", workers=2),
            journal=journal_path,
        ) as runner:
            resumed = runner.run(specs)
            print(f"resumed:   {runner.last_stats.as_dict()}")
            assert runner.last_stats.cached == len(specs) // 2
            assert resumed == cold, "resumed campaign must equal an uninterrupted one"

        # 4. Adaptive budget: certify each point's violation once, skip
        #    the rest of that point's samples.
        policy = EarlyStopPolicy(stop_on=("violation", "ok"))
        with CachingRunner(
            open_store(":memory:"), policy=policy, journal=journal_path
        ) as runner:
            adaptive = runner.run(specs)
            print(f"adaptive:  {runner.last_stats.as_dict()} "
                  f"({len(policy.certified_points())} points certified)")
            assert runner.last_stats.skipped == policy.skipped_count
            assert len(adaptive.outcomes) == len(specs) - policy.skipped_count

        # 5. The journal is the audit trail of everything above: every
        #    campaign finished, every per-scenario ledger sums exactly.
        replay = replay_ledger(read_journal(journal_path))
        print(f"journal:   {len(replay.campaigns)} campaigns at {journal_path}")
        for ledger in replay.campaigns.values():
            assert ledger.finished
            assert ledger.ran + ledger.cached + ledger.skipped == ledger.total
            print(f"  {ledger.campaign}: {ledger.ran} ran, {ledger.cached} cached, "
                  f"{ledger.skipped} skipped / {ledger.total} "
                  f"({ledger.usage.seconds:.2f}s, {ledger.usage.steps} steps)")
        total = replay.total_usage()
        print(f"  executed cost: {total.seconds:.2f}s wall, {total.steps} steps, "
              f"{total.messages_sent} msgs sent")

        # 6. Cost by grid region: journal usage joined to stored specs.
        with open_store(sqlite_path) as store:
            cost, unresolved = aggregate_cost(store, replay, ("kind", "n"))
        for key in sorted(cost, key=repr):
            group = cost[key]
            print(f"  cost {key}: {group.scenarios} ran, "
                  f"{group.usage.seconds:.3f}s, {group.usage.steps} steps")

    # 7. A campaign result is archivable JSON.
    restored = CampaignResult.from_json(cold.to_json())
    assert restored == cold
    print("json round trip: restored == cold campaign")
    print("\nall persistence and provenance guarantees hold")


if __name__ == "__main__":
    main()
