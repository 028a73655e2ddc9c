"""The query layer: cross-campaign aggregation over stores and journals.

The headline scenario is the acceptance criterion: two campaigns merged
into one SQLite store plus one journal, answered with a by-(kind, n,
scheduler) cost aggregation.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignRunner, theorem8_specs
from repro.campaign.spec import ScenarioOutcome, ScenarioSpec
from repro.exceptions import ConfigurationError
from repro.provenance import (
    ResourceUsage,
    aggregate_cost,
    aggregate_outcomes,
    disagreement_report,
    disagreements,
    read_journal,
    replay_ledger,
)
from repro.store import CachingRunner, MemoryResultStore, fingerprint_spec, open_store

PINNED_KWARGS = dict(seeds=(1,), max_steps=4_000)


@pytest.fixture(scope="module")
def merged(tmp_path_factory):
    """Two campaigns (n=4, then n=5) merged into one store + journal."""
    tmp = tmp_path_factory.mktemp("provenance-queries")
    store_path = tmp / "merged.sqlite"
    journal_path = tmp / "journal.jsonl"
    with CachingRunner(open_store(store_path), journal=journal_path) as runner:
        runner.run(theorem8_specs([4], **PINNED_KWARGS))
        runner.run(theorem8_specs([5], **PINNED_KWARGS))
    replay = replay_ledger(read_journal(journal_path))
    return store_path, replay


@pytest.fixture(scope="module")
def rerun(tmp_path_factory):
    """``merged``'s two campaigns, then a warm re-run of the n=4 one.

    Returns the store path, the replay before and after the re-run, and
    the re-run's campaign id.
    """
    tmp = tmp_path_factory.mktemp("provenance-rerun")
    store_path = tmp / "merged.sqlite"
    journal_path = tmp / "journal.jsonl"
    with CachingRunner(open_store(store_path), journal=journal_path) as runner:
        runner.run(theorem8_specs([4], **PINNED_KWARGS))
        runner.run(theorem8_specs([5], **PINNED_KWARGS))
        cold = replay_ledger(read_journal(journal_path))
        runner.run(theorem8_specs([4], **PINNED_KWARGS))
        warm_campaign = runner.last_campaign_id
    return store_path, cold, replay_ledger(read_journal(journal_path)), warm_campaign


class TestAggregateOutcomes:
    def test_by_kind_n_scheduler_covers_every_stored_outcome(self, merged):
        store_path, _replay = merged
        specs = theorem8_specs([4], **PINNED_KWARGS) + theorem8_specs([5], **PINNED_KWARGS)
        with open_store(store_path) as store:
            stored = len(store)
            groups = aggregate_outcomes(store, ("kind", "n", "scheduler"))
        assert sum(group.scenarios for group in groups.values()) == stored
        # Both campaigns appear: n=4 and n=5 groups for each kind.
        ns = {key[1] for key in groups}
        assert ns == {4, 5}
        kinds = {key[0] for key in groups}
        assert kinds == {spec.kind for spec in specs}

    def test_verdict_split_sums_to_scenarios(self, merged):
        store_path, _replay = merged
        with open_store(store_path) as store:
            groups = aggregate_outcomes(store, ("kind",))
        for group in groups.values():
            assert group.ok + group.violation + group.error == group.scenarios

    def test_unknown_dimension_is_rejected(self, merged):
        store_path, _replay = merged
        with open_store(store_path) as store:
            with pytest.raises(ConfigurationError, match="cannot group by"):
                aggregate_outcomes(store, ("kind", "colour"))


class TestAggregateCost:
    def test_two_merged_campaigns_by_kind_n_scheduler(self, merged):
        """The acceptance criterion: cost aggregation over two campaigns."""
        store_path, replay = merged
        assert len(replay.campaigns) == 2
        assert all(ledger.finished for ledger in replay.campaigns.values())
        with open_store(store_path) as store:
            cost, unresolved = aggregate_cost(store, replay, ("kind", "n", "scheduler"))
        assert unresolved == ()
        # Every executed scenario of both campaigns is attributed.
        assert sum(group.scenarios for group in cost.values()) == len(replay.ran_fingerprints)
        # Cost carries wall time (journal) joined to spec dims (store).
        assert sum(group.usage.seconds for group in cost.values()) == pytest.approx(
            replay.total_usage().seconds)
        assert {key[1] for key in cost} == {4, 5}

    def test_include_cached_adds_replays(self, rerun):
        store_path, cold, warm, campaign = rerun
        specs = theorem8_specs([4], **PINNED_KWARGS)
        assert len(specs) == 44
        assert warm.campaigns[campaign].cached == 44
        assert warm.campaigns[campaign].ran == 0
        with open_store(store_path) as store:
            before, _ = aggregate_cost(store, cold, ("kind",), include_cached=True)
            after, unresolved = aggregate_cost(
                store, warm, ("kind",), include_cached=True)
            stored = [store.get(fingerprint_spec(spec)) for spec in specs]
        assert unresolved == ()
        assert set(after) == set(before)
        for key, group in after.items():
            replays = [o for o in stored if (o.spec.kind,) == key]
            assert group.scenarios - before[key].scenarios == len(replays)
            for verdict in ("ok", "violation", "error"):
                assert (getattr(group, verdict) - getattr(before[key], verdict)
                        == sum(1 for o in replays if o.verdict == verdict))
            assert (group.usage.steps - before[key].usage.steps
                    == sum(o.steps for o in replays))
            assert (group.usage.messages_sent - before[key].usage.messages_sent
                    == sum(o.messages_sent for o in replays))
            # A cache hit costs no wall time.
            assert group.usage.seconds == pytest.approx(before[key].usage.seconds)
        added_steps = sum(o.steps for o in stored)
        assert (warm.total_usage(include_cached=True).steps
                - cold.total_usage(include_cached=True).steps == added_steps)
        assert warm.total_usage().steps == cold.total_usage().steps

    def test_unresolved_fingerprints_are_reported_not_dropped_silently(self, merged):
        _store_path, replay = merged
        empty = MemoryResultStore()
        cost, unresolved = aggregate_cost(empty, replay, ("kind",))
        assert cost == {}
        assert len(unresolved) == len(
            [r for r in replay.scenario_records if r["decision"] == "ran"])


class TestDisagreements:
    def _store_with(self, *verdicts):
        store = MemoryResultStore()
        for index, verdict in enumerate(verdicts):
            spec = ScenarioSpec(kind="probe", n=4, f=1, k=1, seed=index)
            store.put("%064x" % index, ScenarioOutcome(
                spec=spec, verdict=verdict,
                violations=("agreement",) if verdict == "violation" else (),
                error="boom" if verdict == "error" else "",
            ))
        return store

    def test_non_ok_outcomes_surface_worst_first(self):
        store = self._store_with("ok", "error", "violation", "ok")
        flagged = disagreements(store)
        assert [outcome.verdict for outcome in flagged] == ["violation", "error"]

    def test_report_drills_down_and_is_empty_safe(self):
        assert "every stored outcome is ok" in disagreement_report(self._store_with("ok"))
        report = disagreement_report(self._store_with("violation", "error"))
        assert "2 non-ok outcome(s)" in report
        assert "agreement" in report and "boom" in report


class TestStoreItems:
    def test_default_items_iterates_sorted_pairs(self):
        store = MemoryResultStore()
        spec = ScenarioSpec(kind="probe", n=4, f=1, k=1)
        store.put("f" * 64, ScenarioOutcome(spec=spec, verdict="ok"))
        store.put("0" * 64, ScenarioOutcome(spec=spec, verdict="ok"))
        digests = [digest for digest, _outcome in store.items()]
        assert digests == sorted(digests)
        assert len(digests) == 2

    def test_sqlite_items_matches_default(self, tmp_path):
        specs = theorem8_specs([4], **PINNED_KWARGS)
        with CachingRunner(open_store(tmp_path / "s.sqlite")) as runner:
            runner.run(specs)
        with open_store(tmp_path / "s.sqlite") as store:
            via_items = dict(store.items())
            via_get = {fp: store.get(fp) for fp in store.fingerprints()}
        assert via_items == via_get
