"""The campaign journal: writing, torn-tail reading, ledger replay."""

from __future__ import annotations

import json
import threading

import pytest

from repro.campaign import CampaignRunner, theorem8_specs
from repro.exceptions import ConfigurationError
from repro.provenance import (
    JOURNAL_SCHEMA_VERSION,
    CampaignJournal,
    ResourceUsage,
    aggregate_cost,
    read_journal,
    replay_ledger,
)
from repro.store import CachingRunner, MemoryResultStore, fingerprint_spec

FP_A = "a" * 64
FP_B = "b" * 64
FP_C = "c" * 64


def _write_campaign(journal: CampaignJournal, campaign: str, decisions) -> None:
    journal.campaign_started(campaign, len(decisions), backend="serial")
    for fingerprint, decision in decisions:
        journal.scenario(
            campaign, fingerprint, decision,
            verdict="ok", usage=ResourceUsage(seconds=0.1, steps=5),
        )
    journal.campaign_finished(campaign, {"total": len(decisions)})


class TestJournalRoundTrip:
    def test_records_replay_to_a_summing_ledger(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            _write_campaign(journal, "c1", [(FP_A, "ran"), (FP_B, "cached"), (FP_C, "skipped")])
        replay = replay_ledger(read_journal(path))
        ledger = replay.campaigns["c1"]
        assert (ledger.ran, ledger.cached, ledger.skipped) == (1, 1, 1)
        assert ledger.recorded == ledger.total == 3
        assert ledger.finished
        assert ledger.usage.steps == 15

    def test_merged_decisions_prefer_ran_over_cached_over_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            _write_campaign(journal, "c1", [(FP_A, "ran"), (FP_B, "skipped")])
            _write_campaign(journal, "c2", [(FP_A, "cached"), (FP_B, "cached")])
        replay = replay_ledger(read_journal(path))
        assert replay.decisions == {FP_A: "ran", FP_B: "cached"}
        assert replay.ran_fingerprints == {FP_A}
        assert replay.ran_counts == {FP_A: 1}

    def test_early_stop_records_land_on_their_ledger(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            journal.campaign_started("c1", 1)
            journal.scenario("c1", FP_A, "ran", verdict="violation")
            journal.early_stop("c1", ("kind", 4, 1, 1), "violation")
            journal.campaign_finished("c1")
        ledger = replay_ledger(read_journal(path)).campaigns["c1"]
        assert ledger.early_stops == ((["kind", 4, 1, 1], "violation"),)

    def test_total_usage_counts_ran_only_by_default(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            journal.campaign_started("c1", 2)
            journal.scenario("c1", FP_A, "ran", usage=ResourceUsage(steps=10))
            journal.scenario("c1", FP_B, "cached", usage=ResourceUsage(steps=7))
            journal.campaign_finished("c1")
        replay = replay_ledger(read_journal(path))
        assert replay.total_usage().steps == 10
        assert replay.total_usage(include_cached=True).steps == 17

    def test_append_reopen_append(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            _write_campaign(journal, "c1", [(FP_A, "ran")])
        with CampaignJournal(path) as journal:
            _write_campaign(journal, "c2", [(FP_A, "cached")])
        replay = replay_ledger(read_journal(path))
        assert set(replay.campaigns) == {"c1", "c2"}
        assert all(ledger.finished for ledger in replay.campaigns.values())


class TestJournalWriter:
    def test_unknown_decision_is_rejected_at_write_time(self, tmp_path):
        with CampaignJournal(tmp_path / "journal.jsonl") as journal:
            journal.campaign_started("c1", 1)
            with pytest.raises(ConfigurationError, match="unknown scenario decision"):
                journal.scenario("c1", FP_A, "maybe")

    def test_close_is_idempotent(self, tmp_path):
        journal = CampaignJournal(tmp_path / "journal.jsonl")
        journal.close()
        journal.close()  # must not raise

    def test_concurrent_appends_never_interleave(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        per_thread = 50
        with CampaignJournal(path) as journal:
            journal.campaign_started("c1", 4 * per_thread)

            def append_many(tag: int) -> None:
                for index in range(per_thread):
                    digest = f"{tag}{index:063d}"[:64].rjust(64, "0")
                    journal.scenario(
                        "c1", digest, "ran",
                        usage=ResourceUsage(seconds=0.001, steps=1),
                    )

            threads = [threading.Thread(target=append_many, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            journal.campaign_finished("c1")
        # Every line parses (no interleaved writes) and the ledger sums.
        replay = replay_ledger(read_journal(path))
        ledger = replay.campaigns["c1"]
        assert ledger.ran == 4 * per_thread
        assert ledger.usage.steps == 4 * per_thread


class TestJournalTornTail:
    def _valid_lines(self, tmp_path) -> tuple:
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            _write_campaign(journal, "c1", [(FP_A, "ran"), (FP_B, "ran")])
        return path, path.read_bytes()

    def test_torn_final_line_is_dropped(self, tmp_path):
        path, data = self._valid_lines(tmp_path)
        path.write_bytes(data + b'{"v": 1, "type": "scenario", "camp')
        records = read_journal(path)
        assert len(records) == 4  # start + 2 scenarios + finish
        # ... and opening a writer on it heals the file.
        CampaignJournal(path).close()
        assert path.read_bytes() == data

    def test_mid_file_corruption_raises(self, tmp_path):
        path, data = self._valid_lines(tmp_path)
        lines = data.split(b"\n")
        lines[1] = b"{torn garbage"
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(ConfigurationError, match="corrupt campaign journal"):
            read_journal(path)
        with pytest.raises(ConfigurationError, match="corrupt campaign journal"):
            CampaignJournal(path)

    def test_fully_written_garbage_final_line_raises(self, tmp_path):
        # A garbage line WITH its trailing newline cannot be a torn
        # append — it was written whole, so it is real corruption.
        path, data = self._valid_lines(tmp_path)
        path.write_bytes(data + b"not json at all\n")
        with pytest.raises(ConfigurationError, match="corrupt campaign journal"):
            read_journal(path)

    def test_other_version_rows_are_skipped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        rows = [
            {"v": JOURNAL_SCHEMA_VERSION + 1, "type": "campaign-start",
             "campaign": "old", "total": 1},
            {"v": JOURNAL_SCHEMA_VERSION, "type": "campaign-start",
             "campaign": "new", "total": 0},
            {"v": JOURNAL_SCHEMA_VERSION, "type": "campaign-finish",
             "campaign": "new"},
        ]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows))
        replay = replay_ledger(read_journal(path))
        assert set(replay.campaigns) == {"new"}

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no campaign journal"):
            read_journal(tmp_path / "absent.jsonl")

    def test_empty_file_loads_empty_and_is_untouched(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        path.write_bytes(b"")
        assert read_journal(path) == ()
        CampaignJournal(path).close()
        assert path.read_bytes() == b""


#: What a journal open may peak at, however long the journal: one line
#: at a time plus the file buffers.
OPEN_PEAK_BOUND = 256 * 1024
LONG_JOURNAL_SCENARIOS = 20_000


@pytest.fixture(scope="module")
def long_journal(tmp_path_factory):
    """A valid multi-megabyte journal: one campaign of 20,000 positions."""
    path = tmp_path_factory.mktemp("long") / "journal.jsonl"
    with CampaignJournal(path) as journal:
        journal.campaign_started("c1", LONG_JOURNAL_SCENARIOS)
        journal.scenario("c1", FP_A, "ran", verdict="ok",
                         usage=ResourceUsage(seconds=0.1, steps=5),
                         label="theorem8-solvable n=16 f=3 k=4")
        journal.campaign_finished("c1", {"total": LONG_JOURNAL_SCENARIOS})
    start, scenario, finish = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(start + scenario * LONG_JOURNAL_SCENARIOS + finish)
    return path


class TestJournalMemory:
    """An open keeps no record and a read keeps only its records, so
    neither holds the file's bytes or its lines."""

    def test_open_peaks_under_a_bound_the_file_does_not_move(
            self, long_journal, traced_memory):
        assert long_journal.stat().st_size > 16 * OPEN_PEAK_BOUND
        journal, _, peak = traced_memory(lambda: CampaignJournal(long_journal))
        journal.close()
        assert peak < OPEN_PEAK_BOUND

    def test_read_holds_only_the_records_it_returns(
            self, long_journal, traced_memory):
        records, held, peak = traced_memory(lambda: read_journal(long_journal))
        assert len(records) == LONG_JOURNAL_SCENARIOS + 2
        assert peak < held + OPEN_PEAK_BOUND
        ledger = replay_ledger(records).campaigns["c1"]
        assert ledger.finished and ledger.ran == LONG_JOURNAL_SCENARIOS


class TestLedgerValidation:
    def test_scenario_before_campaign_start_raises(self):
        with pytest.raises(ConfigurationError, match="before its campaign-start"):
            replay_ledger([
                {"v": 1, "type": "scenario", "campaign": "ghost",
                 "fp": FP_A, "decision": "ran", "usage": {}},
            ])

    def test_unknown_record_type_raises(self):
        with pytest.raises(ConfigurationError, match="unknown journal record type"):
            replay_ledger([{"v": 1, "type": "telemetry", "campaign": "c1"}])

    def test_unknown_decision_raises(self):
        with pytest.raises(ConfigurationError, match="unknown scenario decision"):
            replay_ledger([
                {"v": 1, "type": "campaign-start", "campaign": "c1", "total": 1},
                {"v": 1, "type": "scenario", "campaign": "c1",
                 "fp": FP_A, "decision": "perhaps", "usage": {}},
            ])

    def test_finished_campaign_must_sum_to_total(self):
        with pytest.raises(ConfigurationError, match="journal is incomplete"):
            replay_ledger([
                {"v": 1, "type": "campaign-start", "campaign": "c1", "total": 2},
                {"v": 1, "type": "scenario", "campaign": "c1",
                 "fp": FP_A, "decision": "ran", "usage": {}},
                {"v": 1, "type": "campaign-finish", "campaign": "c1"},
            ])

    def test_killed_campaign_is_exempt_from_the_sum_check(self):
        replay = replay_ledger([
            {"v": 1, "type": "campaign-start", "campaign": "c1", "total": 10},
            {"v": 1, "type": "scenario", "campaign": "c1",
             "fp": FP_A, "decision": "ran", "usage": {}},
        ])
        ledger = replay.campaigns["c1"]
        assert not ledger.finished
        assert ledger.recorded == 1 < ledger.total

    @pytest.mark.parametrize("fps", [None, FP_A, [FP_A, ""], [FP_A, 7]])
    def test_cached_record_needs_a_list_of_fingerprints(self, fps):
        with pytest.raises(ConfigurationError, match="list of fingerprints"):
            replay_ledger([
                {"v": 1, "type": "campaign-start", "campaign": "c1", "total": 2},
                {"v": 1, "type": "cached", "campaign": "c1", "fps": fps,
                 "usage": {}},
            ])


SPECS = theorem8_specs([4], seeds=(1,), max_steps=4_000)


def _cold_then_warm(tmp_path):
    """A cold campaign over ten specs, then a warm one over twenty specs
    plus two duplicate positions: eleven store hits (one of them the
    duplicate of a stored spec), ten runs, one replayed duplicate."""
    store = MemoryResultStore()
    journal_path = tmp_path / "journal.jsonl"
    warm_specs = list(SPECS[:20]) + [SPECS[0], SPECS[12]]
    runner = CachingRunner(store, journal=journal_path)
    runner.run(SPECS[:10])
    runner.run(warm_specs)
    runner.journal.close()  # the store stays open for the queries
    return store, read_journal(journal_path), runner.last_campaign_id, warm_specs


def _per_position(records, store):
    """The same journal as the previous release wrote it: one ``scenario``
    record with the ``cached`` decision per position."""
    old = []
    for record in records:
        if record["type"] != "cached":
            old.append(record)
            continue
        for fingerprint in record["fps"]:
            outcome = store.get(fingerprint)
            old.append({
                "v": record["v"], "ts": record["ts"],
                "elapsed": record["elapsed"], "type": "scenario",
                "campaign": record["campaign"], "fp": fingerprint,
                "decision": "cached", "verdict": outcome.verdict,
                "label": outcome.spec.label(), "worker_pid": 1,
                "usage": ResourceUsage.of_outcome(outcome).to_dict(),
            })
    return old


class TestCachedRecord:
    def test_hits_and_duplicates_get_one_record_each(self, tmp_path):
        _store, records, warm, warm_specs = _cold_then_warm(tmp_path)
        warm_records = [r for r in records if r["campaign"] == warm]
        assert [r["type"] for r in warm_records] == (
            ["campaign-start", "cached"] + ["scenario"] * 10
            + ["cached", "campaign-finish"])
        hits, duplicates = (r for r in warm_records if r["type"] == "cached")
        fp = fingerprint_spec
        assert hits["fps"] == [fp(s) for s in SPECS[:10]] + [fp(SPECS[0])]
        assert duplicates["fps"] == [fp(SPECS[12])]
        outcomes = {o.spec: o for o in CampaignRunner().run(SPECS[:20]).outcomes}
        assert hits["usage"] == ResourceUsage.of_outcomes(
            outcomes[s] for s in SPECS[:10] + SPECS[:1]).to_dict()
        assert hits["usage"]["seconds"] == 0.0
        assert duplicates["usage"]["steps"] == outcomes[SPECS[12]].steps
        ledger = replay_ledger(records).campaigns[warm]
        assert (ledger.ran, ledger.cached, ledger.skipped) == (10, 12, 0)
        assert ledger.recorded == ledger.total == len(warm_specs)

    def test_a_campaign_with_nothing_cached_has_no_cached_record(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"
        with CachingRunner(MemoryResultStore(), journal=journal_path) as runner:
            runner.run(SPECS[:10])
        records = read_journal(journal_path)
        assert len(records) == 10 + 2
        assert "cached" not in {r["type"] for r in records}

    def test_the_writer_skips_an_empty_record(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            journal.cached("c1", [], ResourceUsage())
        assert path.read_bytes() == b""

    def test_replays_like_the_per_position_records_it_replaces(self, tmp_path):
        store, records, _warm, _specs = _cold_then_warm(tmp_path)
        new = replay_ledger(records)
        old = replay_ledger(_per_position(records, store))
        assert new.campaigns == old.campaigns
        assert ({c: l.as_dict() for c, l in new.campaigns.items()}
                == {c: l.as_dict() for c, l in old.campaigns.items()})
        assert new.decisions == old.decisions
        assert set(new.decisions.values()) == {"ran"}
        for include_cached in (False, True):
            new_usage = new.total_usage(include_cached=include_cached)
            old_usage = old.total_usage(include_cached=include_cached)
            assert new_usage == old_usage
            assert new_usage.seconds == pytest.approx(old_usage.seconds)
            new_cost, new_unresolved = aggregate_cost(
                store, new, ("kind", "n"), include_cached=include_cached)
            old_cost, old_unresolved = aggregate_cost(
                store, old, ("kind", "n"), include_cached=include_cached)
            assert new_unresolved == old_unresolved == ()
            assert ({k: g.as_dict() for k, g in new_cost.items()}
                    == {k: g.as_dict() for k, g in old_cost.items()})
        assert sum(g.scenarios for g in new_cost.values()) == 10 + 22

    def test_cached_fingerprints_that_never_ran_read_cached(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with CampaignJournal(path) as journal:
            journal.campaign_started("c1", 3)
            journal.scenario("c1", FP_A, "skipped")
            journal.cached("c1", [FP_A, FP_B], ResourceUsage(steps=4))
            journal.campaign_finished("c1")
            journal.campaign_started("c2", 1)
            journal.scenario("c2", FP_B, "ran", usage=ResourceUsage(steps=2))
            journal.campaign_finished("c2")
        replay = replay_ledger(read_journal(path))
        assert replay.decisions == {FP_A: "cached", FP_B: "ran"}
        assert replay.cached_fingerprints == {FP_A}
        assert replay.campaigns["c1"].usage.steps == 4
        assert replay.total_usage().steps == 2
        assert replay.total_usage(include_cached=True).steps == 6
