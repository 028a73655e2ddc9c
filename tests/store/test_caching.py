"""Cache-hit determinism: cached, resumed and cold campaigns are equal."""

from __future__ import annotations

import errno
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.campaign import CampaignRunner, ScenarioSpec, theorem8_specs
from repro.exceptions import ConfigurationError
from repro.provenance import CampaignJournal, read_journal, replay_ledger
from repro.store import CachingRunner, MemoryResultStore, fingerprint_spec, open_store

SPECS = theorem8_specs([4], seeds=(1,), max_steps=4_000)
COLD = CampaignRunner().run(SPECS)

RUNNERS = {
    "serial": CampaignRunner(),
    "process-1": CampaignRunner(backend="process", workers=2, chunk_size=1),
    "process": CampaignRunner(backend="process", workers=2, chunk_size=3),
}


@pytest.fixture(params=tuple(RUNNERS))
def backend_runner(request):
    return RUNNERS[request.param]


class TestColdThenWarm:
    def test_cold_run_matches_plain_campaign_and_fills_the_store(
        self, store, backend_runner
    ):
        caching = CachingRunner(store, backend_runner)
        result = caching.run(SPECS)
        assert result == COLD
        assert caching.last_stats.executed == len(SPECS)
        assert caching.last_stats.cached == 0
        assert len(store) == len(SPECS)

    def test_warm_run_is_pure_replay_and_equal(self, store, backend_runner):
        CachingRunner(store).run(SPECS)
        caching = CachingRunner(store, backend_runner)
        warm = caching.run(SPECS)
        assert warm == COLD
        assert [o.spec for o in warm.outcomes] == [o.spec for o in COLD.outcomes]
        assert caching.last_stats.cached == len(SPECS)
        assert caching.last_stats.executed == 0
        assert caching.last_stats.hit_rate == 1.0

    def test_partially_cached_run_equals_cold_run(self, store, backend_runner):
        # A store holding an arbitrary prefix stands in for any
        # interrupted campaign: the rerun must recompute exactly the
        # missing scenarios and produce the uninterrupted result.
        prefix = len(SPECS) // 3
        CachingRunner(store).run(SPECS[:prefix])
        caching = CachingRunner(store, backend_runner)
        resumed = caching.run(SPECS)
        assert resumed == COLD
        assert caching.last_stats.cached == prefix
        assert caching.last_stats.executed == len(SPECS) - prefix

    def test_scattered_cache_hits_keep_campaign_order(self, store, backend_runner):
        # Cache every third scenario (not a prefix): merged outcomes must
        # still come back in spec order, not hits-first.
        scattered = SPECS[::3]
        CachingRunner(store).run(scattered)
        caching = CachingRunner(store, backend_runner)
        resumed = caching.run(SPECS)
        assert resumed == COLD
        assert caching.last_stats.cached == len(scattered)


class TestStatsAndEdgeCases:
    def test_stats_add_up(self, store):
        caching = CachingRunner(store)
        caching.run(SPECS[:10])
        stats = caching.last_stats
        assert stats.total == 10
        assert stats.cached + stats.executed + stats.skipped == stats.total
        assert stats.as_dict()["hit_rate"] == 0.0

    def test_empty_campaign(self, store):
        caching = CachingRunner(store)
        result = caching.run([])
        assert result.outcomes == ()
        assert caching.last_stats.total == 0
        assert caching.last_stats.hit_rate == 0.0

    def test_duplicate_specs_execute_once_but_count_per_position(self, store):
        spec = SPECS[0]
        caching = CachingRunner(store)
        result = caching.run([spec, spec, spec])
        assert len(result.outcomes) == 3
        assert len({id(o) for o in result.outcomes}) <= 3
        assert result.outcomes[0] == result.outcomes[1] == result.outcomes[2]
        assert caching.last_stats.total == 3
        assert caching.last_stats.executed == 3  # three positions, one execution
        assert len(store) == 1

    def test_unknown_kind_fails_fast_even_when_fully_cached(self, store):
        caching = CachingRunner(store)
        caching.run(SPECS[:1])
        bogus = ScenarioSpec(kind="no-such-kind", n=4, f=1, k=1)
        with pytest.raises(ConfigurationError):
            caching.run([bogus])

    def test_grid_accepted_directly(self, store):
        from repro.campaign import ScenarioGrid

        grid = ScenarioGrid(
            kinds=("theorem8-solvable",), n_values=(4,), f_values=(1,), k_values=(1,),
        )
        caching = CachingRunner(store)
        first = caching.run(grid)
        again = caching.run(grid)
        assert first == again
        assert caching.last_stats.cached == len(first.outcomes)

    def test_max_steps_is_part_of_the_cache_key(self, store):
        # A truncation-sensitive knob must never be served a stale hit.
        base = SPECS[0]
        bigger = ScenarioSpec(
            kind=base.kind, n=base.n, f=base.f, k=base.k, scheduler=base.scheduler,
            seed=base.seed, crashes=base.crashes, max_steps=base.max_steps * 2,
            params=base.params,
        )
        caching = CachingRunner(store)
        caching.run([base])
        caching.run([bigger])
        assert caching.last_stats.executed == 1  # not served from base's entry
        assert len(store) == 2

    def test_store_contents_are_addressable_by_fingerprint(self, store):
        CachingRunner(store).run(SPECS[:5])
        for spec in SPECS[:5]:
            stored = store.get(fingerprint_spec(spec))
            assert stored is not None
            assert stored.spec == spec

    def test_memory_store_rejects_unpersistable_params_like_disk_does(self):
        spec = ScenarioSpec(
            kind="theorem8-solvable", n=4, f=1, k=1,
            params=(("bad", object()),),  # hashable, but not persistable
        )
        with pytest.raises(ConfigurationError):
            CachingRunner(MemoryResultStore()).run([spec])


class FullDiskJournal(CampaignJournal):
    """A journal whose disk fills up at the second ``ran`` record."""

    def __init__(self, path):
        super().__init__(path)
        self.ran = 0

    def _append(self, record):
        if record.get("decision") == "ran":
            self.ran += 1
            if self.ran == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
        super()._append(record)


def _report_journal(path: Path) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[2] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run(
        [sys.executable, "-m", "repro.report", "--journal", str(path)],
        env=env, capture_output=True, text=True, timeout=120)


class TestJournalFailure:
    """A journal that cannot record stops the campaign as a kill does:
    the error propagates, the journal keeps a valid prefix with no
    ``campaign-finish``, and a rerun resumes from the store."""

    def test_failed_append_stops_the_campaign_and_a_rerun_resumes(
            self, tmp_path, backend_runner):
        specs = SPECS[:5]
        store_path = tmp_path / "store.sqlite"
        journal_path = tmp_path / "journal.jsonl"
        with FullDiskJournal(journal_path) as journal, CachingRunner(
                open_store(store_path), backend_runner,
                journal=journal) as runner:
            with pytest.raises(OSError, match="No space left on device"):
                runner.run(specs)
        failed = runner.last_campaign_id
        assert not [record for record in read_journal(journal_path)
                    if record["type"] == "campaign-finish"
                    and record["campaign"] == failed]
        report = _report_journal(journal_path)
        assert report.returncode == 0, report.stderr

        with CachingRunner(open_store(store_path), backend_runner,
                           journal=journal_path) as rerun:
            result = rerun.run(specs)
        assert result == CampaignRunner().run(specs)
        ledger = replay_ledger(read_journal(journal_path)).campaigns[
            rerun.last_campaign_id]
        assert ledger.finished
        assert ledger.ran + ledger.cached + ledger.skipped == ledger.total
        assert ledger.total == len(specs)
        # Both positions the failed campaign settled were stored: the
        # put comes before the journal append.
        assert ledger.cached == 2
        assert _report_journal(journal_path).returncode == 0
