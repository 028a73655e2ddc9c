"""E10 — Corollary 13: k-set agreement with (Sigma_k, Omega_k) iff k=1 or k=n-1.

For every ``n`` in a small range and every ``1 <= k <= n-1`` the benchmark
determines the simulated outcome:

* ``k = 1`` — the (Sigma, Omega) consensus protocol satisfies all
  properties under fair and random schedules with crashes;
* ``k = n-1`` — the Sigma_{n-1} protocol does, under the same treatment;
* ``2 <= k <= n-2`` — the Theorem 10 construction drives the
  representative candidate to more than ``k`` distinct decisions,

and checks that the outcome matches the Corollary 13 closed form at every
point.  The executions run as one campaign
(:func:`repro.campaign.corollary13_specs`), so the whole border can be
swept serially or across worker processes with identical outcomes.
"""

from __future__ import annotations

from typing import List, Tuple

import pytest

from repro import corollary13_verdict
from repro.analysis.reporting import format_campaign, format_table
from repro.campaign import CampaignResult, CampaignRunner, ScenarioOutcome, corollary13_specs
from repro.store import CachingRunner, open_store
from benchmarks.conftest import emit, emit_json

N_VALUES = [4, 5, 6, 7]


def classify_point(n: int, k: int, outcomes: Tuple[ScenarioOutcome, ...]):
    """Compare the campaign outcomes of one ``(n, k)`` point with the paper."""
    verdict = corollary13_verdict(n, k)
    if not outcomes:
        # A point the campaign never executed is a diagnosable
        # disagreement row, not a KeyError.
        return verdict, "no scenarios executed", False
    if k in (1, n - 1):
        observed_solvable = all(o.all_ok for o in outcomes)
        observation = "all properties hold" if observed_solvable else "violation"
        agrees = observed_solvable == verdict.is_solvable
    else:
        (outcome,) = outcomes
        violated = not outcome.agreement_ok and outcome.distinct_decisions > k
        observation = "partitioning forces > k values" if violated else "no violation found"
        agrees = violated == verdict.is_impossible
    return verdict, observation, agrees


def classify_campaign(n_values, result: CampaignResult) -> List[Tuple]:
    """One classified row per ``(n, k)`` point of the swept border."""
    by_point = result.by_point()  # every corollary13 spec has f = n - 1
    rows = []
    for n in n_values:
        for k in range(1, n):
            outcomes = by_point.get((n, n - 1, k), ())
            verdict, observation, agrees = classify_point(n, k, outcomes)
            rows.append((n, k, str(verdict.verdict), observation, "yes" if agrees else "NO"))
    return rows


def test_corollary13_border(benchmark):
    # The border classification consumes verdicts only.  Corollary 13's
    # kinds run the scalar executor whatever the specs' recording name;
    # the name is part of their identity and store fingerprints only.
    specs = corollary13_specs(N_VALUES, recording="verdict-only")
    runner = CampaignRunner(backend="process", workers=4)

    # Serial/process equality is pinned by tests/campaign/test_runner.py;
    # the benchmark itself only times the parallel campaign.
    result = benchmark.pedantic(runner.run, args=(specs,), iterations=1, rounds=1)

    rows = classify_campaign(N_VALUES, result)
    emit(
        "E10 Corollary 13: (Sigma_k, Omega_k) solves k-set agreement iff k=1 or k=n-1",
        format_table(("n", "k", "paper verdict", "simulated observation", "agrees"), rows),
    )
    emit("E10 campaign summary", format_campaign(result))
    assert all(row[4] == "yes" for row in rows)
    benchmark.extra_info["points"] = len(rows)
    benchmark.extra_info.update(result.summary())
    emit_json("E10_corollary13_border", benchmark.extra_info)

    # The campaign result round-trips through JSON losslessly, so the
    # reproduced figure can be archived and re-classified offline.
    restored = CampaignResult.from_json(result.to_json())
    assert restored == result
    assert classify_campaign(N_VALUES, restored) == rows


def test_corollary13_store_replay(benchmark, tmp_path):
    """E10 persisted: a JSONL store replays the border without re-running.

    The classification of the replayed campaign must match the freshly
    computed one row for row — cache hits are first-class evidence.
    """
    specs = corollary13_specs(N_VALUES[:2], recording="verdict-only")
    with open_store(tmp_path / "corollary13.jsonl") as store:
        cold = CachingRunner(store).run(specs)
        warm_runner = CachingRunner(store)
        warm = benchmark.pedantic(warm_runner.run, args=(specs,), iterations=1, rounds=1)
    assert warm == cold
    assert warm_runner.last_stats.executed == 0
    assert classify_campaign(N_VALUES[:2], warm) == classify_campaign(N_VALUES[:2], cold)
    benchmark.extra_info.update(warm_runner.last_stats.as_dict())
    emit_json("E10_corollary13_store_replay", benchmark.extra_info)


@pytest.mark.parametrize("n", N_VALUES)
def test_corollary13_row(benchmark, n):
    def sweep_row():
        result = CampaignRunner().run(corollary13_specs([n]))
        return classify_campaign([n], result)

    rows = benchmark.pedantic(sweep_row, iterations=1, rounds=1)
    assert all(row[4] == "yes" for row in rows)
    benchmark.extra_info.update({"n": n, "k_points": len(rows)})
