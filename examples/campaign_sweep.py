"""Demo: the scenario-campaign engine on the Theorem 8 border.

Compiles a declarative grid over the full small-``n`` parameter space
into a flat scenario list, runs it on the serial and the multiprocess
backend, and shows that both produce the identical campaign — the
determinism guarantee every regression test of the sweep machinery
relies on.  Run with::

    PYTHONPATH=src python examples/campaign_sweep.py
"""

from __future__ import annotations

from repro.analysis.border_sweep import sweep_theorem8
from repro.analysis.reporting import format_campaign, format_sweep
from repro.campaign import (
    CampaignRunner,
    ScenarioGrid,
    ScenarioOutcome,
    run_scenario,
    theorem8_specs,
)
from repro.campaign.scenarios import execute_theorem8_solvable


def main() -> None:
    n_values = [4, 5]
    seeds = (1,)
    max_steps = 6_000

    # 1. A declarative grid compiles to a flat, deduplicated spec list.
    grid = ScenarioGrid(
        kinds=("theorem8-solvable",),
        n_values=n_values,
        schedulers=("round-robin", "random"),
        seeds=(1, 2, 3),
        point_filter=lambda n, f, k: k * n > (k + 1) * f,
        max_steps=max_steps,
    )
    compiled = grid.compile()
    print(f"declarative grid: {len(compiled)} scenarios on the solvable side")
    print(f"  first: {compiled[0].label()}")
    print(f"  last:  {compiled[-1].label()}")

    # 2. The full sweep (both sides of the border) as one campaign.
    specs = theorem8_specs(n_values, seeds=seeds, max_steps=max_steps)
    serial = CampaignRunner(backend="serial").run(specs)
    parallel = CampaignRunner(backend="process", workers=2).run(specs)

    print("\n=== campaign on the serial backend ===")
    print(format_campaign(serial))
    print("\n=== campaign on the process backend (2 workers) ===")
    print(format_campaign(parallel))

    identical = serial == parallel
    print(f"\nserial == process backend: {identical}")
    assert identical, "campaign backends must produce identical results"

    # 3. The bitmask fast path: the solvable side's VERDICT_ONLY specs run
    #    on it by themselves (the scenario kind picks the engine), the
    #    impossible side's partitioning constructions on the scalar
    #    executor.  The scalar executor is the oracle: rebuilding every
    #    solvable outcome from execute_theorem8_solvable gives the
    #    identical campaign.
    import time

    trimmed = theorem8_specs(
        n_values, seeds=seeds, max_steps=max_steps, recording="verdict-only")
    started = time.perf_counter()
    fast = CampaignRunner(backend="serial").run(trimmed)
    fast_seconds = time.perf_counter() - started

    def scalar_outcome(spec):
        if spec.kind != "theorem8-solvable":
            return run_scenario(spec)  # this kind has no fast path
        run, report = execute_theorem8_solvable(spec)
        return ScenarioOutcome.from_report(spec, report, run)

    started = time.perf_counter()
    oracle = tuple(scalar_outcome(spec) for spec in trimmed)
    scalar_seconds = time.perf_counter() - started
    print(f"\nverdict-only campaign == scalar oracle: {fast.outcomes == oracle} "
          f"(campaign {fast_seconds * 1e3:.0f} ms, "
          f"scalar oracle {scalar_seconds * 1e3:.0f} ms)")
    assert fast.outcomes == oracle, "the scalar executor is the oracle"

    # 4. The analysis layer turns the campaign into the reproduced figure.
    points = sweep_theorem8(n_values, seeds=seeds, max_steps=max_steps)
    print("\n=== Theorem 8 border sweep (solvable iff k*n > (k+1)*f) ===")
    print(format_sweep(points, include_details=True))
    disagreements = [p for p in points if not p.agrees]
    print(f"\n{len(points)} points swept, {len(disagreements)} disagreements")
    assert not disagreements


if __name__ == "__main__":
    main()
