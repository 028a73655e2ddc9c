"""E13 — simulator scalability: substrate cost as the system grows.

Not a result of the paper, but the sanity check every simulation-based
reproduction needs: how the executor's cost (steps, messages, wall-clock
per run) scales with the system size for the Section VI protocol under the
fair schedule.  ``pytest-benchmark`` measures the wall-clock; the table
reports the volume counters.

On top of the absolute scaling curve, ``test_recording_policy_speedup``
measures the zero-copy engine against the seed hot path, frozen verbatim
in :mod:`benchmarks._legacy_executor` (eager snapshot views, per-step
knowledge-graph rebuilds): at every ``n >= 32`` the current engine under
``VERDICT_ONLY`` recording must be at least 3x faster while producing the
bit-identical run.  The headline numbers land in
``BENCH_E13_simulator_scaling.json`` (see ``$REPRO_BENCH_JSON``), which
``benchmarks/compare_bench.py`` diffs against the committed baseline in
CI — a >25% regression of the speedup or of the volume counters fails the
workflow.

``test_batch_kernel_speedup`` (E14) measures the next tier up: the
bitmask fast path of :mod:`repro.simulation.bitmask_kernel`, reached the
way campaigns reach it — ``run_scenario(spec)``, where the
``theorem8-solvable`` kind picks the engine — on 16 VERDICT_ONLY
scenarios, against two references run on the same specs:

* the scalar executor it treats as its oracle
  (``execute_theorem8_solvable``).  The fast path must be at least 3x
  faster at every ``n >= 32`` and produce bit-identical outcomes
  (asserted inline — the benchmark doubles as an equivalence check at
  sizes the pinned-grid test does not reach).  The ratio is printed but
  not baselined: the oracle gets faster too, and a faster oracle must
  not read as a slower fast path;
* the seed engine E13 uses, frozen in :mod:`benchmarks._legacy_executor`
  (``legacy_execute`` + ``LegacyKSet``), with equal outcomes asserted
  too.  ``seed_engine_speedup_n*``, the seed engine's time over the fast
  path's, is the gated headline.  The seed engine keeps the seed's
  executor loop and decision attempt, so a faster oracle barely moves
  it; it still builds the library's records and message buffer.

Headlines land in ``BENCH_E14_batch_kernel.json``, gated by
``compare_bench.py`` exactly like E13; the file and key names predate
the fast path and are kept so the committed baseline keeps gating.

Every speed-up and overhead ratio here compares engines timed by
:func:`_best_alternating`: each round times every engine of the
comparison once, in turn, and each engine keeps its best of
:data:`ROUNDS` rounds.  A timed run takes tens of milliseconds, so a
slow phase of a small shared host can outlast a best of three taken one
engine after the other and land on one side of the ratio only;
alternating puts every engine through the same phases, and more rounds
give each a quiet one.

``test_telemetry_overhead`` guards both sides of the telemetry layer's
hot-path promise.  *Telemetry off* costs one ``current_tracer()`` call
per execution and a ``None`` check per step — any creep there erodes
``speedup_verdict_only_n*`` against its committed baseline, so the
disabled path is regression-guarded by the floor above without a
separate metric.  *Telemetry on* (full phase capture, the worst case)
is measured here as ``telemetry_enabled_overhead_x_n{n}`` — the traced
/ untraced wall-clock ratio for the identical run — and baselined in
``BENCH_E13_telemetry_overhead.json``, where ``compare_bench.py``
classifies it lower-is-better.
"""

from __future__ import annotations

import time
from functools import partial

import pytest

from repro.algorithms.kset_initial_crash import KSetInitialCrash
from repro.analysis.reporting import format_table
from repro.analysis.run_properties import run_statistics
from repro.models.initial_crash import initial_crash_model
from repro.simulation.executor import ExecutionSettings, RecordingPolicy, execute
from repro.telemetry import Tracer, activated
from benchmarks.conftest import emit, emit_json
from benchmarks._legacy_executor import LegacyKSet, legacy_execute

SIZES = [8, 16, 24, 32, 48, 64]
SPEEDUP_SIZES = [32, 48]
#: The acceptance floor: current engine (verdict-only) vs the seed hot path.
SPEEDUP_FLOOR = 3.0
#: Hard ceiling for the traced/untraced ratio under full phase capture.
#: Tracing laps a perf counter four times per step, so it cannot be free;
#: it must stay within a small constant factor of the measured loop.
TELEMETRY_OVERHEAD_CEILING = 4.0


def run_once(n: int, recording: RecordingPolicy = RecordingPolicy.FULL):
    f = n // 2
    model = initial_crash_model(n, f)
    algorithm = KSetInitialCrash(n, f)
    return execute(
        algorithm, model, {p: p for p in model.processes},
        settings=ExecutionSettings(recording=recording),
    )


def run_once_legacy(n: int):
    f = n // 2
    model = initial_crash_model(n, f)
    algorithm = LegacyKSet(n, f)
    return legacy_execute(algorithm, model, {p: p for p in model.processes})


#: Alternating rounds per comparison; each engine keeps its best round.
ROUNDS = 7


def _best_alternating(*engines):
    """Time the zero-argument ``engines`` in turn, once per round.

    Returns one ``(best_seconds, result)`` pair per engine, in argument
    order, where ``result`` is the engine's last return value.
    """
    best = [float("inf")] * len(engines)
    results = [None] * len(engines)
    for _ in range(ROUNDS):
        for index, engine in enumerate(engines):
            started = time.perf_counter()
            results[index] = engine()
            best[index] = min(best[index], time.perf_counter() - started)
    return list(zip(best, results))


@pytest.mark.parametrize("n", SIZES)
def test_simulator_scaling_point(benchmark, n):
    run = benchmark(run_once, n)
    assert run.completed
    benchmark.extra_info.update({"n": n, **run_statistics(run)})


def test_simulator_scaling_table(benchmark):
    def build():
        rows = []
        for n in SIZES:
            run = run_once(n)
            stats = run_statistics(run)
            rows.append((n, int(stats["steps"]), int(stats["messages_sent"]),
                         int(stats["messages_delivered"])))
        return rows

    rows = benchmark.pedantic(build, iterations=1, rounds=1)
    emit(
        "E13 simulator scaling (Section VI protocol, fair schedule, f = n/2)",
        format_table(("n", "steps", "messages sent", "messages delivered"), rows),
    )
    # steps grow roughly linearly with n (each process needs a constant
    # number of scheduling rounds), messages quadratically.
    assert rows[-1][1] < 20 * SIZES[-1]


def test_recording_policy_speedup(benchmark):
    """Zero-copy + verdict-only vs the frozen seed hot path: >= 3x at n >= 32."""

    def measure():
        rows = []
        payload = {}
        for n in SPEEDUP_SIZES:
            ((legacy_seconds, legacy_run), (full_seconds, full_run),
             (verdict_seconds, verdict_run)) = _best_alternating(
                partial(run_once_legacy, n),
                partial(run_once, n, RecordingPolicy.FULL),
                partial(run_once, n, RecordingPolicy.VERDICT_ONLY))
            # identical executions, whatever the engine or policy
            assert verdict_run.completed and full_run.completed and legacy_run.completed
            assert verdict_run.decisions() == full_run.decisions() == legacy_run.decisions()
            assert verdict_run.length == full_run.length == legacy_run.length
            assert (verdict_run.messages_sent() == full_run.messages_sent()
                    == legacy_run.messages_sent())
            speedup = legacy_seconds / verdict_seconds if verdict_seconds else 0.0
            rows.append((n, round(legacy_seconds * 1e3, 2), round(full_seconds * 1e3, 2),
                         round(verdict_seconds * 1e3, 2), round(speedup, 2)))
            payload.update({
                f"steps_n{n}": verdict_run.length,
                f"messages_sent_n{n}": verdict_run.messages_sent(),
                f"legacy_seconds_n{n}": round(legacy_seconds, 6),
                f"full_seconds_n{n}": round(full_seconds, 6),
                f"verdict_seconds_n{n}": round(verdict_seconds, 6),
                f"speedup_verdict_only_n{n}": round(speedup, 3),
            })
        return rows, payload

    rows, payload = benchmark.pedantic(measure, iterations=1, rounds=1)
    emit(
        "E13 recording-policy speedup (seed hot path vs zero-copy engine)",
        format_table(
            ("n", "seed ms", "full ms", "verdict-only ms", "speedup"), rows
        ),
    )
    benchmark.extra_info.update(payload)
    emit_json("E13_simulator_scaling", payload)
    for n, _legacy_ms, _full_ms, _verdict_ms, speedup in rows:
        assert speedup >= SPEEDUP_FLOOR, (
            f"expected >= {SPEEDUP_FLOOR}x over the seed hot path at n={n}, "
            f"measured {speedup:.2f}x"
        )


#: Scenarios per size: enough to smooth per-scenario noise, few enough
#: that the scalar reference stays a few hundred milliseconds.
FAST_PATH_SEEDS = 8
#: The acceptance floor: the fast path vs the scalar oracle.
FAST_PATH_SPEEDUP_FLOOR = 3.0


def fast_path_specs(n: int):
    """16 VERDICT_ONLY specs: both schedulers x FAST_PATH_SEEDS seeds."""
    from repro.campaign.spec import ScenarioSpec

    f = n // 2
    k = n // (n - f)
    return [
        ScenarioSpec(
            kind="theorem8-solvable", n=n, f=f, k=k, scheduler=scheduler,
            seed=seed, max_steps=20_000, recording="verdict-only",
        )
        for seed in range(1, FAST_PATH_SEEDS + 1)
        for scheduler in ("round-robin", "random")
    ]


def _seed_engine(algorithm, model, proposals, **kwargs):
    """``legacy_execute`` with ``execute``'s arguments, on the seed protocol."""
    return legacy_execute(
        LegacyKSet(algorithm.n, algorithm.f), model, proposals, **kwargs)


def seed_engine_outcome(spec):
    """``spec``'s outcome on the seed engine: the scenario the
    ``theorem8-solvable`` kind builds, run by the seed engine and judged
    by the kind."""
    from repro.campaign.scenarios import _theorem8_solvable_run, get_kind

    run = _theorem8_solvable_run(spec, _seed_engine)
    return get_kind("theorem8-solvable").judge(spec, run)


def test_batch_kernel_speedup(benchmark):
    """The kind-chosen fast path: >= 3x the scalar oracle at n >= 32, and
    gated against the seed engine."""
    from repro.campaign.runner import run_scenario
    from repro.campaign.scenarios import execute_theorem8_solvable
    from repro.campaign.spec import ScenarioOutcome

    def scalar_outcome(spec):
        run, report = execute_theorem8_solvable(spec)
        return ScenarioOutcome.from_report(spec, report, run)

    def measure():
        rows = []
        payload = {}
        for n in SPEEDUP_SIZES:
            specs = fast_path_specs(n)
            ((seed_seconds, seed_outcomes), (scalar_seconds, scalar_outcomes),
             (fast_seconds, fast_outcomes)) = _best_alternating(
                lambda s=specs: [seed_engine_outcome(spec) for spec in s],
                lambda s=specs: [scalar_outcome(spec) for spec in s],
                lambda s=specs: [run_scenario(spec) for spec in s])
            # The scalar executor is the oracle: bit-identical outcomes,
            # not merely equal verdicts.  The seed engine agrees too.
            assert fast_outcomes == scalar_outcomes
            assert seed_outcomes == scalar_outcomes
            assert all(outcome.verdict == "ok" for outcome in fast_outcomes)
            speedup = scalar_seconds / fast_seconds if fast_seconds else 0.0
            seed_speedup = seed_seconds / fast_seconds if fast_seconds else 0.0
            rows.append((n, len(specs), round(seed_seconds * 1e3, 2),
                         round(scalar_seconds * 1e3, 2),
                         round(fast_seconds * 1e3, 2), round(speedup, 2),
                         round(seed_speedup, 2)))
            payload.update({
                f"wave_size_n{n}": len(specs),
                f"wave_steps_total_n{n}": sum(o.steps for o in fast_outcomes),
                f"wave_messages_sent_total_n{n}": sum(
                    o.messages_sent for o in fast_outcomes),
                f"seed_seconds_n{n}": round(seed_seconds, 6),
                f"scalar_seconds_n{n}": round(scalar_seconds, 6),
                f"batch_seconds_n{n}": round(fast_seconds, 6),
                f"seed_engine_speedup_n{n}": round(seed_speedup, 3),
            })
        return rows, payload

    rows, payload = benchmark.pedantic(measure, iterations=1, rounds=1)
    emit(
        "E14 bitmask fast path vs scalar executor and seed engine "
        "(VERDICT_ONLY scenarios)",
        format_table(
            ("n", "scenarios", "seed ms", "scalar ms", "fast path ms",
             "vs scalar", "vs seed"), rows
        ),
    )
    benchmark.extra_info.update(payload)
    emit_json("E14_batch_kernel", payload)
    for n, _size, _seed_ms, _scalar_ms, _fast_ms, speedup, _seed_speedup in rows:
        assert speedup >= FAST_PATH_SPEEDUP_FLOOR, (
            f"expected >= {FAST_PATH_SPEEDUP_FLOOR}x over the scalar path at "
            f"n={n}, measured {speedup:.2f}x"
        )


def run_once_traced(n: int):
    """One verdict-only run under an active tracer with full phase capture."""
    tracer = Tracer(trace_id="bench")
    with activated(tracer):
        run = run_once(n, RecordingPolicy.VERDICT_ONLY)
    return run, tracer.drain()


def test_telemetry_overhead(benchmark):
    """Tracing-enabled cost stays a bounded factor of the measured loop."""

    def measure():
        rows = []
        payload = {}
        for n in SPEEDUP_SIZES:
            (verdict_seconds, verdict_run), (traced_seconds, (traced_run, spans)) = (
                _best_alternating(
                    partial(run_once, n, RecordingPolicy.VERDICT_ONLY),
                    partial(run_once_traced, n)))
            # Telemetry observes; it must never influence the schedule.
            assert traced_run.decisions() == verdict_run.decisions()
            assert traced_run.length == verdict_run.length
            assert traced_run.messages_sent() == verdict_run.messages_sent()
            # One execute span plus its four phase children were recorded.
            names = [s.name for s in spans]
            assert names.count("execute") == 1
            assert sum(1 for name in names if name.startswith("phase:")) == 4
            overhead = traced_seconds / verdict_seconds if verdict_seconds else 0.0
            rows.append((n, round(verdict_seconds * 1e3, 2),
                         round(traced_seconds * 1e3, 2), round(overhead, 2)))
            payload.update({
                f"verdict_seconds_n{n}": round(verdict_seconds, 6),
                f"traced_seconds_n{n}": round(traced_seconds, 6),
                f"telemetry_enabled_overhead_x_n{n}": round(overhead, 3),
            })
        return rows, payload

    rows, payload = benchmark.pedantic(measure, iterations=1, rounds=1)
    emit(
        "E13 telemetry overhead (verdict-only, full phase capture)",
        format_table(("n", "untraced ms", "traced ms", "overhead x"), rows),
    )
    benchmark.extra_info.update(payload)
    emit_json("E13_telemetry_overhead", payload)
    for n, _untraced_ms, _traced_ms, overhead in rows:
        assert overhead <= TELEMETRY_OVERHEAD_CEILING, (
            f"tracing-enabled run at n={n} cost {overhead:.2f}x the untraced "
            f"run (ceiling {TELEMETRY_OVERHEAD_CEILING}x)"
        )
