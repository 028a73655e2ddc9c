"""``ScenarioSpec.recording`` through specs, grids, codecs, stores and sweeps.

The field only picks the engine of ``theorem8-solvable`` specs
(``"verdict-only"`` runs the bitmask loop, every other spec the scalar
executor), so a kind's outcomes are **identical** under all three names,
and a sweep's verdicts are identical under all three names and across
the serial/process campaign backends.  The tests below pin that for every
kind on small grids, plus the identity/seeding rules the field has to
obey (part of the store fingerprint, absent from the RNG derivation).
"""

from __future__ import annotations

import inspect
from dataclasses import replace

import pytest

from repro.analysis.border_sweep import sweep_theorem8
from repro.campaign import (
    CampaignRunner,
    ScenarioGrid,
    ScenarioSpec,
    corollary13_specs,
    theorem8_specs,
)
from repro.campaign.codec import spec_from_dict, spec_to_dict
from repro.campaign.spec import RECORDING_POLICY_NAMES
from repro.exceptions import ConfigurationError
from repro.store import fingerprint_spec

PINNED_GRID = [4, 5]
PINNED_KWARGS = {"seeds": (1,), "max_steps": 4_000}


class TestSpecPlumbing:
    def test_unknown_recording_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1, recording="partial")

    def test_recording_defaults_to_full(self):
        spec = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1)
        assert spec.recording == "full"
        assert spec.identity()[-1] == "full"

    def test_derived_seed_ignores_recording(self):
        base = ScenarioSpec(kind="theorem8-solvable", n=5, f=2, k=2,
                            scheduler="random", seed=3)
        seeds = {
            ScenarioSpec(
                kind=base.kind, n=base.n, f=base.f, k=base.k,
                scheduler=base.scheduler, seed=base.seed, recording=name,
            ).derived_seed()
            for name in RECORDING_POLICY_NAMES
        }
        assert seeds == {base.derived_seed()}  # identical RNG stream

    def test_fingerprint_depends_on_recording(self):
        prints = {
            fingerprint_spec(
                ScenarioSpec(kind="theorem8-solvable", n=5, f=2, k=2, recording=name)
            )
            for name in RECORDING_POLICY_NAMES
        }
        assert len(prints) == len(RECORDING_POLICY_NAMES)

    def test_codec_round_trips_recording(self):
        spec = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                            recording="verdict-only")
        assert spec_from_dict(spec_to_dict(spec)) == spec

    def test_codec_defaults_missing_recording_to_full(self):
        data = spec_to_dict(ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1))
        del data["recording"]
        assert spec_from_dict(data).recording == "full"

    def test_label_names_non_full_policies_only(self):
        full = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1)
        trimmed = ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                               recording="verdict-only")
        assert "rec=" not in full.label()
        assert "rec=verdict-only" in trimmed.label()

    def test_grid_applies_recording_to_every_spec(self):
        grid = ScenarioGrid(
            kinds=("theorem8-solvable",), n_values=(4,), f_values=(1,),
            k_values=(1, 2), recording="decisions-only",
        )
        specs = grid.compile()
        assert specs
        assert all(spec.recording == "decisions-only" for spec in specs)

    def test_spec_builders_plumb_recording(self):
        for spec in theorem8_specs([4], seeds=(1,), max_steps=1_000,
                                   recording="verdict-only"):
            assert spec.recording == "verdict-only"
        for spec in corollary13_specs([4], recording="verdict-only"):
            assert spec.recording == "verdict-only"


def specs_named(recording: str):
    """Specs of all five kinds, under one ``recording`` name."""
    return (theorem8_specs(PINNED_GRID, recording=recording, **PINNED_KWARGS)
            + corollary13_specs([4, 5], recording=recording))


class TestOutcomeEquivalence:
    @pytest.fixture(scope="class")
    def outcomes(self):
        """Each name's campaign, keyed by name, with the field reset to
        ``"full"`` in every outcome's spec."""
        return {
            name: [replace(outcome, spec=replace(outcome.spec, recording="full"))
                   for outcome in CampaignRunner().run(specs_named(name)).outcomes]
            for name in RECORDING_POLICY_NAMES
        }

    @pytest.mark.parametrize("kind", [
        "theorem8-solvable", "theorem8-impossible", "corollary13-k1",
        "corollary13-kmax", "corollary13-middle",
    ])
    def test_outcomes_identical_across_the_three_names(self, outcomes, kind):
        """Outcome for outcome, every field; only the spec's name differs."""
        reference = [o for o in outcomes["full"] if o.spec.kind == kind]
        assert reference
        for name in RECORDING_POLICY_NAMES:
            assert [o for o in outcomes[name] if o.spec.kind == kind] == reference, name


class TestPinnedSweepAcceptance:
    """Sweep verdicts are identical across recording names and backends."""

    @pytest.fixture(scope="class")
    def reference_points(self):
        return sweep_theorem8(PINNED_GRID, **PINNED_KWARGS)

    @pytest.mark.parametrize("recording", RECORDING_POLICY_NAMES)
    def test_serial_sweep_identical_across_policies(self, reference_points, recording):
        points = sweep_theorem8(PINNED_GRID, recording=recording, **PINNED_KWARGS)
        assert [
            (p.n, p.f, p.k, p.predicted, p.observed, p.agrees) for p in points
        ] == [
            (p.n, p.f, p.k, p.predicted, p.observed, p.agrees)
            for p in reference_points
        ]
        assert all(p.agrees for p in points)

    def test_default_sweep_equals_the_full_recording_sweep(self, reference_points):
        """The default is verdict-only (the bitmask fast path), and it
        returns the full-recording sweep's points, details included."""
        default = inspect.signature(sweep_theorem8).parameters["recording"].default
        assert default == "verdict-only"
        full = sweep_theorem8(PINNED_GRID, recording="full", **PINNED_KWARGS)
        assert len(reference_points) == len(full)
        for point, full_point in zip(reference_points, full):
            assert point == full_point  # details included
        assert all(point.details for point in full)

    @pytest.mark.parametrize("recording", RECORDING_POLICY_NAMES)
    def test_process_backend_sweep_identical_across_policies(
        self, reference_points, recording
    ):
        points = sweep_theorem8(
            PINNED_GRID,
            runner=CampaignRunner(backend="process", workers=2),
            recording=recording,
            **PINNED_KWARGS,
        )
        assert [
            (p.n, p.f, p.k, p.predicted, p.observed, p.agrees) for p in points
        ] == [
            (p.n, p.f, p.k, p.predicted, p.observed, p.agrees)
            for p in reference_points
        ]


class TestResourceUsagePlumbing:
    """The cost counters are outcome, not measurement: bit-identical
    across every recording name and every campaign backend."""

    @staticmethod
    def _usage_triples(result):
        return sorted(
            (o.steps, o.messages_sent, o.messages_delivered) for o in result.outcomes
        )

    @pytest.fixture(scope="class")
    def reference_triples(self):
        specs = theorem8_specs(PINNED_GRID, **PINNED_KWARGS)
        result = CampaignRunner().run(specs)
        triples = self._usage_triples(result)
        assert any(sent for _steps, sent, _delivered in triples)  # non-trivial
        return triples

    @pytest.mark.parametrize("recording", RECORDING_POLICY_NAMES)
    def test_counters_identical_across_recording_policies(
        self, reference_triples, recording
    ):
        specs = theorem8_specs(PINNED_GRID, recording=recording, **PINNED_KWARGS)
        result = CampaignRunner().run(specs)
        assert self._usage_triples(result) == reference_triples

    @pytest.mark.parametrize("backend,workers", [
        ("serial", None), ("process", 2),
    ])
    def test_counters_identical_across_backends(
        self, reference_triples, backend, workers
    ):
        specs = theorem8_specs(PINNED_GRID, **PINNED_KWARGS)
        result = CampaignRunner(backend=backend, workers=workers).run(specs)
        assert self._usage_triples(result) == reference_triples

    @pytest.mark.parametrize("backend,workers", [
        ("serial", None), ("process", 2),
    ])
    def test_events_carry_usage_matching_the_outcomes(self, backend, workers):
        """Every ScenarioEvent's ResourceUsage equals its outcome's
        counters (equality ignores wall seconds), on every backend."""
        from repro.store import CollectingProgressReporter, fingerprint_spec

        specs = theorem8_specs([4], **PINNED_KWARGS)
        reporter = CollectingProgressReporter()
        result = CampaignRunner(backend=backend, workers=workers).run(
            specs, on_settle=reporter)
        by_fp = {fingerprint_spec(o.spec): o for o in result.outcomes}
        events = reporter.events
        assert len(events) == len(specs)
        for event in events:
            outcome = by_fp[event.fingerprint]
            assert event.usage is not None
            assert event.usage.steps == outcome.steps
            assert event.usage.messages_sent == outcome.messages_sent
            assert event.usage.messages_delivered == outcome.messages_delivered
            assert not event.cached


class TestStoreInteraction:
    def test_cached_sweep_respects_recording_fingerprints(self, tmp_path):
        """Different policies are distinct cache keys but equal verdicts."""
        from repro.store import CachingRunner, open_store

        specs_full = theorem8_specs([4], seeds=(1,), max_steps=2_000)
        specs_trim = theorem8_specs([4], seeds=(1,), max_steps=2_000,
                                    recording="verdict-only")
        with open_store(tmp_path / "rec.sqlite") as store:
            runner = CachingRunner(store)
            cold = runner.run(specs_trim)
            assert runner.last_stats.cached == 0
            warm_runner = CachingRunner(store)
            warm = warm_runner.run(specs_trim)
            assert warm_runner.last_stats.executed == 0
            assert warm == cold
            # a full-recording campaign is keyed separately (no stale hits)
            full_runner = CachingRunner(store)
            full = full_runner.run(specs_full)
            assert full_runner.last_stats.cached == 0
        assert [o.verdict for o in full.outcomes] == [o.verdict for o in cold.outcomes]
