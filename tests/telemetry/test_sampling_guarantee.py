"""The never-empty sampling guarantee.

The stride filter keeps a scenario iff ``derived_seed() % stride == 0``
— a property no seed of a small campaign is obliged to have, so a
strided campaign used to be able to trace *zero* scenarios, and the
report CLI would summarise the empty trace as if tracing had been off.
``WorkerTelemetry.ensure_samples`` (applied by ``CampaignRunner.run``)
closes the hole: when the stride filter comes up empty, the first
spec's derived seed is force-sampled — deterministically, so every
backend traces the same scenario.
"""

from __future__ import annotations

import pytest

from repro.campaign import CampaignRunner, theorem8_specs
from repro.store import CollectingProgressReporter
from repro.telemetry import WorkerTelemetry

PINNED_KWARGS = {"seeds": (1,), "max_steps": 4_000}


def _specs():
    return theorem8_specs([4], **PINNED_KWARGS)


def _empty_stride(specs) -> int:
    """A stride > 1 under which the plain filter samples nothing."""
    for stride in range(2, 1000):
        if all(spec.derived_seed() % stride for spec in specs):
            return stride
    raise AssertionError("no empty stride below 1000; pick other specs")


class TestEnsureSamples:
    def test_stride_filter_can_come_up_empty(self):
        # The premise of the bug: a legal stride that samples nothing.
        specs = _specs()
        stride = _empty_stride(specs)
        bare = WorkerTelemetry(campaign="c", stride=stride)
        assert not any(bare.samples(spec) for spec in specs)

    def test_ensure_samples_forces_the_first_spec(self):
        specs = _specs()
        stride = _empty_stride(specs)
        fixed = WorkerTelemetry(campaign="c", stride=stride).ensure_samples(specs)
        assert fixed.force_seed == specs[0].derived_seed()
        assert fixed.samples(specs[0])
        assert sum(1 for spec in specs if fixed.samples(spec)) >= 1

    def test_ensure_samples_is_a_noop_when_stride_already_hits(self):
        specs = _specs()
        telemetry = WorkerTelemetry(campaign="c", stride=1)
        assert telemetry.ensure_samples(specs) is telemetry
        stride = _empty_stride(specs)
        hitting = WorkerTelemetry(
            campaign="c", stride=stride,
            force_seed=specs[-1].derived_seed())
        assert hitting.ensure_samples(specs) is hitting

    def test_ensure_samples_handles_empty_spec_list(self):
        telemetry = WorkerTelemetry(campaign="c", stride=7)
        assert telemetry.ensure_samples([]) is telemetry


class TestCampaignNeverTracesZero:
    @pytest.mark.parametrize("backend,workers", [
        ("serial", None),
        ("process", 2),
    ])
    def test_strided_campaign_traces_at_least_one_scenario(
        self, backend, workers
    ):
        specs = _specs()
        stride = _empty_stride(specs)
        reporter = CollectingProgressReporter()
        CampaignRunner(backend=backend, workers=workers).run(
            specs, on_settle=reporter,
            telemetry=WorkerTelemetry(campaign="strided", stride=stride))
        traced = [event for event in reporter.events if event.spans]
        assert traced, "a strided campaign must still trace >= 1 scenario"

    def test_forced_scenario_identical_across_backends(self):
        specs = _specs()
        stride = _empty_stride(specs)

        def traced_labels(backend, workers):
            reporter = CollectingProgressReporter()
            CampaignRunner(backend=backend, workers=workers).run(
                specs, on_settle=reporter,
                telemetry=WorkerTelemetry(campaign="strided", stride=stride))
            return sorted(e.label for e in reporter.events if e.spans)

        assert traced_labels("serial", None) == traced_labels("process", 2)
