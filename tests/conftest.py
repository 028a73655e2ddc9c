"""Shared fixtures and hypothesis configuration for the test suite."""

from __future__ import annotations

import gc
import tracemalloc

import pytest
from hypothesis import HealthCheck, settings

from repro.algorithms.kset_initial_crash import KSetInitialCrash
from repro.algorithms.trivial import DecideOwnValue
from repro.models.asynchronous import asynchronous_model
from repro.models.initial_crash import initial_crash_model
from repro.simulation.executor import ExecutionSettings, execute

# Keep property-based tests fast and deterministic in CI-like environments.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")
# Opt-in deep run (CI's differential-oracle step):
#   pytest --hypothesis-profile=repro-thorough ...
settings.register_profile(
    "repro-thorough",
    parent=settings.get_profile("repro"),
    max_examples=2_000,
)


@pytest.fixture
def small_async_model():
    """A 4-process asynchronous model tolerating one crash."""
    return asynchronous_model(4, 1)


@pytest.fixture
def small_initial_crash_model():
    """A 6-process asynchronous model with up to 3 initial crashes."""
    return initial_crash_model(6, 3)


@pytest.fixture
def distinct_proposals():
    """Factory: proposals {p: p} for a model."""

    def build(model):
        return {pid: pid for pid in model.processes}

    return build


@pytest.fixture
def run_factory(distinct_proposals):
    """Factory producing a completed run of an algorithm in a model."""

    def build(algorithm=None, model=None, *, proposals=None, adversary=None,
              failure_pattern=None, max_steps=5_000, stop_condition=None):
        model = model or initial_crash_model(6, 3)
        algorithm = algorithm or KSetInitialCrash(6, 3)
        proposals = proposals or distinct_proposals(model)
        return execute(
            algorithm,
            model,
            proposals,
            adversary=adversary,
            failure_pattern=failure_pattern,
            settings=ExecutionSettings(max_steps=max_steps, stop_condition=stop_condition),
        )

    return build


@pytest.fixture
def trivial_algorithm():
    """The decide-own-value baseline algorithm."""
    return DecideOwnValue()


@pytest.fixture
def traced_memory():
    """Run ``call()`` under :mod:`tracemalloc`.

    Returns the call's result, the bytes it allocated that are still
    held when it returns (its result's size, for a reader) and the peak
    of its traced allocations.
    """

    def measure(call):
        gc.collect()
        tracemalloc.start()
        try:
            result = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, held, peak

    return measure
