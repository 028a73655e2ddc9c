"""Span tracer semantics: hierarchy, ambient activation, phase laps."""

from __future__ import annotations

import pickle
import threading

import pytest

from repro.telemetry import (
    PhaseAccumulator,
    SpanRecord,
    Tracer,
    activate,
    activated,
    current_tracer,
    deactivate,
    span,
)


class TestHierarchy:
    def test_nested_spans_record_parent_child_ids(self):
        tracer = Tracer(trace_id="t1")
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id is None

    def test_sibling_spans_share_a_parent(self):
        tracer = Tracer(trace_id="t1")
        with tracer.span("root"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["a"].parent_id == by_name["b"].parent_id
        assert by_name["a"].parent_id == by_name["root"].span_id

    def test_span_ids_are_unique_within_a_tracer(self):
        tracer = Tracer()
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        ids = [r.span_id for r in tracer.records()]
        assert len(set(ids)) == len(ids)

    def test_attrs_are_recorded(self):
        tracer = Tracer()
        with tracer.span("s", n=4, label="demo"):
            pass
        (record,) = tracer.records()
        assert record.attrs == {"n": 4, "label": "demo"}

    def test_exception_inside_span_still_records_it(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert [r.name for r in tracer.records()] == ["doomed"]

    def test_ending_an_ancestor_discards_abandoned_children(self):
        # The executor does not wrap its loop in try/finally; if it
        # raises, its open "execute" span is abandoned and must be
        # discarded when the scenario root closes — not mis-parent later
        # spans.
        tracer = Tracer()
        root = tracer.start_span("scenario")
        tracer.start_span("execute")  # abandoned on purpose
        tracer.end_span(root)
        assert [r.name for r in tracer.records()] == ["scenario"]
        with tracer.span("next"):
            pass
        assert tracer.records()[-1].parent_id is None

    def test_per_thread_stacks_do_not_interleave(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def traced(name: str) -> None:
            barrier.wait()
            with tracer.span(name):
                with tracer.span(f"{name}-child"):
                    pass

        threads = [
            threading.Thread(target=traced, args=(n,)) for n in ("t1", "t2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        by_name = {r.name: r for r in tracer.records()}
        assert by_name["t1-child"].parent_id == by_name["t1"].span_id
        assert by_name["t2-child"].parent_id == by_name["t2"].span_id


class TestAmbient:
    def test_no_tracer_by_default(self):
        assert current_tracer() is None

    def test_activate_and_deactivate(self):
        tracer = Tracer()
        activate(tracer)
        try:
            assert current_tracer() is tracer
        finally:
            deactivate()
        assert current_tracer() is None

    def test_activated_restores_the_previous_tracer(self):
        outer, inner = Tracer(), Tracer()
        with activated(outer):
            with activated(inner):
                assert current_tracer() is inner
            assert current_tracer() is outer
        assert current_tracer() is None

    def test_module_span_is_a_noop_without_a_tracer(self):
        with span("anything", key="value"):
            pass  # must not raise, must not record anywhere

    def test_module_span_records_on_the_ambient_tracer(self):
        tracer = Tracer()
        with activated(tracer):
            with span("ambient", k=3):
                pass
        (record,) = tracer.records()
        assert record.name == "ambient"
        assert record.attrs == {"k": 3}

    def test_ambient_tracer_is_thread_local(self):
        tracer = Tracer()
        seen = []

        def other_thread() -> None:
            seen.append(current_tracer())

        with activated(tracer):
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert seen == [None]


class TestPhases:
    def test_laps_accumulate_per_phase(self):
        acc = PhaseAccumulator()
        for _ in range(3):
            acc.lap("a")
            acc.lap("b")
        totals = dict((name, laps) for name, _, laps in acc.totals())
        assert totals == {"a": 3, "b": 3}
        assert all(seconds >= 0.0 for _, seconds, _ in acc.totals())

    def test_finish_with_phases_emits_child_spans(self):
        tracer = Tracer(trace_id="t")
        opened = tracer.start_span("execute")
        acc = PhaseAccumulator()
        acc.lap("scheduling")
        acc.lap("delivery")
        record = tracer.finish_with_phases(opened, acc, steps=1)
        names = [r.name for r in tracer.records()]
        assert names[0] == "execute"
        assert set(names[1:]) == {"phase:scheduling", "phase:delivery"}
        for child in tracer.records()[1:]:
            assert child.parent_id == record.span_id
            assert child.attrs["laps"] == 1


class TestRecords:
    def test_span_records_are_picklable(self):
        tracer = Tracer(trace_id="t")
        with tracer.span("s", n=4):
            pass
        (record,) = tracer.records()
        clone = pickle.loads(pickle.dumps(record))
        assert clone == record

    def test_drain_empties_the_tracer(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        assert len(tracer.drain()) == 1
        assert tracer.records() == ()
        assert tracer.drain() == ()

    def test_durations_are_non_negative(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        for record in tracer.records():
            assert isinstance(record, SpanRecord)
            assert record.duration >= 0.0
