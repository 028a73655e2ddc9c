"""The per-step records keep the contract of a generated frozen dataclass.

``Message``, ``Outgoing``, ``StepOutput``, ``StepDirective``,
``StepEvent`` and ``TwoStageState`` are built on every step or message of
a scalar run, so each is a ``@dataclass(frozen=True, init=False)`` with a
hand-written ``__init__`` that fills the instance dict directly.  These
tests hold each one to what the generated constructor gave: the same
parameters, order and defaults as its fields, frozen fields, equal
instances that hash equal, and ``replace``, ``copy`` and ``pickle``
round trips.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest

from repro.algorithms.base import Outgoing, StepOutput
from repro.algorithms.two_stage import TwoStageState
from repro.exceptions import AlgorithmError
from repro.simulation.events import StepEvent
from repro.simulation.message import Message
from repro.simulation.scheduler import StepDirective

_MESSAGE = Message(4, 2, 1, ("S2", 2, (3,), "b"), 3)
_STATE = TwoStageState(
    1, "a", "b", 2, True, True, frozenset({2, 3}), (2, 3),
    frozenset({(1, (2, 3), "a"), (2, (3,), "b")}),
)

#: Every record with a value for each of its fields, none of them a default.
RECORDS = {
    Message: dict(msg_id=4, sender=2, receiver=1,
                  payload=("S2", 2, (3,), "b"), sent_at=3),
    Outgoing: dict(receiver=3, payload=("S1", 1)),
    StepOutput: dict(state=_STATE, messages=(Outgoing(3, ("S1", 1)),)),
    StepDirective: dict(pid=2, deliver=(4, 7)),
    StepEvent: dict(time=5, pid=1, delivered=(_MESSAGE,), fd_output="fd",
                    sent=(Message(9, 1, 3, ("S1", 1), 5),),
                    state_after=_STATE, newly_decided=True),
    TwoStageState: dict(pid=1, proposal="a", decision="b", stage=2,
                        sent_stage1=True, sent_stage2=True,
                        heard_stage1=frozenset({2, 3}), predecessors=(2, 3),
                        reports=frozenset({(1, (2, 3), "a")})),
}

records = pytest.mark.parametrize(
    "cls", list(RECORDS), ids=lambda cls: cls.__name__)


def _build(cls):
    return cls(**RECORDS[cls])


def _field_values(record):
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


@records
def test_the_constructor_lists_exactly_the_fields(cls):
    expected = [
        (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING
         else f.default)
        for f in dataclasses.fields(cls)
    ]
    parameters = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in parameters] == expected
    assert {p.kind for p in parameters} == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


@records
def test_the_constructor_sets_every_field(cls):
    values = RECORDS[cls]
    assert _field_values(cls(**values)) == values
    assert _field_values(cls(*values.values())) == values


@records
def test_omitted_arguments_take_the_field_defaults(cls):
    required = {f.name: RECORDS[cls][f.name] for f in dataclasses.fields(cls)
                if f.default is dataclasses.MISSING}
    record = cls(**required)
    for f in dataclasses.fields(cls):
        if f.default is not dataclasses.MISSING:
            assert getattr(record, f.name) == f.default, f.name


@records
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = _build(cls)
    for f in dataclasses.fields(cls):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, f.name)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.unlisted = 1
    assert _field_values(record) == RECORDS[cls]


@records
def test_equal_instances_hash_equal(cls):
    first, second = _build(cls), _build(cls)
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    name = dataclasses.fields(cls)[0].name
    other = dataclasses.replace(first, **{name: 99})
    assert other != first
    assert getattr(other, name) == 99


@records
def test_replace_copy_and_pickle_round_trip(cls):
    record = _build(cls)
    assert dataclasses.replace(record) == record
    assert copy.copy(record) == record
    assert copy.deepcopy(record) == record
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(record, protocol))
        assert type(restored) is cls
        assert restored == record
        assert _field_values(restored) == RECORDS[cls]


@records
def test_repr_is_the_generated_one(cls):
    record = _build(cls)
    if cls is Message:  # the one record with a repr of its own
        assert repr(record) == "Message(#4 p2->p1 @3 ('S2', 2, (3,), 'b'))"
        return
    fields = ", ".join(
        f"{name}={value!r}" for name, value in _field_values(record).items())
    assert repr(record) == f"{cls.__qualname__}({fields})"


class TestTwoStageStateDecide:
    def test_decide_sets_the_decision_and_keeps_every_other_field(self):
        state = TwoStageState(1, "a", stage=2, predecessors=(2,))
        decided = state.decide("b")
        assert type(decided) is TwoStageState
        assert decided.decision == "b" and decided.has_decided
        assert not state.has_decided
        assert _field_values(decided) == {**_field_values(state), "decision": "b"}

    def test_the_decision_is_write_once(self):
        decided = TwoStageState(1, "a").decide("b")
        assert decided.decide("b") is decided
        with pytest.raises(AlgorithmError):
            decided.decide("c")
