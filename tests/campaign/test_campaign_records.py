"""The campaign records keep the contract of a generated frozen dataclass.

``ScenarioSpec``, ``ScenarioOutcome`` and ``ScenarioEvent`` are built
once per position of a campaign (a grid compile, a store hit, a settled
slot), so each is a ``@dataclass(frozen=True, init=False)`` with a
hand-written ``__init__`` that fills the instance dict directly.  These
tests hold each one to what the generated constructor gave: the same
parameters, order and defaults as its fields, frozen fields, equal
instances that hash equal, and ``replace``, ``copy`` and ``pickle``
round trips.  The spec's constructor also keeps its validation, word for
word, and its pickled bytes.
"""

from __future__ import annotations

import copy
import dataclasses
import inspect
import pickle

import pytest

from repro.campaign import ScenarioEvent, ScenarioOutcome, ScenarioSpec
from repro.campaign import spec as spec_module
from repro.exceptions import ConfigurationError
from repro.store import fingerprint_spec
from repro.telemetry.spans import SpanRecord

_SPEC = ScenarioSpec(
    kind="theorem8-solvable", n=5, f=2, k=1, scheduler="random", seed=3,
    crashes=((2, 0), (4, 7)), max_steps=9_000, params=(("max_delay", 8),),
)
_OUTCOME = ScenarioOutcome(
    _SPEC, "violation", False, False, False, 2, 3, 41, True,
    ("agreement",), "boom", 17, 12,
)
_SPAN = SpanRecord("execute", "c0ffee", 1, None, 4242, 7, 1.5, 0.25)

#: Every record with a value for each of its fields, none of them a default.
RECORDS = {
    ScenarioSpec: dict(kind="corollary13-k1", n=6, f=5, k=2, scheduler="random",
                       seed=4, crashes=((1, 0), (3, 2)), max_steps=500,
                       params=(("max_delay", 8),), recording="verdict-only"),
    ScenarioOutcome: dict(spec=_SPEC, verdict="violation", agreement_ok=False,
                          validity_ok=False, termination_ok=False,
                          distinct_decisions=2, decided=3, steps=41,
                          truncated=True, violations=("agreement",),
                          error="boom", messages_sent=17,
                          messages_delivered=12),
    ScenarioEvent: dict(spec=_SPEC, outcome=_OUTCOME, seconds=0.5,
                        worker_pid=4242, cached=True, spans=(_SPAN,)),
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
    # A span's attrs are a dict, so only an event without spans hashes.
    hashable = {"spans": ()} if cls is ScenarioEvent else {}
    assert (hash(dataclasses.replace(first, **hashable))
            == hash(dataclasses.replace(second, **hashable)))
    name = dataclasses.fields(cls)[0].name
    other = dataclasses.replace(first, **{name: "other"})
    assert other != first
    assert getattr(other, name) == "other"


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
    fields = ", ".join(
        f"{name}={value!r}" for name, value in _field_values(record).items())
    assert repr(record) == f"{cls.__qualname__}({fields})"


class TestSpecConstructor:
    @pytest.mark.parametrize("fields, message", [
        (dict(n=0, f=0, k=1), "n must be >= 1, got n=0"),
        (dict(n=4, f=4, k=1),
         "the failure bound must satisfy 0 <= f < n, got f=4, n=4"),
        (dict(n=4, f=-1, k=1),
         "the failure bound must satisfy 0 <= f < n, got f=-1, n=4"),
        (dict(n=4, f=1, k=0), "k must be >= 1, got k=0"),
        (dict(n=4, f=1, k=1, max_steps=0), "max_steps must be >= 1, got 0"),
        (dict(n=4, f=1, k=1, recording="trace"),
         "unknown recording policy 'trace'; choose one of "
         "('full', 'decisions-only', 'verdict-only')"),
    ])
    def test_each_invalid_field_raises_its_message(self, fields, message):
        with pytest.raises(ConfigurationError) as raised:
            ScenarioSpec(kind="x", **fields)
        assert str(raised.value) == message

    @pytest.mark.parametrize("crashes", [
        (3,), ((1, 0, 2),), (("p1", 0),), ((1, None),), None,
    ])
    def test_a_schedule_that_is_not_integer_pairs_is_rejected(self, crashes):
        with pytest.raises(ConfigurationError, match="crashes must be"):
            ScenarioSpec(kind="x", n=4, f=1, k=1, crashes=crashes)

    @pytest.mark.parametrize("crashes", [
        [(4, 7), (2, 0)], ((4.0, 7), (2, False)), iter([[2, 0], [4, 7]]),
        frozenset({(4, 7), (2, 0)}),
    ])
    def test_any_iterable_of_pairs_becomes_sorted_int_pairs(self, crashes):
        spec = ScenarioSpec(kind="x", n=5, f=2, k=1, crashes=crashes)
        assert spec.crashes == ((2, 0), (4, 7))
        assert {type(value) for pair in spec.crashes for value in pair} == {int}
        assert type(spec.crashes) is tuple
        assert {type(pair) for pair in spec.crashes} == {tuple}

    def test_equal_schedules_become_one_shared_tuple(self):
        first = ScenarioSpec(kind="x", n=5, f=2, k=1, crashes=[(4, 7), (2, 0)])
        second = ScenarioSpec(kind="y", n=6, f=3, k=2, crashes=((2, 0), (4, 7)))
        assert first.crashes is second.crashes

    def test_the_schedule_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(spec_module, "_SCHEDULES", {})
        monkeypatch.setattr(spec_module, "_SCHEDULES_LIMIT", 4)
        specs = [ScenarioSpec(kind="x", n=12, f=11, k=1, crashes=((p, 0),))
                 for p in range(1, 13)]
        assert len(spec_module._SCHEDULES) <= 4
        for spec in specs:  # most schedules were evicted; the text is unchanged
            text = repr((4, spec.identity()))
            assert spec.identity_text(4) == text
        assert len(spec_module._SCHEDULES) <= 4

    #: ``pickle.dumps(_SPEC, protocol)`` as the generated constructor left
    #: it: the pool pipe ships specs at the highest protocol.
    PICKLED = {
        2: "800263726570726f2e63616d706169676e2e737065630a5363656e6172696f5370"
           "65630a7100298171017d71022858040000006b696e64710358110000007468656f"
           "72656d382d736f6c7661626c65710458010000006e71054b0558010000006671064b"
           "0258010000006b71074b0158090000007363686564756c65727108580600000072"
           "616e646f6d7109580400000073656564710a4b03580700000063726173686573710b"
           "4b024b0086710c4b044b0786710d86710e58090000006d61785f7374657073710f4d"
           "28235806000000706172616d73711058090000006d61785f64656c617971114b0886"
           "711285711358090000007265636f7264696e677114580400000066756c6c711575622e",
        5: "800595d0000000000000008c13726570726f2e63616d706169676e2e73706563948c"
           "0c5363656e6172696f537065639493942981947d94288c046b696e64948c11746865"
           "6f72656d382d736f6c7661626c65948c016e944b058c0166944b028c016b944b018c"
           "097363686564756c6572948c0672616e646f6d948c0473656564944b038c07637261"
           "73686573944b024b0086944b044b07869486948c096d61785f7374657073944d2823"
           "8c06706172616d73948c096d61785f64656c6179944b08869485948c097265636f72"
           "64696e67948c0466756c6c9475622e",
    }

    @pytest.mark.parametrize("protocol", sorted(PICKLED))
    def test_a_pickled_spec_keeps_its_bytes(self, protocol):
        spec = dataclasses.replace(_SPEC)
        fingerprint_spec(spec)
        spec.derived_seed()  # the memos never reach the pickle
        assert pickle.dumps(spec, protocol).hex() == self.PICKLED[protocol]
