"""ResultStore backends: round-trip fidelity, persistence, crash repair."""

from __future__ import annotations

import json
import sqlite3
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.campaign import CampaignRunner, ScenarioSpec, theorem8_specs
from repro.campaign.codec import (outcome_from_row, outcome_to_row,
                                  spec_from_dict, spec_to_dict)
from repro.campaign.spec import RECORDING_POLICY_NAMES, ScenarioOutcome
from repro.exceptions import ConfigurationError
from repro.store import (
    JsonlResultStore,
    SqliteResultStore,
    fingerprint_spec,
    open_store,
)
from repro.store.compact import compact_store

from store_backends import BACKENDS, make_store

SPECS = theorem8_specs([4], seeds=(1,), max_steps=4_000)
OUTCOMES = CampaignRunner().run(SPECS).outcomes


class TestRoundTrip:
    def test_put_get_identity(self, store):
        for outcome in OUTCOMES[:5]:
            fingerprint = fingerprint_spec(outcome.spec)
            store.put(fingerprint, outcome)
            assert store.get(fingerprint) == outcome

    def test_keys_are_digest_strings(self, store):
        outcome = OUTCOMES[0]
        digest = fingerprint_spec(outcome.spec)
        assert isinstance(digest, str) and len(digest) == 64
        store.put(digest, outcome)
        assert store.get(digest) == outcome
        assert digest in store

    def test_miss_returns_none(self, store):
        assert store.get("0" * 64) is None
        assert "0" * 64 not in store

    def test_get_many_returns_only_hits(self, store):
        stored = OUTCOMES[:3]
        for outcome in stored:
            store.put(fingerprint_spec(outcome.spec), outcome)
        wanted = [o.spec for o in OUTCOMES[:6]]
        hits = store.get_many(wanted)
        assert set(hits) == {fingerprint_spec(spec) for spec in wanted[:3]}
        assert all(hits[fingerprint_spec(o.spec)] == o for o in stored)

    def test_puts_and_len(self, store):
        for outcome in OUTCOMES:
            store.put(fingerprint_spec(outcome.spec), outcome)
        assert len(store) == len(OUTCOMES)
        assert store.fingerprints() == frozenset(fingerprint_spec(o.spec) for o in OUTCOMES)

    def test_last_write_wins(self, store):
        first, second = OUTCOMES[0], OUTCOMES[1]
        key = fingerprint_spec(first.spec)
        store.put(key, first)
        store.put(key, second)
        assert store.get(key) == second
        assert len(store) == 1

    def test_error_outcomes_round_trip(self, store):
        infeasible = ScenarioSpec(kind="theorem8-impossible", n=4, f=1, k=1)
        (outcome,) = CampaignRunner().run([infeasible]).outcomes
        assert outcome.verdict == "error"
        store.put(fingerprint_spec(infeasible), outcome)
        assert store.get(fingerprint_spec(infeasible)) == outcome


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40),
    st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=6))
_PARAM_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3).map(tuple),
                            st.frozensets(inner, max_size=3)),
    max_leaves=6)


@st.composite
def _outcomes(draw):
    """Any outcome a store must keep: every verdict, violations, non-ASCII
    error text, crash schedules and nested tuple/frozenset/float params."""
    n = draw(st.integers(1, 8))
    crashes = draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(0, 50)),
        max_size=n, unique_by=lambda crash: crash[0]))
    spec = ScenarioSpec(
        kind=draw(st.sampled_from(["theorem8-solvable", "probe-ü"])),
        n=n, f=draw(st.integers(0, n - 1)), k=draw(st.integers(1, n + 1)),
        scheduler=draw(st.sampled_from(["round-robin", "random"])),
        seed=draw(st.integers(0, 2**32)),
        crashes=tuple(sorted(crashes)),
        max_steps=draw(st.integers(1, 10**6)),
        params=tuple(draw(st.dictionaries(
            st.text(min_size=1, max_size=4), _PARAM_VALUES, max_size=3)).items()),
        recording=draw(st.sampled_from(RECORDING_POLICY_NAMES)),
    )
    counters = st.integers(0, 2**40)
    return ScenarioOutcome(
        spec=spec,
        verdict=draw(st.sampled_from(["ok", "violation", "error"])),
        agreement_ok=draw(st.booleans()),
        validity_ok=draw(st.booleans()),
        termination_ok=draw(st.booleans()),
        distinct_decisions=draw(counters),
        decided=draw(counters),
        steps=draw(counters),
        truncated=draw(st.booleans()),
        violations=tuple(draw(st.lists(st.text(max_size=12), max_size=3))),
        error=draw(st.text(max_size=24)),
        messages_sent=draw(counters),
        messages_delivered=draw(counters),
    )


class TestRowProperty:
    @pytest.mark.parametrize("backend", BACKENDS)
    @given(outcomes=st.lists(_outcomes(), min_size=1, max_size=4,
                             unique_by=lambda o: fingerprint_spec(o.spec)),
           data=st.data())
    def test_outcomes_round_trip_through_the_store(
            self, tmp_path_factory, backend, outcomes, data):
        directory = tmp_path_factory.mktemp(f"rows-{backend}")
        store = make_store(backend, directory)
        for outcome in outcomes:
            store.put(fingerprint_spec(outcome.spec), outcome)
        if backend != "memory":
            store.close()
            store = make_store(backend, directory)
        try:
            expected = {fingerprint_spec(o.spec): o for o in outcomes}
            # Duplicates, as the caller's instances and as equal copies.
            asked = [o.spec for o in outcomes] + [
                spec_from_dict(spec_to_dict(o.spec)) for o in outcomes]
            asked = data.draw(st.permutations(asked))
            assert store.get_many(asked) == expected
            assert dict(store.items()) == expected
        finally:
            store.close()


class TestRowCodec:
    def test_row_is_spec_free_and_in_field_order(self):
        outcome = OUTCOMES[0]
        row = outcome_to_row(outcome)
        assert row == [
            outcome.verdict, outcome.agreement_ok, outcome.validity_ok,
            outcome.termination_ok, outcome.distinct_decisions,
            outcome.decided, outcome.steps, outcome.truncated,
            list(outcome.violations), outcome.error, outcome.messages_sent,
            outcome.messages_delivered]
        assert outcome_from_row(outcome.spec, json.loads(json.dumps(row))) == outcome

    @pytest.mark.parametrize("row", [
        None, {}, "ok", [], ["ok"] * 11, ["ok"] * 13,
        ["ok", True, True, True, 1, 4, 9, False, "agreement", "", 0, 0],
    ])
    def test_a_row_of_the_wrong_shape_is_a_configuration_error(self, row):
        with pytest.raises(ConfigurationError, match="outcome row"):
            outcome_from_row(OUTCOMES[0].spec, row)


@pytest.mark.parametrize("backend_cls,suffix", [
    (JsonlResultStore, "store.jsonl"),
    (SqliteResultStore, "store.sqlite"),
])
class TestPersistence:
    def test_reopen_sees_everything(self, tmp_path, backend_cls, suffix):
        path = tmp_path / suffix
        with backend_cls(path) as store:
            for outcome in OUTCOMES:
                store.put(fingerprint_spec(outcome.spec), outcome)
        with backend_cls(path) as reopened:
            assert len(reopened) == len(OUTCOMES)
            for outcome in OUTCOMES:
                assert reopened.get(fingerprint_spec(outcome.spec)) == outcome

    def test_creates_parent_directories(self, tmp_path, backend_cls, suffix):
        path = tmp_path / "nested" / "dirs" / suffix
        with backend_cls(path) as store:
            store.put(fingerprint_spec(OUTCOMES[0].spec), OUTCOMES[0])
        assert path.exists()


@pytest.mark.parametrize("name,backend", [
    ("store.sqlite", "sqlite"),
    ("store.sqlite3", "sqlite"),
    ("store.db", "sqlite"),
    ("store.jsonl", "jsonl"),
    ("store.results", "jsonl"),  # an unknown suffix is JSONL
])
def test_open_and_compact_pick_the_same_backend(tmp_path, name, backend):
    path = tmp_path / name
    with open_store(path) as store:
        store.put(fingerprint_spec(OUTCOMES[0].spec), OUTCOMES[0])
    opened = {JsonlResultStore: "jsonl", SqliteResultStore: "sqlite"}[type(store)]
    assert opened == backend
    assert compact_store(path).backend == backend


def test_jsonl_open_holds_its_index_not_the_superseded_rows(
        tmp_path, traced_memory):
    # Every fingerprint written 100 times: the open keeps the last row
    # of each, and no copy of the file, its lines or the earlier rows.
    path = tmp_path / "store.jsonl"
    with JsonlResultStore(path) as store:
        for outcome in OUTCOMES:
            store.put(fingerprint_spec(outcome.spec), outcome)
    path.write_bytes(path.read_bytes() * 100)
    bound = 256 * 1024
    assert path.stat().st_size > 4 * bound
    store, held, peak = traced_memory(lambda: JsonlResultStore(path))
    with store:
        assert len(store) == len(OUTCOMES)
    assert peak < held + bound


class TestJsonlCrashRepair:
    def _populate(self, path, count=3):
        with JsonlResultStore(path) as store:
            for outcome in OUTCOMES[:count]:
                store.put(fingerprint_spec(outcome.spec), outcome)

    def test_torn_final_line_is_dropped_and_healed(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self._populate(path)
        intact = path.read_text()
        path.write_text(intact + '{"fp": "dead", "v": 1, "outco')  # killed mid-append
        with JsonlResultStore(path) as store:
            assert len(store) == 3  # the torn record is gone, the rest intact
            # ... and the file was healed: appends land on a fresh line.
            store.put(fingerprint_spec(OUTCOMES[3].spec), OUTCOMES[3])
        with JsonlResultStore(path) as reopened:
            assert len(reopened) == 4

    def test_missing_trailing_newline_is_repaired(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self._populate(path)
        path.write_text(path.read_text().rstrip("\n"))  # complete record, torn newline
        with JsonlResultStore(path) as store:
            assert len(store) == 3
            store.put(fingerprint_spec(OUTCOMES[3].spec), OUTCOMES[3])
        with JsonlResultStore(path) as reopened:
            assert len(reopened) == 4  # no two records glued onto one line

    def test_mid_file_corruption_is_loud(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self._populate(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:20]  # damage a non-final record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="corrupt result store"):
            JsonlResultStore(path)

    def test_non_object_json_line_is_loud_not_a_crash(self, tmp_path):
        # Valid JSON that is not an object must hit the corruption path,
        # not escape as an AttributeError from record.get().
        path = tmp_path / "store.jsonl"
        self._populate(path)
        lines = path.read_text().splitlines()
        lines.insert(1, "123")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="corrupt result store"):
            JsonlResultStore(path)

    def test_other_schema_versions_are_skipped_not_fatal(self, tmp_path):
        path = tmp_path / "store.jsonl"
        self._populate(path)
        with path.open("a") as handle:
            handle.write(json.dumps({"fp": "f" * 64, "v": 999, "outcome": {}}) + "\n")
        with JsonlResultStore(path) as store:
            assert len(store) == 3
            assert store.get("f" * 64) is None

    # -- byte-level classification fixtures --------------------------------
    # These pin exactly which shapes truncate (kill artefacts) and which
    # raise (real corruption); see the module docstring of
    # repro/store/jsonl.py for the rationale of each.

    def test_corrupt_final_line_with_trailing_newline_raises(self, tmp_path):
        # A garbage line WITH its newline was written whole — a torn
        # single write(json + "\n") can never produce it, so it is real
        # corruption even in final position, not a kill artefact.
        path = tmp_path / "store.jsonl"
        self._populate(path)
        with path.open("a") as handle:
            handle.write("totally not json\n")
        with pytest.raises(ConfigurationError, match="corrupt result store"):
            JsonlResultStore(path)

    def test_torn_line_that_is_a_valid_json_prefix_is_truncated(self, tmp_path):
        # A record torn at an object boundary parses as valid JSON but
        # is not a loadable record; in tail position (no newline) it is
        # a kill artefact and must be healed away, never half-loaded.
        path = tmp_path / "store.jsonl"
        self._populate(path)
        intact = path.read_bytes()
        from repro.store import SCHEMA_VERSION
        path.write_bytes(intact + json.dumps({"fp": "a" * 64, "v": SCHEMA_VERSION}).encode())
        with JsonlResultStore(path) as store:
            assert len(store) == 3
            assert store.get("a" * 64) is None
        assert path.read_bytes() == intact  # healed back to the good prefix

    def test_empty_file_loads_empty_and_is_untouched(self, tmp_path):
        path = tmp_path / "store.jsonl"
        path.write_bytes(b"")
        with JsonlResultStore(path) as store:
            assert len(store) == 0
        assert path.read_bytes() == b""

    def test_file_of_only_other_schema_rows_loads_empty_untouched(self, tmp_path):
        path = tmp_path / "store.jsonl"
        rows = [{"fp": format(i, "064x"), "v": 999, "outcome": {}} for i in range(3)]
        original = "".join(json.dumps(row) + "\n" for row in rows).encode()
        path.write_bytes(original)
        with JsonlResultStore(path) as store:
            assert len(store) == 0
        assert path.read_bytes() == original  # foreign rows kept for forensics

    def test_current_version_record_with_broken_fp_is_corruption(self, tmp_path):
        # Right schema version but a non-string fingerprint: that is a
        # damaged record, not a foreign schema — it must raise when
        # followed by more data.
        path = tmp_path / "store.jsonl"
        self._populate(path)
        from repro.store import SCHEMA_VERSION
        lines = path.read_text().splitlines()
        lines.insert(1, json.dumps({"fp": 42, "v": SCHEMA_VERSION, "outcome": {}}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigurationError, match="corrupt result store"):
            JsonlResultStore(path)


class TestSqliteSpecifics:
    def test_get_many_batches_over_the_in_limit(self, tmp_path):
        # More lookups than one IN (...) batch; hits must still all land.
        with SqliteResultStore(tmp_path / "store.sqlite") as store:
            for outcome in OUTCOMES:
                store.put(fingerprint_spec(outcome.spec), outcome)
            wanted = [o.spec for o in OUTCOMES]
            wanted += [replace(SPECS[0], seed=10_000 + i) for i in range(600)]  # misses
            hits = store.get_many(wanted)
            assert len(hits) == len(OUTCOMES)

    def test_unreadable_file_is_a_configuration_error(self, tmp_path):
        path = tmp_path / "store.sqlite"
        path.write_text("this is not a database")
        with pytest.raises(ConfigurationError):
            store = SqliteResultStore(path)
            try:
                store.get("0" * 64)
            finally:
                store.close()

    def test_an_outcome_column_of_two_values_is_loud(self, tmp_path):
        # get_many decodes a batch of outcome columns with one json.loads;
        # a column holding two arrays must not shift rows onto the wrong
        # fingerprints.
        path = tmp_path / "store.sqlite"
        with SqliteResultStore(path) as store:
            for outcome in OUTCOMES[:3]:
                store.put(fingerprint_spec(outcome.spec), outcome)
        row = json.dumps(outcome_to_row(OUTCOMES[0]))
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE results SET outcome = ? WHERE fingerprint = ?",
                         (f"{row},{row}", fingerprint_spec(OUTCOMES[0].spec)))
        conn.close()
        with SqliteResultStore(path) as store:
            with pytest.raises(ConfigurationError, match="more than one JSON value"):
                store.get_many([o.spec for o in OUTCOMES[:3]])
