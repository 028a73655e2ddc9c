"""Fingerprint stability, sensitivity and schema-version invalidation."""

from __future__ import annotations

import hashlib
import json
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.campaign import ScenarioSpec, run_scenario
from repro.campaign.codec import spec_from_dict, spec_to_dict
from repro.campaign.spec import RECORDING_POLICY_NAMES
from repro.store import SCHEMA_VERSION, fingerprint_spec

SPEC = ScenarioSpec(
    kind="theorem8-solvable", n=5, f=2, k=1, scheduler="random", seed=3,
    crashes=((2, 0), (4, 7)), max_steps=9_000, params=(("max_delay", 8),),
)

FROZENSET_PARAMS = (("groups", frozenset({"alpha", "beta", "gamma"})),
                    ("nested", (frozenset({3, 1, 2}), "x")))


def _recorded(recording):
    return dict(kind="theorem8-solvable", n=7, f=3, k=2, scheduler="random",
                seed=5, crashes=((1, 0), (3, 0), (6, 0)), max_steps=4_000,
                recording=recording)


#: Literal digests and derived seeds, written down when they were first
#: computed.  One breaks when the identity text, its canonicalisation or
#: SCHEMA_VERSION changes, which is exactly when stored caches (and every
#: random schedule) must be considered invalidated.
PINS = {
    "two-pair schedule and a param": (
        dict(kind="theorem8-solvable", n=5, f=2, k=1, scheduler="random",
             seed=3, crashes=((2, 0), (4, 7)), max_steps=9_000,
             params=(("max_delay", 8),)),
        "3a23db8bd33be8e0bc6f1234c3a4ceacdc2f4e2d36cdde35c6ebb71b020e51fa",
        14449532834391505772),
    "no crashes": (
        dict(kind="theorem8-solvable", n=4, f=1, k=1),
        "3c94edbedeffb9f867661767cabd62dfd850351e24fae7491fefca362df09c4c",
        10525762841959844295),
    "one-pair schedule": (
        dict(kind="corollary13-k1", n=6, f=5, k=1, scheduler="random", seed=1,
             crashes=((6, 0),), params=(("max_delay", 8),)),
        "c2c540b419269393ad01617a1d070322cc37d8c87a3dc1c80452446c5d1fc738",
        3471564521582478870),
    "frozenset and nested-tuple params": (
        dict(kind="theorem8-solvable", n=4, f=1, k=1, params=FROZENSET_PARAMS),
        "6b425136fb5ae14cce95f162ecfe715f1fd36823fe4d586507093be170233cbd",
        7073783855143348396),
    "recording full": (
        _recorded("full"),
        "013a72f530031d61a2f1cc3e726ccf39c1b27561d84f0d3cfbdd9f1491252910",
        10416935133758623866),
    "recording decisions-only": (
        _recorded("decisions-only"),
        "f6b5ec10bfb49b9ea982ee590922a5947995d003297fe26eae341582e8698714",
        10416935133758623866),
    "recording verdict-only": (
        _recorded("verdict-only"),
        "42a01c700331b3be50bece1c01348fb1a7780a57a219324ec42d1a8840fb5711",
        10416935133758623866),
}


class TestStability:
    PINNED = PINS["two-pair schedule and a param"][1]

    @pytest.mark.parametrize("name", list(PINS))
    def test_pinned_digest_and_derived_seed(self, name):
        fields, digest, seed = PINS[name]
        assert fingerprint_spec(ScenarioSpec(**fields)) == digest
        assert ScenarioSpec(**fields).derived_seed() == seed

    def test_shape(self):
        assert len(self.PINNED) == 64
        assert set(self.PINNED) <= set("0123456789abcdef")

    def test_stable_across_reconstruction_and_pickling(self):
        rebuilt = ScenarioSpec(
            kind="theorem8-solvable", n=5, f=2, k=1, scheduler="random", seed=3,
            crashes=((2, 0), (4, 7)), max_steps=9_000, params=(("max_delay", 8),),
        )
        assert fingerprint_spec(rebuilt) == self.PINNED
        assert fingerprint_spec(pickle.loads(pickle.dumps(SPEC))) == self.PINNED

    def test_schema_version_participates(self):
        import hashlib

        blob = repr((SCHEMA_VERSION + 1, SPEC.identity())).encode()
        bumped = hashlib.sha256(blob).hexdigest()
        assert bumped != self.PINNED  # a schema bump re-keys every scenario


class TestSensitivity:
    @pytest.mark.parametrize(
        "change",
        [
            {"kind": "theorem8-impossible"},
            {"n": 6, "f": 2},
            {"f": 3},
            {"k": 2},
            {"scheduler": "round-robin"},
            {"seed": 4},
            {"crashes": ((2, 0),)},
            {"max_steps": 9_001},
            {"params": (("max_delay", 9),)},
        ],
    )
    def test_every_identity_field_changes_the_fingerprint(self, change):
        fields = dict(
            kind=SPEC.kind, n=SPEC.n, f=SPEC.f, k=SPEC.k, scheduler=SPEC.scheduler,
            seed=SPEC.seed, crashes=SPEC.crashes, max_steps=SPEC.max_steps,
            params=SPEC.params,
        )
        fields.update(change)
        assert fingerprint_spec(ScenarioSpec(**fields)) != fingerprint_spec(SPEC)

    def test_max_steps_changes_fingerprint_but_not_derived_seed(self):
        # The RNG stream survives a budget change (a longer run extends
        # the schedule); the cache key must not (truncation differs).
        longer = ScenarioSpec(
            kind=SPEC.kind, n=SPEC.n, f=SPEC.f, k=SPEC.k, scheduler=SPEC.scheduler,
            seed=SPEC.seed, crashes=SPEC.crashes, max_steps=SPEC.max_steps * 2,
            params=SPEC.params,
        )
        assert longer.derived_seed() == SPEC.derived_seed()
        assert fingerprint_spec(longer) != fingerprint_spec(SPEC)

    def test_grid_of_specs_has_distinct_fingerprints(self):
        from repro.campaign import theorem8_specs

        specs = theorem8_specs([4, 5], seeds=(1,), max_steps=4_000)
        digests = {fingerprint_spec(spec) for spec in specs}
        assert len(digests) == len(specs)

    def test_frozenset_params_are_hashseed_independent(self):
        # A frozenset iterates in PYTHONHASHSEED-dependent order; the
        # identity canonicalisation must erase that, or a store written
        # in one session would miss (and reseed!) in the next.
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "from repro.campaign import ScenarioSpec\n"
            "from repro.store import fingerprint_spec\n"
            "spec = ScenarioSpec(kind='theorem8-solvable', n=4, f=1, k=1,\n"
            f"    params={FROZENSET_PARAMS!r})\n"
            "print(fingerprint_spec(spec), spec.derived_seed())\n"
        )
        src = Path(__file__).resolve().parent.parent.parent / "src"
        results = set()
        for hash_seed in ("1", "2", "1234"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            output = subprocess.run(
                [sys.executable, "-c", script], env=env,
                capture_output=True, text=True, check=True,
            ).stdout.strip()
            results.add(output)
        _, digest, seed = PINS["frozenset and nested-tuple params"]
        assert results == {f"{digest} {seed}"}, f"hash-seed-dependent identity: {results}"


class TestEqualSpecsAreOneScenario:
    """Specs that compare equal key, seed and run as one scenario."""

    FIELDS = dict(kind="theorem8-solvable", n=8, f=3, k=2, scheduler="random",
                  seed=1)
    PLAIN = ((2, 0), (5, 0))

    @pytest.mark.parametrize("twin", [
        ((2.0, 0), (5, 0)),
        ((2, False), (5, 0)),
        ((True, 0), (5, 0.0)),
        [(5, 0), (2, 0)],
    ], ids=["float-pid", "bool-time", "bool-pid", "unsorted-list"])
    def test_twins_share_the_fingerprint_the_seed_and_the_outcome(self, twin):
        plain_crashes = ((1, 0), (5, 0)) if twin[0][0] is True else self.PLAIN
        plain = ScenarioSpec(**self.FIELDS, crashes=plain_crashes)
        other = ScenarioSpec(**self.FIELDS, crashes=twin)
        assert other == plain and hash(other) == hash(plain)
        assert fingerprint_spec(other) == fingerprint_spec(plain)
        assert other.derived_seed() == plain.derived_seed()
        assert run_scenario(other) == run_scenario(plain)

    def test_a_codec_round_trip_keeps_the_fingerprint(self):
        spec = ScenarioSpec(**self.FIELDS, crashes=((2.0, 0), (5, 0)))
        decoded = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert decoded == spec
        assert fingerprint_spec(decoded) == fingerprint_spec(spec)
        assert decoded.derived_seed() == spec.derived_seed()


_TEXT = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
_SCALAR = (st.none() | st.booleans() | st.integers() | _TEXT
           | st.floats(allow_nan=False))
_PARAM = st.recursive(
    _SCALAR,
    lambda inner: (st.tuples(inner, inner)
                   | st.lists(inner, max_size=3).map(tuple)
                   | st.frozensets(_SCALAR, max_size=3)),
    max_leaves=6,
)


@st.composite
def _specs(draw):
    """A random spec, its crash schedule given in one of several forms."""
    n = draw(st.integers(1, 24))
    pids = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
    pairs = [(pid, draw(st.integers(0, 50))) for pid in pids]
    form = draw(st.sampled_from(["sorted", "given", "list", "float", "bool"]))
    if form == "sorted":
        crashes = tuple(sorted(pairs))
    elif form == "given":
        crashes = tuple(pairs)
    elif form == "list":
        crashes = [list(pair) for pair in pairs]
    elif form == "float":
        crashes = tuple((float(pid), time) for pid, time in pairs)
    else:
        crashes = tuple((pid, bool(time) if time < 2 else time)
                        for pid, time in pairs)
    spec = ScenarioSpec(
        kind=draw(st.sampled_from(["theorem8-solvable", "corollary13-middle"])
                  | _TEXT),
        n=n,
        f=draw(st.integers(0, n - 1)),
        k=draw(st.integers(1, 25)),
        scheduler=draw(st.sampled_from(["round-robin", "random", "isolation"])
                       | _TEXT),
        seed=draw(st.integers(-2**70, 2**70)),
        crashes=crashes,
        max_steps=draw(st.integers(1, 10**7)),
        params=tuple(draw(st.dictionaries(_TEXT, _PARAM, max_size=3)).items()),
        recording=draw(st.sampled_from(RECORDING_POLICY_NAMES)),
    )
    return spec, tuple(sorted(pairs))


class TestIdentityText:
    """The one identity text is the ``repr`` of the tuples it replaced."""

    @given(_specs())
    def test_digest_and_seed_hash_the_identity_tuples(self, drawn):
        spec, pairs = drawn
        assert spec.crashes == pairs
        identity = spec.identity()
        key = repr((SCHEMA_VERSION, identity)).encode()
        assert fingerprint_spec(spec) == hashlib.sha256(key).hexdigest()
        # The seed tuple is the identity without max_steps and recording.
        seed_text = repr(identity[:7] + identity[8:9]).encode()
        assert spec.derived_seed() == int.from_bytes(
            hashlib.sha256(seed_text).digest()[:8], "big")
        fresh = ScenarioSpec(**{**spec_to_dict(spec), "crashes": pairs,
                                "params": spec.params})
        assert fresh == spec
        assert fingerprint_spec(fresh) == fingerprint_spec(spec)
        assert fresh.derived_seed() == spec.derived_seed()
