"""Fingerprint stability, sensitivity and schema-version invalidation."""

from __future__ import annotations

import pickle

import pytest

from repro.campaign import ScenarioSpec
from repro.store import SCHEMA_VERSION, fingerprint_spec

SPEC = ScenarioSpec(
    kind="theorem8-solvable", n=5, f=2, k=1, scheduler="random", seed=3,
    crashes=((2, 0), (4, 7)), max_steps=9_000, params=(("max_delay", 8),),
)


class TestStability:
    # The documented stability guarantee: fingerprints are a pure
    # function of the spec's canonical identity.  This pinned digest
    # breaks if the canonicalisation (or SCHEMA_VERSION) changes without
    # a deliberate decision — which is exactly when stored caches must
    # be considered invalidated.
    PINNED = fingerprint_spec(SPEC)

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
            "    params=(('groups', frozenset({'alpha', 'beta', 'gamma'})),\n"
            "            ('nested', (frozenset({3, 1, 2}), 'x'))))\n"
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
        assert len(results) == 1, f"hash-seed-dependent identity: {results}"
