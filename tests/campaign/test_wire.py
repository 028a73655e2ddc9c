"""Wire codec: round-trip equality, memoised decode, byte reduction."""

from __future__ import annotations

import pickle

import pytest

from repro.campaign import (
    CampaignRunner,
    ScenarioSpec,
    theorem8_specs,
)
from repro.campaign.wire import (
    SPEC_FIELDS,
    WIRE_FORMAT,
    WireChunk,
    decode_chunk,
    encode_chunk,
    ensure_specs,
    raw_bytes,
    wire_bytes,
)


def mixed_specs():
    """A deliberately heterogeneous spec set: every recording policy,
    crash schedules, params, several kinds."""
    specs = list(theorem8_specs([4, 5], seeds=(1, 2), max_steps=4_000))[:12]
    specs += [
        ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                     recording="full"),
        ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                     recording="decisions-only"),
        ScenarioSpec(kind="theorem8-solvable", n=4, f=1, k=1,
                     recording="verdict-only"),
        ScenarioSpec(kind="theorem8-solvable", n=5, f=2, k=2,
                     scheduler="random", seed=77,
                     crashes=((1, 0), (3, 5)), max_steps=2_000,
                     params=(("alpha", 3), ("beta", (1, 2))),
                     recording="verdict-only"),
        ScenarioSpec(kind="corollary13-middle", n=6, f=3, k=2, seed=5,
                     recording="verdict-only"),
    ]
    return tuple(specs)


class TestRoundTrip:
    def test_mixed_grid_round_trips_exactly(self):
        specs = mixed_specs()
        assert decode_chunk(encode_chunk(specs)) == specs

    def test_single_spec_and_empty(self):
        spec = mixed_specs()[0]
        assert decode_chunk(encode_chunk([spec])) == (spec,)
        assert decode_chunk(encode_chunk([])) == ()

    def test_decoded_specs_share_fingerprint_and_seed(self):
        from repro.store.fingerprint import fingerprint_spec

        specs = mixed_specs()
        decoded = decode_chunk(encode_chunk(specs))
        for original, clone in zip(specs, decoded):
            assert clone.derived_seed() == original.derived_seed()
            assert fingerprint_spec(clone) == fingerprint_spec(original)

    def test_first_spec_delta_is_empty(self):
        chunk = encode_chunk(mixed_specs())
        assert chunk.deltas[0] == ()
        assert len(chunk) == len(mixed_specs())

    def test_template_covers_every_field(self):
        chunk = encode_chunk(mixed_specs())
        assert len(chunk.template) == len(SPEC_FIELDS)

    def test_ensure_specs_passes_sequences_through(self):
        specs = mixed_specs()
        assert ensure_specs(specs) is specs
        assert tuple(ensure_specs(encode_chunk(specs))) == specs

    def test_unknown_format_raises(self):
        chunk = encode_chunk(mixed_specs()[:2])
        alien = WireChunk(template=chunk.template, deltas=chunk.deltas,
                          format=WIRE_FORMAT + 1)
        with pytest.raises(ValueError, match="format"):
            decode_chunk(alien)

    def test_descriptor_survives_pickling(self):
        specs = mixed_specs()
        chunk = pickle.loads(pickle.dumps(encode_chunk(specs), -1))
        assert decode_chunk(chunk) == specs


class TestMemoisedDecode:
    def test_equal_descriptors_decode_once(self):
        specs = mixed_specs()
        first = decode_chunk(encode_chunk(specs))
        again = decode_chunk(encode_chunk(specs))
        # lru_cache returns the very same tuple for an equal descriptor —
        # a retried or re-shipped task costs no re-expansion.
        assert again is first


class TestByteReduction:
    def test_homogeneous_chunk_shrinks_at_least_3x(self):
        # A 32-spec seed sweep at one parameter point — the shape a
        # kernel wave ships.  The E15 benchmark gates the same floor.
        specs = [
            ScenarioSpec(kind="theorem8-solvable", n=32, f=16, k=2,
                         scheduler="random", seed=seed, max_steps=20_000,
                         recording="verdict-only")
            for seed in range(32)
        ]
        chunk = encode_chunk(specs)
        assert raw_bytes(specs) / wire_bytes(chunk) >= 3.0

    def test_mixed_chunk_never_larger_than_raw_plus_overhead(self):
        specs = mixed_specs()
        # Worst case is bounded: deltas repeat at most what raw shipping
        # repeats, plus the small per-chunk template/format framing.
        assert wire_bytes(encode_chunk(specs)) <= raw_bytes(specs) + 512


class TestWireShippedCampaigns:
    def test_process_equals_serial_and_ships_compact(self):
        specs = theorem8_specs([4], seeds=(1,), max_steps=4_000)
        serial = CampaignRunner(backend="serial").run(specs)
        proc = CampaignRunner(backend="process", workers=2, chunk_size=5).run(specs)
        assert proc == serial
        dispatch = proc.dispatch_stats
        assert dispatch.tasks_shipped > 0
        assert dispatch.scenarios_shipped == len(specs)
        assert 0 < dispatch.wire_bytes < raw_bytes(specs)
        # The in-process reference run ships nothing.
        assert not serial.dispatch_stats.any()

    def test_dispatch_stats_survive_json_round_trip(self):
        specs = theorem8_specs([4], seeds=(1,), max_steps=4_000)
        proc = CampaignRunner(backend="process", workers=2).run(specs)
        restored = type(proc).from_json(proc.to_json())
        assert restored == proc
        assert restored.dispatch_stats.as_dict() == proc.dispatch_stats.as_dict()
