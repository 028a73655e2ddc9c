"""Compact chunk shipping: the campaign dispatch wire format.

Under the process backend every task used to cross the pool pipe as a
pickled tuple of full :class:`~repro.campaign.spec.ScenarioSpec`
objects.  The specs of one chunk are near-identical — a grid
varies one or two axes at a time — so almost every byte shipped was a
repeat of the previous spec.  This module replaces that with a
*self-contained* compact descriptor: one template (the field values of
the chunk's first spec) plus, per spec, only the ``(field, value)``
pairs that differ from it.  Workers re-expand the descriptor into real
specs through a memoised decode, so a retried or bisected task re-ships
only its (re-encoded) slice and the expansion cost is paid once per
distinct descriptor per worker.

The contract is **round-trip equality**, pinned by
``tests/campaign/test_wire.py``: ``decode_chunk(encode_chunk(specs)) ==
tuple(specs)`` for *any* spec sequence — mixed kinds, crash schedules,
params, every recording policy.  Decoded specs re-run
:meth:`ScenarioSpec.__post_init__` validation and recompute their
derived seeds and fingerprints from identical field values, so outcomes
cannot depend on whether a spec travelled whole or compact.  This is
also the wire format a future distributed shard coordinator ships over
the network (ROADMAP open item 2): a shard is exactly a descriptor.

Nothing here imports the runner or the store — the codec sits below
both, like :mod:`repro.campaign.spec` itself.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, fields as dataclass_fields
from functools import lru_cache
from typing import Any, Sequence, Tuple, Union

from repro.campaign.spec import ScenarioSpec

__all__ = [
    "WIRE_FORMAT",
    "WireChunk",
    "encode_chunk",
    "decode_chunk",
    "ensure_specs",
    "wire_bytes",
    "raw_bytes",
]

#: Format tag carried by every descriptor.  Bump on any change to the
#: encoding so a mixed-version pool fails loudly instead of mis-expanding.
WIRE_FORMAT = 1

#: The spec fields, in declaration order — the delta indices below index
#: into this tuple.  Derived from the dataclass so the codec can never
#: silently fall out of sync with :class:`ScenarioSpec`.
SPEC_FIELDS: Tuple[str, ...] = tuple(
    f.name for f in dataclass_fields(ScenarioSpec)
)


@dataclass(frozen=True)
class WireChunk:
    """One chunk of scenario specs in compact template+delta form.

    ``template`` holds the field values of the first spec (in
    :data:`SPEC_FIELDS` order); ``deltas`` holds, per spec, the sorted
    ``(field_index, value)`` pairs where that spec differs from the
    template.  The first spec's delta is therefore always empty.  The
    descriptor is hashable (specs are built from hashable data), which
    is what lets worker-side decoding memoise on the descriptor itself.
    """

    template: Tuple[Any, ...]
    deltas: Tuple[Tuple[Tuple[int, Any], ...], ...]
    format: int = WIRE_FORMAT

    def __len__(self) -> int:
        return len(self.deltas)


def encode_chunk(specs: Sequence[ScenarioSpec]) -> WireChunk:
    """Encode a spec sequence as a compact self-contained descriptor."""
    spec_tuple = tuple(specs)
    if not spec_tuple:
        return WireChunk(template=(), deltas=())
    template = tuple(getattr(spec_tuple[0], name) for name in SPEC_FIELDS)
    deltas = tuple(
        tuple(
            (index, value)
            for index, name in enumerate(SPEC_FIELDS)
            if (value := getattr(spec, name)) != template[index]
        )
        for spec in spec_tuple
    )
    return WireChunk(template=template, deltas=deltas)


@lru_cache(maxsize=512)
def decode_chunk(chunk: WireChunk) -> Tuple[ScenarioSpec, ...]:
    """Expand a descriptor back into specs (memoised per descriptor).

    The cache makes a retried task's re-expansion free and keeps one
    worker from re-validating the same descriptor twice.  Raises
    :class:`ValueError` on a format tag this build does not speak.
    """
    if chunk.format != WIRE_FORMAT:
        raise ValueError(
            f"wire descriptor has format {chunk.format!r}; this build speaks "
            f"format {WIRE_FORMAT}"
        )
    if not chunk.deltas:
        return ()
    specs = []
    for delta in chunk.deltas:
        values = list(chunk.template)
        for index, value in delta:
            values[index] = value
        specs.append(ScenarioSpec(**dict(zip(SPEC_FIELDS, values))))
    return tuple(specs)


def ensure_specs(
    specs: Union[WireChunk, Sequence[ScenarioSpec]],
) -> Sequence[ScenarioSpec]:
    """Decode a descriptor; pass plain spec sequences through untouched.

    This is the single entry point the worker task functions call, so
    they accept either form — the in-process backends hand them real
    specs, the pool path ships descriptors.
    """
    if isinstance(specs, WireChunk):
        return decode_chunk(specs)
    return specs


def wire_bytes(chunk: WireChunk) -> int:
    """Bytes the descriptor occupies on the pool pipe."""
    return len(pickle.dumps(chunk, protocol=pickle.HIGHEST_PROTOCOL))


def raw_bytes(specs: Sequence[ScenarioSpec]) -> int:
    """Bytes the same specs would have cost shipped whole (the old way)."""
    return len(pickle.dumps(tuple(specs), protocol=pickle.HIGHEST_PROTOCOL))
