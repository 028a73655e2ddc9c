"""Stable JSON codecs for campaign data.

The persistent result store (:mod:`repro.store`) and
:meth:`~repro.campaign.runner.CampaignResult.to_json` both need to move
:class:`~repro.campaign.spec.ScenarioSpec` and
:class:`~repro.campaign.spec.ScenarioOutcome` values through JSON without
losing the exact identity a campaign relies on: a decoded spec must
compare equal to the original (same ``derived_seed``, same store
fingerprint), and a decoded outcome must compare equal to a freshly
executed one — that equality is what lets a resumed campaign produce a
``CampaignResult`` identical to an uninterrupted run.

Two outcome codecs exist.  :func:`outcome_to_dict` embeds the spec and
names every field; ``CampaignResult.to_json`` uses it.  The result
stores use :func:`outcome_to_row`, a spec-free array in the fixed order
of :data:`OUTCOME_ROW_FIELDS`, and keep the spec in a field of its own:
a caller that looks an outcome up by its spec already holds that spec,
so :func:`outcome_from_row` attaches it instead of decoding a copy.

JSON has no tuples or frozensets, so ``params`` values (arbitrary
hashable scalars in practice) are encoded with explicit markers instead
of being silently turned into lists.  Unsupported value types raise
:class:`~repro.exceptions.ConfigurationError` at encode time — a loud
failure when persisting, never a quiet identity change when loading.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List, Mapping

from repro.exceptions import ConfigurationError
from repro.campaign.spec import ScenarioOutcome, ScenarioSpec

__all__ = [
    "encode_value",
    "decode_value",
    "spec_to_dict",
    "spec_from_dict",
    "outcome_to_dict",
    "outcome_from_dict",
    "OUTCOME_ROW_FIELDS",
    "outcome_to_row",
    "outcome_from_row",
]

_TUPLE_KEY = "__tuple__"
_FROZENSET_KEY = "__frozenset__"


def encode_value(value: Hashable) -> Any:
    """Encode one ``params`` value into JSON-safe form.

    Scalars (``None``, ``bool``, ``int``, ``float``, ``str``) pass
    through; tuples and frozensets become marked objects so that decoding
    restores the exact hashable value.  Frozenset elements are sorted by
    their encoded representation, making the encoding deterministic.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {_TUPLE_KEY: [encode_value(item) for item in value]}
    if isinstance(value, frozenset):
        encoded = [encode_value(item) for item in value]
        return {_FROZENSET_KEY: sorted(encoded, key=repr)}
    raise ConfigurationError(
        f"cannot persist a parameter value of type {type(value).__name__!r}: {value!r}; "
        "supported types are None, bool, int, float, str, tuple and frozenset"
    )


def decode_value(value: Any) -> Hashable:
    """Invert :func:`encode_value`."""
    if isinstance(value, dict):
        if set(value) == {_TUPLE_KEY}:
            # From a list, not a generator: see spec_from_dict.
            return tuple([decode_value(item) for item in value[_TUPLE_KEY]])
        if set(value) == {_FROZENSET_KEY}:
            return frozenset(decode_value(item) for item in value[_FROZENSET_KEY])
        raise ConfigurationError(f"unrecognised encoded value: {value!r}")
    if isinstance(value, list):
        raise ConfigurationError(
            f"bare list in encoded campaign data: {value!r}; "
            "tuples must be encoded with an explicit marker"
        )
    return value


def spec_to_dict(spec: ScenarioSpec) -> Dict[str, Any]:
    """Encode a spec as a JSON-safe mapping (inverse: :func:`spec_from_dict`)."""
    return {
        "kind": spec.kind,
        "n": spec.n,
        "f": spec.f,
        "k": spec.k,
        "scheduler": spec.scheduler,
        "seed": spec.seed,
        "crashes": [[pid, time] for pid, time in spec.crashes],
        "max_steps": spec.max_steps,
        "params": [[name, encode_value(value)] for name, value in spec.params],
        "recording": spec.recording,
    }


def spec_from_dict(data: Mapping[str, Any]) -> ScenarioSpec:
    """Decode a spec; the result compares equal to the encoded original.

    The spec's constructor turns the crash pairs back into its shared
    canonical tuple.  The other tuples are built from lists:
    ``tuple(generator)`` over-allocates and
    shrinks by ``realloc``, parking one block per decoded tuple in
    another size's free list until the lists' caps (2,000 tuples a size)
    are reached, so a pass that decodes many rows (a store open,
    compaction) would hold a fixed extra of up to a few megabytes
    beyond the rows it keeps.
    """
    return ScenarioSpec(
        kind=data["kind"],
        n=int(data["n"]),
        f=int(data["f"]),
        k=int(data["k"]),
        scheduler=data["scheduler"],
        seed=int(data["seed"]),
        crashes=data["crashes"],
        max_steps=int(data["max_steps"]),
        params=tuple([(str(name), decode_value(value))
                      for name, value in data["params"]]),
        recording=data.get("recording", "full"),
    )


def outcome_to_dict(outcome: ScenarioOutcome) -> Dict[str, Any]:
    """Encode an outcome, spec included, as a JSON-safe mapping."""
    return {
        "spec": spec_to_dict(outcome.spec),
        "verdict": outcome.verdict,
        "agreement_ok": outcome.agreement_ok,
        "validity_ok": outcome.validity_ok,
        "termination_ok": outcome.termination_ok,
        "distinct_decisions": outcome.distinct_decisions,
        "decided": outcome.decided,
        "steps": outcome.steps,
        "truncated": outcome.truncated,
        "violations": list(outcome.violations),
        "error": outcome.error,
        "messages_sent": outcome.messages_sent,
        "messages_delivered": outcome.messages_delivered,
    }


def outcome_from_dict(data: Mapping[str, Any]) -> ScenarioOutcome:
    """Decode an outcome; equal to a freshly executed one for the same spec."""
    return ScenarioOutcome(
        spec=spec_from_dict(data["spec"]),
        verdict=data["verdict"],
        agreement_ok=bool(data["agreement_ok"]),
        validity_ok=bool(data["validity_ok"]),
        termination_ok=bool(data["termination_ok"]),
        distinct_decisions=int(data["distinct_decisions"]),
        decided=int(data["decided"]),
        steps=int(data["steps"]),
        truncated=bool(data["truncated"]),
        violations=tuple(data["violations"]),
        error=data["error"],
        # Tolerant decode: archived payloads predate the message counters.
        messages_sent=int(data.get("messages_sent", 0)),
        messages_delivered=int(data.get("messages_delivered", 0)),
    )


#: The order of the fields in :func:`outcome_to_row`'s array.
OUTCOME_ROW_FIELDS = (
    "verdict", "agreement_ok", "validity_ok", "termination_ok",
    "distinct_decisions", "decided", "steps", "truncated", "violations",
    "error", "messages_sent", "messages_delivered",
)


def outcome_to_row(outcome: ScenarioOutcome) -> List[Any]:
    """Encode an outcome *without* its spec, in :data:`OUTCOME_ROW_FIELDS` order."""
    return [
        outcome.verdict,
        outcome.agreement_ok,
        outcome.validity_ok,
        outcome.termination_ok,
        outcome.distinct_decisions,
        outcome.decided,
        outcome.steps,
        outcome.truncated,
        list(outcome.violations),
        outcome.error,
        outcome.messages_sent,
        outcome.messages_delivered,
    ]


def outcome_from_row(spec: ScenarioSpec, row: Any) -> ScenarioOutcome:
    """Rebuild ``spec``'s outcome from an :func:`outcome_to_row` array.

    The row's values are taken as the encoder wrote them, with no type
    coercion: this is the hot read of a warm campaign.  Raises
    :class:`~repro.exceptions.ConfigurationError` on a row of the wrong
    shape: not a list of the twelve fields, or violations that are not
    a list.
    """
    if not isinstance(row, list) or len(row) != len(OUTCOME_ROW_FIELDS):
        raise ConfigurationError(
            f"an outcome row is a list of the {len(OUTCOME_ROW_FIELDS)} "
            f"fields {OUTCOME_ROW_FIELDS}, got {row!r}"
        )
    (verdict, agreement_ok, validity_ok, termination_ok, distinct_decisions,
     decided, steps, truncated, violations, error, messages_sent,
     messages_delivered) = row
    if not isinstance(violations, list):
        raise ConfigurationError(
            f"an outcome row's violations are a list, got {violations!r}")
    return ScenarioOutcome(
        spec, verdict, agreement_ok, validity_ok, termination_ok,
        distinct_decisions, decided, steps, truncated, tuple(violations),
        error, messages_sent, messages_delivered,
    )
