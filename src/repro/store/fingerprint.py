"""Content-addressed scenario identity.

:func:`fingerprint_spec` returns the stable sha256 digest of a
scenario's full canonical identity
(:meth:`repro.campaign.spec.ScenarioSpec.identity`): the sha256 of
:meth:`~repro.campaign.spec.ScenarioSpec.identity_text`, byte for byte
``repr((SCHEMA_VERSION, spec.identity()))``.  The same helper builds
the text :meth:`~repro.campaign.spec.ScenarioSpec.derived_seed` hashes,
and takes each crash schedule's ``repr`` from a bounded memo, so the
texts of a grid repr each of its few distinct schedules once.  That
digest string is the key under which the persistent store files
outcomes, which gives the cache its correctness argument for free:

* **Stability.**  The identity tuple contains only canonicalised plain
  data (crash pairs the spec's constructor sorts into plain ``int``
  pairs, sorted params), so the fingerprint does not depend on
  process, platform, ``PYTHONHASHSEED``, execution order or how the
  spec was constructed: specs that compare equal fingerprint equal.
* **Completeness.**  Everything that can change an outcome is in the
  tuple — including ``max_steps``, which :meth:`derived_seed` leaves out
  (a bigger budget extends a schedule; it must not be served a
  truncated cached outcome).
* **Invalidation.**  :data:`SCHEMA_VERSION` participates in the hash.
  Any change to the spec schema or its canonicalisation must bump it,
  which re-keys every scenario: an old store then yields cache misses
  (recompute and re-store) instead of stale hits.
"""

from __future__ import annotations

import hashlib

from repro.campaign.spec import ScenarioSpec

__all__ = ["SCHEMA_VERSION", "fingerprint_spec"]

#: Bump on any change to ``ScenarioSpec``'s fields, their meaning, or the
#: canonicalisation behind :meth:`ScenarioSpec.identity` — stored results
#: keyed under the old version then become unreachable instead of wrong.
#: Version history: 2 — ``ScenarioSpec.recording`` joined the identity;
#: 3 — outcomes gained the ``messages_sent``/``messages_delivered``
#: counters (stored rows written before them must not be served as
#: complete outcomes with zeroed cost); 4 — store rows hold the outcome
#: as a spec-free array (:func:`repro.campaign.codec.outcome_to_row`)
#: next to a separate spec field, so version-3 rows are dead rows that
#: every read skips and compaction drops.
SCHEMA_VERSION = 4


def fingerprint_spec(spec: ScenarioSpec) -> str:
    """The fingerprint digest of a spec, as a plain string key.

    The sha256 is computed **once per spec instance** and memoised on
    the spec (a non-field attribute, excluded from pickling by
    ``ScenarioSpec.__getstate__``): the caching runner's skip pass, the
    store puts, the journal records and the runner's settle-time event
    builder all ask for the same digest, and hashing the canonical ``repr`` is
    the single most repeated piece of work in a warm campaign.  The
    memo key is the instance, not the identity — equal specs decoded in
    different processes each hash once, which is exactly the "no spec
    is hashed twice in one campaign" contract.
    """
    attrs = spec.__dict__
    cached = attrs.get("_fingerprint")
    if cached is not None:
        return cached
    text = spec.identity_text(SCHEMA_VERSION)
    digest = attrs["_fingerprint"] = hashlib.sha256(text.encode()).hexdigest()
    return digest
