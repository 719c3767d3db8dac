"""Content-addressed result cache for experiment campaigns.

The cache memoises whole experiment campaigns by content address: the key
of an entry is the SHA-256 of the canonical JSON of its
:class:`~repro.experiments.pipeline.ExperimentSpec` combined with a
fingerprint of the installed ``repro`` sources
(:func:`~repro.cache.fingerprint.code_fingerprint`).  Identical spec +
identical code ⇒ identical key ⇒ the second run is a lookup, not a
computation — and because payloads store every float bit-exactly
(scalars as ``float.hex()``, float maps and grid columns as hex strings of
packed little-endian IEEE-754 doubles) and the plan is rebuilt from the
spec on the way back out, a hit renders byte-identical tables, CSV files
and figures to the miss that filled it.

Modules
-------
``fingerprint``
    The code-version fingerprint (SHA-256 over the package's source text).
``serialize``
    Loss-free hydration of :class:`ExperimentOutcome` payloads.
``store``
    :class:`ResultCache` — the on-disk store (SQLite index + JSON objects)
    with ``get``/``put``/``evict``/``stats``.

The CLI exposes the store via ``--cache DIR`` / ``--no-cache`` /
``REPRO_CACHE_DIR`` on ``repro run``/``figure``/``report`` and the
``repro cache`` verb; the :mod:`repro.service` HTTP API is built on top of
it.  See ``docs/cli.md`` and ``docs/service.md``.
"""

from .._lazy import lazy_exports

__all__ = [
    "CacheEntry",
    "CacheError",
    "CachePayloadError",
    "CacheStats",
    "ResultCache",
    "code_fingerprint",
    "coerce_cache",
    "outcome_from_payload",
    "outcome_to_payload",
    "spec_cache_key",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".fingerprint": ("code_fingerprint",),
    ".serialize": ("CachePayloadError", "outcome_from_payload", "outcome_to_payload"),
    ".store": (
        "CacheEntry", "CacheError", "CacheStats", "coerce_cache", "ResultCache", "spec_cache_key",
    ),
})
