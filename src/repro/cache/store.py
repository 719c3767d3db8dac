"""Content-addressed, persistent store of experiment results.

:class:`ResultCache` memoises whole campaigns: the cache key is the SHA-256
of the canonical JSON of an :class:`~repro.experiments.pipeline.ExperimentSpec`
combined with the :func:`~repro.cache.fingerprint.code_fingerprint` of the
installed ``repro`` sources, so two processes — today or next month — that
ask for the same spec against the same code share one computation.  Layout
on disk::

    <root>/
      index.sqlite          -- entry metadata + hit/miss counters
      objects/<k0k1>/<key>.json  -- one bit-exact payload per entry

The SQLite file is only an *index* (spec provenance, sizes, hit counts);
the payloads themselves are plain JSON files written atomically (temp file
+ ``os.replace``), so a crashed writer never leaves a half-entry that a
reader could trust.  A payload that fails to load or rehydrate — truncated
file, schema drift, hand-edited JSON — is dropped and counted, and the
lookup reports a miss: corruption costs a recomputation, never a wrong
result.

Keys are *only* assigned to plans that are a pure function of their spec
(see :meth:`ResultCache.key_for_plan`): a plan built against non-default
:class:`~repro.experiments.scenarios.PaperParameters` is silently
uncacheable, because its spec under-describes it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from contextlib import closing
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from ..errors import ReproError
from .fingerprint import code_fingerprint
from .serialize import (
    CachePayloadError,
    outcome_from_payload,
    outcome_to_payload,
)

__all__ = [
    "CacheError",
    "CacheEntry",
    "CacheStats",
    "ResultCache",
    "coerce_cache",
    "spec_cache_key",
]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    key TEXT PRIMARY KEY,
    scenario TEXT NOT NULL,
    mode TEXT NOT NULL,
    spec_json TEXT NOT NULL,
    code_fingerprint TEXT NOT NULL,
    created_at REAL NOT NULL,
    last_hit_at REAL,
    hits INTEGER NOT NULL DEFAULT 0,
    size_bytes INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS counters (
    name TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""

_COUNTERS = ("hits", "misses", "puts", "evictions", "corrupt_dropped")


class CacheError(ReproError, RuntimeError):
    """The result-cache store itself is unusable (e.g. unwritable directory)."""


def spec_cache_key(spec_json: Dict[str, Any], fingerprint: str) -> str:
    """The content-addressed key of one (spec, code-version) pair.

    ``spec_json`` is the plain-JSON form of a spec
    (:meth:`~repro.experiments.pipeline.ExperimentSpec.to_json`); canonical
    serialisation (sorted keys, no whitespace) makes the key independent of
    field order, process, and platform.
    """
    canonical = json.dumps(
        {"code": fingerprint, "spec": spec_json},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CacheEntry:
    """Index metadata of one cached campaign."""

    key: str
    scenario: str
    mode: str
    spec: Dict[str, Any]
    code_fingerprint: str
    created_at: float
    last_hit_at: Optional[float]
    hits: int
    size_bytes: int

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe row (for ``repro cache list`` and the service API)."""
        return {
            "key": self.key,
            "scenario": self.scenario,
            "mode": self.mode,
            "spec": self.spec,
            "code_fingerprint": self.code_fingerprint,
            "created_at": self.created_at,
            "last_hit_at": self.last_hit_at,
            "hits": self.hits,
            "size_bytes": self.size_bytes,
        }


@dataclass(frozen=True)
class CacheStats:
    """Aggregate store statistics (entry counts plus lifetime counters)."""

    entries: int
    payload_bytes: int
    stale_entries: int
    hits: int
    misses: int
    puts: int
    evictions: int
    corrupt_dropped: int

    def as_dict(self) -> Dict[str, int]:
        """Flat dictionary (for tables, JSON output and the service API)."""
        return {
            "entries": self.entries,
            "payload_bytes": self.payload_bytes,
            "stale_entries": self.stale_entries,
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "corrupt_dropped": self.corrupt_dropped,
        }


class ResultCache:
    """Content-addressed result store under one directory.

    Parameters
    ----------
    root:
        Cache directory (created if missing) holding ``index.sqlite`` and
        the ``objects/`` payload tree.
    fingerprint:
        Code-version fingerprint folded into every key.  Defaults to
        :func:`~repro.cache.fingerprint.code_fingerprint`; tests pass
        explicit values to exercise code-version invalidation without
        rewriting installed sources.

    The store is safe for concurrent use from several threads and
    processes: SQLite serialises index updates (30 s busy timeout) and
    payload files are written atomically.
    """

    def __init__(
        self, root: Union[str, "os.PathLike"], fingerprint: Optional[str] = None
    ) -> None:
        self.root = os.path.abspath(os.fspath(root))
        self.fingerprint = fingerprint if fingerprint is not None else code_fingerprint()
        self._objects = os.path.join(self.root, "objects")
        try:
            os.makedirs(self._objects, exist_ok=True)
            with closing(self._connect()) as conn, conn:
                conn.executescript(_SCHEMA)
                conn.executemany(
                    "INSERT OR IGNORE INTO counters (name, value) VALUES (?, 0)",
                    [(name,) for name in _COUNTERS],
                )
        except (OSError, sqlite3.Error) as exc:
            raise CacheError(f"cannot open result cache at {self.root!r}: {exc}") from exc

    # -- low-level plumbing ------------------------------------------------

    def _connect(self) -> sqlite3.Connection:
        return sqlite3.connect(os.path.join(self.root, "index.sqlite"), timeout=30.0)

    def _payload_path(self, key: str) -> str:
        return os.path.join(self._objects, key[:2], f"{key}.json")

    def _bump(self, conn: sqlite3.Connection, counter: str, by: int = 1) -> None:
        conn.execute("UPDATE counters SET value = value + ? WHERE name = ?", (by, counter))

    def _drop_entry(self, key: str, counter: str) -> bool:
        """Remove one entry (index row + payload file); count it as ``counter``."""
        with closing(self._connect()) as conn, conn:
            removed = conn.execute("DELETE FROM entries WHERE key = ?", (key,)).rowcount
            if removed:
                self._bump(conn, counter)
        try:
            os.remove(self._payload_path(key))
            return True
        except FileNotFoundError:
            return bool(removed)

    def _drop_corrupt(self, key: str) -> None:
        """Drop an entry whose payload cannot be served, and count a miss."""
        self._drop_entry(key, "corrupt_dropped")
        with closing(self._connect()) as conn, conn:
            self._bump(conn, "misses")

    # -- keys --------------------------------------------------------------

    def key_for_spec(self, spec) -> str:
        """The cache key of ``spec`` under this store's code fingerprint."""
        return spec_cache_key(spec.to_json(), self.fingerprint)

    def key_for_plan(self, plan) -> Optional[str]:
        """The cache key of ``plan``, or ``None`` when it is uncacheable.

        A plan is cacheable only when rebuilding it from its spec alone
        (default paper parameters plus the spec's own switch overrides)
        reproduces the parameters it actually ran with — otherwise the spec
        under-describes the campaign and a key derived from it would
        collide with genuinely different results.
        """
        from ..experiments.pipeline import _apply_switch_overrides
        from ..experiments.scenarios import PAPER_PARAMETERS

        if plan.parameters != _apply_switch_overrides(plan.spec, PAPER_PARAMETERS):
            return None
        return self.key_for_spec(plan.spec)

    # -- the runner-facing API ---------------------------------------------

    def get_outcome(self, plan):
        """The cached :class:`ExperimentOutcome` for ``plan``, or ``None``.

        A hit rehydrates the stored passes against ``plan`` (bit-exact, so
        every downstream table/CSV byte matches the run that filled the
        entry) and bumps the entry's hit count.  A corrupt or
        schema-incompatible payload is dropped and reported as a miss.
        """
        key = self.key_for_plan(plan)
        if key is None:
            return None
        payload = self._load_payload(key)
        if payload is None:
            return None
        try:
            outcome = outcome_from_payload(payload.get("outcome"), plan)
        except CachePayloadError:
            self._drop_corrupt(key)
            return None
        with closing(self._connect()) as conn, conn:
            self._bump(conn, "hits")
            conn.execute(
                "UPDATE entries SET hits = hits + 1, last_hit_at = ? WHERE key = ?",
                (time.time(), key),
            )
        return outcome

    def put_outcome(self, plan, outcome) -> Optional[str]:
        """Store ``outcome`` under ``plan``'s key; returns the key (or ``None``).

        Uncacheable plans (see :meth:`key_for_plan`) are ignored.  Writing
        is last-writer-wins and atomic; concurrent writers of the same key
        store bit-identical payloads anyway.
        """
        key = self.key_for_plan(plan)
        if key is None:
            return None
        spec_json = plan.spec.to_json()
        envelope = {
            "key": key,
            "code_fingerprint": self.fingerprint,
            "spec": spec_json,
            "outcome": outcome_to_payload(outcome),
        }
        text = json.dumps(envelope, sort_keys=True, separators=(",", ":"))
        path = self._payload_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except OSError as exc:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise CacheError(f"cannot write cache payload {path!r}: {exc}") from exc
        with closing(self._connect()) as conn, conn:
            conn.execute(
                "INSERT OR REPLACE INTO entries "
                "(key, scenario, mode, spec_json, code_fingerprint, created_at, "
                " last_hit_at, hits, size_bytes) "
                "VALUES (?, ?, ?, ?, ?, ?, NULL, 0, ?)",
                (
                    key,
                    str(spec_json.get("scenario", "")),
                    str(spec_json.get("mode", "both")),
                    json.dumps(spec_json, sort_keys=True),
                    self.fingerprint,
                    time.time(),
                    len(text.encode("utf-8")),
                ),
            )
            self._bump(conn, "puts")
        return key

    def _load_payload(self, key: str) -> Optional[Dict[str, Any]]:
        """Read one payload envelope; drop the entry and miss on any damage.

        The payload file is read first, so a hit opens the index only to
        count itself.  A missing file opens it to tell a plain miss (no row
        either) from an entry whose payload is gone.
        """
        path = self._payload_path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            if not isinstance(payload, dict) or payload.get("key") != key:
                raise CachePayloadError(f"payload {path!r} does not describe key {key}")
        except FileNotFoundError:
            # A plain miss, unless the index lists the key.  Writers store
            # the file before the row, so a listed key whose file is still
            # missing is an entry that lost its payload, not a write in
            # flight.
            with closing(self._connect()) as conn:
                row = conn.execute("SELECT key FROM entries WHERE key = ?", (key,)).fetchone()
            if row is not None and not os.path.exists(path):
                self._drop_corrupt(key)
            else:
                with closing(self._connect()) as conn, conn:
                    self._bump(conn, "misses")
            return None
        except (OSError, ValueError):
            # A payload that cannot be read back (truncated write,
            # hand-edited file): the caller recomputes.
            self._drop_corrupt(key)
            return None
        return payload

    # -- inspection and maintenance ----------------------------------------

    def get_entry(self, key: str) -> Optional[CacheEntry]:
        """Index metadata of one entry, or ``None``."""
        with closing(self._connect()) as conn:
            row = conn.execute(
                "SELECT key, scenario, mode, spec_json, code_fingerprint, "
                "created_at, last_hit_at, hits, size_bytes FROM entries WHERE key = ?",
                (key,),
            ).fetchone()
        return None if row is None else self._entry_from_row(row)

    def entries(self) -> List[CacheEntry]:
        """All entries, most recently created first."""
        with closing(self._connect()) as conn:
            rows = conn.execute(
                "SELECT key, scenario, mode, spec_json, code_fingerprint, "
                "created_at, last_hit_at, hits, size_bytes FROM entries "
                "ORDER BY created_at DESC, key"
            ).fetchall()
        return [self._entry_from_row(row) for row in rows]

    @staticmethod
    def _entry_from_row(row) -> CacheEntry:
        try:
            spec_json = json.loads(row[3])
        except ValueError:
            spec_json = {}
        return CacheEntry(
            key=row[0],
            scenario=row[1],
            mode=row[2],
            spec=spec_json if isinstance(spec_json, dict) else {},
            code_fingerprint=row[4],
            created_at=row[5],
            last_hit_at=row[6],
            hits=row[7],
            size_bytes=row[8],
        )

    def evict(self, key: str) -> bool:
        """Remove one entry; returns whether anything was removed."""
        return self._drop_entry(key, "evictions")

    def evict_stale(self) -> int:
        """Remove every entry written by a different code fingerprint.

        Stale entries can never be served again (their keys embed the old
        fingerprint), so this only reclaims disk space.
        """
        with closing(self._connect()) as conn:
            keys = [
                row[0]
                for row in conn.execute(
                    "SELECT key FROM entries WHERE code_fingerprint != ?",
                    (self.fingerprint,),
                )
            ]
        removed = 0
        for key in keys:
            removed += bool(self._drop_entry(key, "evictions"))
        return removed

    def clear(self) -> int:
        """Remove every entry; returns how many were removed."""
        removed = 0
        for entry in self.entries():
            removed += bool(self._drop_entry(entry.key, "evictions"))
        return removed

    def stats(self) -> CacheStats:
        """Aggregate statistics (entry counts plus lifetime counters)."""
        with closing(self._connect()) as conn:
            entry_count, payload_bytes = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(size_bytes), 0) FROM entries"
            ).fetchone()
            stale = conn.execute(
                "SELECT COUNT(*) FROM entries WHERE code_fingerprint != ?",
                (self.fingerprint,),
            ).fetchone()[0]
            counters = dict(conn.execute("SELECT name, value FROM counters"))
        return CacheStats(
            entries=int(entry_count),
            payload_bytes=int(payload_bytes),
            stale_entries=int(stale),
            hits=int(counters.get("hits", 0)),
            misses=int(counters.get("misses", 0)),
            puts=int(counters.get("puts", 0)),
            evictions=int(counters.get("evictions", 0)),
            corrupt_dropped=int(counters.get("corrupt_dropped", 0)),
        )

    def __repr__(self) -> str:
        return f"<ResultCache root={self.root!r}>"


def coerce_cache(
    cache: Optional[Union[str, "os.PathLike", ResultCache]],
) -> Optional[ResultCache]:
    """Accept a ready cache, a directory path to open one, or ``None``."""
    if cache is None or isinstance(cache, ResultCache):
        return cache
    return ResultCache(cache)
