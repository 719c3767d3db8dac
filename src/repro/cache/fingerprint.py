"""Code-version fingerprint: the "code" half of every cache key.

A cached :class:`~repro.experiments.pipeline.ExperimentOutcome` is only
reusable while the code that produced it would still produce the same
bytes.  Rather than trusting a hand-bumped version string (easy to forget,
wrong for dirty checkouts), the fingerprint is a SHA-256 digest over the
*source text* of every ``repro`` module plus the declared
``repro.__version__``: editing any shipped ``.py`` file — a bug fix in the
simulator, a new seed derivation, a changed table format — changes the
fingerprint, which changes every cache key, which turns the whole cache
into a cold cache.  Stale entries are never served; they are only evicted
lazily (see :meth:`~repro.cache.store.ResultCache.evict_stale`).

NumPy's release is part of that code too: every variate comes from its
``Generator`` methods, and NumPy's random-number policy (NEP 19) fixes the
bit generators' raw streams across releases but not the distribution
algorithms.  The digest therefore also covers the bytes of the installed
``numpy/version.py``, read without importing NumPy, so a cache hit never
loads it.

The digest walks the package directory, not ``sys.modules``, so it is
stable across processes and import orders — the property the cache's
"key stability across processes" tests pin.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
from typing import Optional

from .._version import __version__

__all__ = ["code_fingerprint"]

_cached_fingerprint: Optional[str] = None


def _package_root() -> str:
    """Directory of the installed ``repro`` package (this file's grandparent)."""
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _numpy_version_source() -> bytes:
    """The installed ``numpy/version.py``, found without importing NumPy.

    A fixed marker stands in when NumPy is not installed: the light verbs
    run without it.
    """
    spec = importlib.util.find_spec("numpy")
    if spec is None or spec.origin is None:
        return b"numpy absent"
    with open(os.path.join(os.path.dirname(spec.origin), "version.py"), "rb") as handle:
        return handle.read()


def code_fingerprint(refresh: bool = False) -> str:
    """Hex SHA-256 digest of the ``repro`` package's source and version.

    The digest covers every ``*.py`` file under the package root, keyed by
    its package-relative path (so renames count as changes), plus
    ``repro.__version__`` and NumPy's ``version.py``.  The result is
    memoised per process; pass ``refresh=True`` to re-walk the tree (only
    tests that rewrite installed sources need this).
    """
    global _cached_fingerprint
    if _cached_fingerprint is not None and not refresh:
        return _cached_fingerprint
    root = _package_root()
    digest = hashlib.sha256()
    digest.update(f"repro=={__version__}\n".encode("utf-8"))
    digest.update(_numpy_version_source())
    digest.update(b"\x00")
    sources = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for filename in filenames:
            if filename.endswith(".py"):
                path = os.path.join(dirpath, filename)
                sources.append((os.path.relpath(path, root), path))
    for relpath, path in sorted(sources):
        digest.update(relpath.replace(os.sep, "/").encode("utf-8"))
        digest.update(b"\x00")
        with open(path, "rb") as handle:
            digest.update(handle.read())
        digest.update(b"\x00")
    _cached_fingerprint = digest.hexdigest()
    return _cached_fingerprint
