"""Simulation-as-a-service: the long-lived ``repro serve`` HTTP server.

Where the CLI pays full process start-up (interpreter boot, numpy import,
worker-pool spawn) per campaign, this subpackage keeps everything warm in
one resident process: submit an
:class:`~repro.experiments.pipeline.ExperimentSpec` as JSON, poll the job,
fetch the result tables — and let the content-addressed
:mod:`repro.cache` answer repeated or overlapping campaigns without
simulating anything.

Modules
-------
``jobs``
    :class:`JobManager` — the queue/dispatcher: answers cache hits at
    submission, dedups active submissions by cache key, runs each missed
    campaign on a :class:`~repro.parallel.backends.PersistentPoolBackend`
    (worker processes survive across jobs), journals in-flight work
    through the sweep checkpoint so a crashed server resumes on
    resubmission, and stores every finished outcome in the cache.
``http``
    :class:`ReproService` — the stdlib ``ThreadingHTTPServer`` JSON API
    (``/v1/experiments``, ``/v1/jobs/...``, ``/v1/cache/...``).

Start one from the shell with ``repro serve --cache DIR``; the endpoint
reference with request/response examples lives in ``docs/service.md``.
"""

from .._lazy import lazy_exports

__all__ = ["Job", "JobManager", "ReproService"]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".http": ("ReproService",),
    ".jobs": ("Job", "JobManager"),
})
