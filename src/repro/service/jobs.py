"""Job lifecycle of the ``repro serve`` service.

A *job* is one submitted :class:`~repro.experiments.pipeline.ExperimentSpec`
making its way through ``queued → running → done`` (or ``failed``).  The
:class:`JobManager` owns the two pieces of state that make the service
cheap to hit twice:

* the **result cache** — every finished campaign is stored by content
  address, so resubmitting a spec (or submitting one ``repro run --cache``
  already computed) is served without simulating anything; and
* the **warm worker pool** — a
  :class:`~repro.parallel.backends.PersistentPoolBackend` whose worker
  processes survive across jobs, so only the first simulation request pays
  process spawn + interpreter boot.

Submission looks the spec up in the cache.  A hit is answered right
there: the returned job is already ``done``, so it never queues, never
waits behind a running job and is never shed.  A miss queues with the plan
submission built, and runs on a single dispatcher thread, one job at a
time, each fanned out across the pool's workers — submissions are accepted
concurrently and queue up.  An active (queued or running) job is
deduplicated by cache key: submitting the spec again returns the same job
id instead of queuing the work twice.

Crash tolerance reuses the sweep checkpoint journal: every running job
journals its completed simulations under the manager's state directory,
keyed by the job's cache key.  If the server dies mid-job, resubmitting
the same spec resumes from the journal — only the unfinished simulations
re-execute, bit-identically.  The journal is deleted once the result is
safely in the cache.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..cache.store import ResultCache
from ..errors import ServiceOverloadedError
from ..experiments.pipeline import (
    ExperimentRunner,
    ExperimentSpec,
    TableCollector,
    build_plan,
)
from ..parallel.backends import PersistentPoolBackend
from ..parallel.engine import SweepEngine, resolve_jobs

__all__ = ["Job", "JobManager"]

#: States a job moves through, in order (``failed`` replaces ``done``).
JOB_STATES = ("queued", "running", "done", "failed")


@dataclass
class Job:
    """One submitted experiment campaign and its observable progress."""

    id: str
    spec: ExperimentSpec
    cache_key: str
    state: str = "queued"
    error: Optional[str] = None
    #: True when the job was answered from the result cache (no execution).
    cached: bool = False
    done_tasks: int = 0
    total_tasks: int = 0
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: The collected table artefact (populated when ``state == "done"``).
    result: Optional[Any] = None
    #: Set once the job settles (done/failed) — what :meth:`JobManager.wait`
    #: blocks on instead of polling.
    settled: threading.Event = field(
        default_factory=threading.Event, repr=False, compare=False
    )
    #: The plan submission built, held only until the job settles.
    plan: Optional[Any] = field(default=None, repr=False, compare=False)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-safe status view (what ``GET /v1/jobs/<id>`` returns)."""
        return {
            "id": self.id,
            "state": self.state,
            "cache_key": self.cache_key,
            "cached": self.cached,
            "error": self.error,
            "progress": {"done": self.done_tasks, "total": self.total_tasks},
            "spec": self.spec.to_json(),
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }


class JobManager:
    """Run submitted specs through a warm pool, memoised by the cache.

    Parameters
    ----------
    cache:
        The :class:`~repro.cache.ResultCache` results are served from and
        stored into.
    jobs:
        Worker processes in the warm pool (``0`` = one per CPU core).
    state_dir:
        Directory for in-flight job journals (default:
        ``<cache root>/service``).
    backend:
        Override the execution backend (tests inject stubs here); by
        default a :class:`~repro.parallel.backends.PersistentPoolBackend`
        owned — and eventually closed — by the manager.
    max_queued:
        Load-shedding bound on jobs waiting to run: a submission that
        would push the queue past this raises
        :class:`~repro.errors.ServiceOverloadedError` (HTTP 503 with
        ``Retry-After``) instead of accepting unbounded work.  ``None``
        or ``0`` leaves the queue unbounded.
    """

    def __init__(
        self,
        cache: ResultCache,
        jobs: Optional[int] = 1,
        state_dir: Optional[str] = None,
        backend: Optional[Any] = None,
        max_queued: Optional[int] = None,
    ) -> None:
        self.cache = cache
        self.jobs = resolve_jobs(jobs)
        if max_queued is not None and max_queued < 0:
            raise ValueError(f"max_queued must be >= 0, got {max_queued!r}")
        self.max_queued = int(max_queued) if max_queued else 0
        self.state_dir = os.path.abspath(state_dir or os.path.join(cache.root, "service"))
        os.makedirs(self.state_dir, exist_ok=True)
        self._owns_backend = backend is None
        self.backend = backend if backend is not None else PersistentPoolBackend(self.jobs)
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._active_by_key: Dict[str, Job] = {}
        self._queue: List[Job] = []
        self._queued = threading.Condition(self._lock)
        self._closing = False
        self._job_counter = 0
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    # -- submission and lookup ---------------------------------------------

    def submit(self, spec: ExperimentSpec) -> Job:
        """Answer ``spec`` from the cache, or queue it (or join its active job).

        A cache hit returns a job that is already ``done``: it is never
        queued, never waits behind a running job and is never shed.  Raises
        :class:`~repro.errors.ReproError` subclasses for invalid specs — the
        HTTP layer maps those to 4xx responses.
        """
        # Building the plan up front validates the spec completely (unknown
        # scenario, inconsistent mode, bad axes) before anything is queued.
        plan = build_plan(spec)
        key = self.cache.key_for_plan(plan)
        assert key is not None  # service plans are pure functions of their spec
        with self._lock:
            active = self._active_job(key)
        if active is not None:
            return active
        job = Job(id="", spec=spec, cache_key=key, plan=plan)
        if plan.include_simulation:
            # Counted, not built: a hit never needs the simulation task list.
            job.total_tasks = len(plan.points) * spec.replications
        # The job's one cache lookup, outside the lock.  A hit (or a lookup
        # that raises) settles the job here, timed from submission; a miss
        # leaves it queued and not yet started.
        job.started_at = job.submitted_at
        if self._settle(job, lambda: self._cached_outcome(job)):
            with self._lock:
                self._register(job)
            return job
        job.started_at = None
        with self._lock:
            active = self._active_job(key)
            if active is not None:
                return active
            if self.max_queued and len(self._queue) >= self.max_queued:
                # Load shedding: refuse new work instead of queueing without
                # bound.  Deduplicated resubmissions (above) still join
                # their active job even when the queue is full.
                depth = len(self._queue)
                raise ServiceOverloadedError(
                    f"job queue is full ({depth} queued, limit {self.max_queued}); "
                    "retry later",
                    retry_after=min(60.0, 2.0 * depth),
                )
            self._register(job)
            self._active_by_key[key] = job
            self._queue.append(job)
            self._queued.notify_all()
        return job

    def _active_job(self, key: str) -> Optional[Job]:
        """The queued or running job for ``key`` (call with the lock held)."""
        if self._closing:
            raise RuntimeError("the job manager is shutting down")
        return self._active_by_key.get(key)

    def _register(self, job: Job) -> None:
        """Give ``job`` its id and list it (call with the lock held)."""
        self._job_counter += 1
        job.id = f"job-{self._job_counter:06d}"
        self._jobs[job.id] = job

    def _cached_outcome(self, job: Job) -> Optional[Any]:
        """``job``'s outcome from the cache, or ``None`` on a miss."""
        outcome = self.cache.get_outcome(job.plan)
        if outcome is not None:
            job.cached = True
            job.done_tasks = job.total_tasks
        return outcome

    def get(self, job_id: str) -> Optional[Job]:
        """The job with ``job_id``, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    def list_jobs(self) -> List[Job]:
        """Every job this server has seen, oldest first."""
        with self._lock:
            return list(self._jobs.values())

    def wait(self, job_id: str, timeout: float = 30.0) -> Optional[Job]:
        """Block until ``job_id`` settles (done/failed) or ``timeout`` passes."""
        job = self.get(job_id)
        if job is None:
            return None
        job.settled.wait(timeout)
        return job

    def queue_depth(self) -> int:
        """Jobs waiting for the dispatcher (excludes the one running)."""
        with self._lock:
            return len(self._queue)

    # -- execution ----------------------------------------------------------

    def _journal_path(self, key: str) -> str:
        return os.path.join(self.state_dir, f"{key}.journal")

    def _dispatch_loop(self) -> None:
        while True:
            with self._lock:
                while not self._queue and not self._closing:
                    self._queued.wait()
                if self._closing and not self._queue:
                    return
                job = self._queue.pop(0)
            self._run_job(job)

    def _run_job(self, job: Job) -> None:
        # The job missed the cache at submission; an entry written since
        # (by another process) is recomputed, with identical bytes.
        job.state = "running"
        job.started_at = time.time()
        self._settle(job, lambda: self._execute(job))

    def _settle(self, job: Job, produce: Callable[[], Optional[Any]]) -> bool:
        """Settle ``job`` with the table collected from ``produce()``'s outcome.

        The job fails if that raises.  Returns ``False``, leaving the job
        as it was, when ``produce()`` returns ``None`` (a cache miss).
        """
        try:
            outcome = produce()
            if outcome is None:
                return False
            job.result = TableCollector().collect(outcome)
            job.state = "done"
        except Exception as exc:
            # A failed job must never take the dispatcher thread (and with
            # it the whole server) down, nor turn its submission into an
            # error response; the failure is surfaced verbatim through the
            # job's status instead.
            job.error = f"{type(exc).__name__}: {exc}"
            job.state = "failed"
        job.finished_at = time.time()
        job.plan = None
        with self._lock:
            if self._active_by_key.get(job.cache_key) is job:
                del self._active_by_key[job.cache_key]
        job.settled.set()
        return True

    def _execute(self, job: Job) -> Any:
        """Run the campaign on the warm pool, journaled for crash tolerance."""
        plan = job.plan

        def progress(done: int, total: int, label: str) -> None:
            del label
            job.done_tasks = done
            job.total_tasks = total

        journal = self._journal_path(job.cache_key) if plan.include_simulation else None
        engine = SweepEngine(
            jobs=self.jobs, backend=self.backend, journal=journal, progress=progress
        )
        outcome = ExperimentRunner(engine=engine).run_outcome(plan)
        self.cache.put_outcome(plan, outcome)
        if journal is not None:
            # The result is durable in the cache now; the journal has
            # nothing left to protect.
            try:
                os.remove(journal)
            except OSError:
                pass
        return outcome

    # -- shutdown ------------------------------------------------------------

    def close(self, timeout: float = 10.0) -> None:
        """Finish the queue, stop the dispatcher, release the warm pool."""
        with self._lock:
            self._closing = True
            self._queued.notify_all()
        self._dispatcher.join(timeout=timeout)
        if self._owns_backend and hasattr(self.backend, "close"):
            self.backend.close()

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
