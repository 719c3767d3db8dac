"""Pluggable sweep executor for embarrassingly parallel experiments.

The paper's validation sweeps (Figures 4-7) are dozens of *independent*
(scenario x message size x cluster count x replication) simulations; nothing
couples one run to another except the aggregation at the end.  That makes
them the textbook case for fan-out execution: ship the runs to workers,
collect the results in submission order, and keep every run's random seed a
pure function of the sweep definition so every execution backend is
bit-identical to every other.

:class:`SweepEngine` is the policy layer over the execution backends of
:mod:`repro.parallel.backends`:

* ``jobs=1`` (the default) runs every task in-process with zero overhead —
  behaviourally identical to the pre-engine serial loops;
* ``jobs>1`` fans tasks out across a local process pool; results are still
  returned in task order;
* ``jobs=None`` (or ``0``) uses one pool worker per available CPU core;
* ``backend=`` overrides the jobs-based choice: ``"serial"``, ``"pool"``,
  ``"socket"`` or any :class:`~repro.parallel.backends.Backend` instance —
  e.g. a :class:`~repro.parallel.backends.SocketBackend` whose workers live
  on other machines;
* a task exception aborts the sweep and is re-raised *unchanged* (so
  ``except SimulationError`` and friends keep working exactly as with the
  pre-engine serial loops), annotated with the failing task's index and
  label; :class:`~repro.errors.WorkerError` is raised only when the
  execution infrastructure itself breaks (a pool worker process died, a
  socket worker was lost and the task could not be requeued);
* an optional ``progress`` callback is invoked as ``progress(done, total,
  label)`` after every completed task (from the submitting process, so it is
  safe to print from it).

Because tasks are shipped to workers with :mod:`pickle`, task functions must
be module-level callables and their arguments picklable — which every
configuration dataclass in this package is.  Socket workers are separate
Python processes (not forks), so task functions must also be *importable*
in the worker's environment.

Example
-------
>>> from repro.parallel import SweepEngine, SweepTask
>>> engine = SweepEngine(jobs=1)
>>> engine.map(abs, [-1, -2, 3])
[1, 2, 3]
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..errors import WorkerError

if TYPE_CHECKING:
    from .backends import Backend
    from .checkpoint import SweepJournal

# The backends (multiprocessing, sockets) and the journal are imported
# where they are first used, so building an engine that a cache hit never
# runs costs nothing.

__all__ = ["SweepTask", "SweepEngine", "resolve_engine", "resolve_jobs", "stderr_progress"]

#: Names accepted by ``SweepEngine(backend=...)`` and the CLI ``--backend``.
#: ``"ssh"`` is CLI-only sugar: it needs a host list, so the engine accepts
#: the name but ``run`` demands a pre-built
#: :class:`~repro.parallel.backends.SSHBackend` instance instead.
BACKEND_NAMES = ("serial", "pool", "socket", "ssh")


@dataclass(frozen=True)
class SweepTask:
    """One independent unit of sweep work: ``fn(*args, **kwargs)``.

    ``fn`` must be picklable (a module-level callable) when the engine runs
    with ``jobs > 1`` or a distributed backend; ``label`` is used for
    progress reporting and error messages.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""


def _annotate(exc: BaseException, index: int, label: str) -> BaseException:
    """Attach the failing task's identity to ``exc`` without changing its type."""
    note = f"raised by sweep task #{index}" + (f" ({label})" if label else "")
    add_note = getattr(exc, "add_note", None)
    if add_note is not None:  # Python >= 3.11
        add_note(note)
    return exc


def _coerce_journal(
    journal: Optional[Union[str, "os.PathLike", SweepJournal]],
) -> Optional[SweepJournal]:
    """Accept a ready journal, a path to open one, or ``None``."""
    if isinstance(journal, (str, os.PathLike)):
        from .checkpoint import SweepJournal

        return SweepJournal(journal)
    return journal


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value: ``None``/``0`` means one per CPU core."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ValueError(
            f"jobs must be >= 0 (0 or None = one worker per CPU core), got {jobs!r}"
        )
    return int(jobs)


def stderr_progress(done: int, total: int, label: str) -> None:
    """A ready-made progress callback: one status line on stderr per task."""
    sys.stderr.write(f"\r[sweep {done}/{total}] {label[:60]:<60}")
    if done == total:
        sys.stderr.write("\n")
    sys.stderr.flush()


class SweepEngine:
    """Executor that fans independent sweep tasks out across a backend.

    Parameters
    ----------
    jobs:
        Number of worker processes; ``1`` executes in-process (no pool,
        no pickling), ``None`` or ``0`` uses all CPU cores.  Also the
        default worker count for ``backend="socket"``.
    progress:
        Optional ``progress(done, total, label)`` callback invoked after
        every completed task.  Tasks are reported in the order the engine
        collects them: strictly task order for the serial backend, task
        order within each batch of completed futures for the pool backend,
        and arrival order for the socket backend.
    mp_context:
        Name of the multiprocessing start method (``"fork"``,
        ``"spawn"``, ...) for the pool backend.  Defaults to ``fork`` on
        Linux (cheap start-up, modules already imported) and the platform
        default elsewhere — notably *not* fork on macOS, where forked
        children crash in system libraries (the reason CPython switched
        that platform to spawn).  Results do not depend on the start
        method.
    backend:
        ``None`` (default) picks ``serial`` or ``pool`` from ``jobs``
        exactly like the pre-backend engine; a name from
        :data:`BACKEND_NAMES` forces that backend; a
        :class:`~repro.parallel.backends.Backend` instance is used as-is
        (the way to configure a multi-host
        :class:`~repro.parallel.backends.SocketBackend` or an
        :class:`~repro.parallel.backends.SSHBackend`).
    journal:
        Optional :class:`~repro.parallel.checkpoint.SweepJournal` (or a
        path, coerced to one).  Every completed task is journaled as it
        arrives; tasks already recorded by a previous incarnation of the
        same campaign are restored instead of re-executed, so a killed
        sweep resumes bit-identically to an uninterrupted run on every
        backend.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        progress: Optional[Callable[[int, int, str], None]] = None,
        mp_context: Optional[str] = None,
        backend: Optional[Union[str, Backend]] = None,
        journal: Optional[Union[str, SweepJournal]] = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.progress = progress
        if mp_context is None and sys.platform == "linux":
            mp_context = "fork"
        self._mp_context = mp_context
        if isinstance(backend, str) and backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKEND_NAMES} "
                "or a Backend instance"
            )
        self.backend = backend
        self.journal = _coerce_journal(journal)

    # -- execution ---------------------------------------------------------

    def run(self, tasks: Sequence[SweepTask]) -> List[Any]:
        """Execute ``tasks`` and return their results in task order.

        Raises
        ------
        BaseException
            The first task failure the backend reports is re-raised with
            its original type — identical to running the tasks in a plain
            loop — annotated with the task index/label; queued tasks are
            cancelled.
        WorkerError
            If the execution infrastructure itself fails (a pool worker
            process died before delivering a result, or every socket
            worker was lost).
        """
        tasks = list(tasks)
        if not tasks:
            return []
        total = len(tasks)
        results: List[Any] = [None] * total
        seen = [False] * total
        done = 0
        recorder = None
        remaining = list(range(total))
        if self.journal is not None:
            run_journal = self.journal.begin_run(tasks)
            recorder = run_journal.record
            for index in sorted(run_journal.completed):
                results[index] = run_journal.completed[index]
                seen[index] = True
                done += 1
                self._report(done, total, tasks[index].label)
            remaining = [index for index in range(total) if not seen[index]]
            if not remaining:
                return results
        # The backend only sees the unfinished tasks; its outcome indices
        # are positions in that sub-list and are mapped back to sweep
        # indices here, so journaled resumes work on every backend.
        backend = self._resolve_backend(len(remaining))
        outcomes = backend.execute([tasks[index] for index in remaining])
        try:
            for outcome in outcomes:
                index = remaining[outcome.index]
                if outcome.error is not None:
                    if outcome.infrastructure:
                        raise WorkerError(
                            index, tasks[index].label, outcome.error
                        ) from outcome.error
                    raise _annotate(outcome.error, index, tasks[index].label)
                if seen[index]:
                    # A duplicate outcome from a misbehaving backend must
                    # not count toward the delivered-everything check.
                    continue
                results[index] = outcome.value
                seen[index] = True
                done += 1
                if recorder is not None:
                    recorder(index, outcome.value)
                self._report(done, total, tasks[index].label)
        finally:
            close = getattr(outcomes, "close", None)
            if close is not None:
                close()
        if done != total:
            missing = seen.index(False)
            raise WorkerError(
                missing,
                tasks[missing].label,
                RuntimeError(
                    f"backend {backend.name!r} delivered {done} of {total} outcomes"
                ),
            )
        return results

    def map(
        self,
        fn: Callable[..., Any],
        items: Iterable[Any],
        label: Optional[Callable[[int, Any], str]] = None,
    ) -> List[Any]:
        """Apply ``fn`` to every item (each item is one positional argument).

        ``label`` optionally maps ``(index, item)`` to a progress label.
        """
        tasks = [
            SweepTask(fn=fn, args=(item,), label=label(i, item) if label else f"task[{i}]")
            for i, item in enumerate(items)
        ]
        return self.run(tasks)

    # -- internals ---------------------------------------------------------

    def _report(self, done: int, total: int, label: str) -> None:
        if self.progress is not None:
            self.progress(done, total, label)

    def _resolve_backend(self, task_count: int) -> Backend:
        """Materialise the backend for one ``run`` call."""
        from .backends import Backend, ProcessPoolBackend, SerialBackend, SocketBackend

        spec = self.backend
        if isinstance(spec, Backend):
            return spec
        if spec is None:
            # Legacy auto mode: single tasks and jobs<=1 stay in-process.
            spec = "serial" if self.jobs <= 1 or task_count == 1 else "pool"
        if spec == "serial":
            return SerialBackend()
        if spec == "pool":
            return ProcessPoolBackend(jobs=self.jobs, mp_context=self._mp_context)
        if spec == "socket":
            return SocketBackend(spawn_workers=max(self.jobs, 1))
        if spec == "ssh":
            raise ValueError(
                "backend 'ssh' needs a host list and cannot be resolved from a "
                "bare name; pass an SSHBackend instance (e.g. "
                "SweepEngine(backend=SSHBackend(hosts=[...]))) or use the CLI's "
                "--backend ssh --workers HOST,HOST,..."
            )
        raise ValueError(f"unknown backend {spec!r}")

    def __repr__(self) -> str:
        backend = self.backend if self.backend is not None else "auto"
        return (
            f"<SweepEngine jobs={self.jobs} backend={backend!r} "
            f"context={self._mp_context or 'default'}>"
        )


def resolve_engine(
    jobs: Optional[int] = 1,
    engine: Optional[SweepEngine] = None,
    backend: Optional[Union[str, Backend]] = None,
    checkpoint: Optional[Union[str, SweepJournal]] = None,
) -> SweepEngine:
    """The shared ``jobs``/``engine``/``backend`` policy of every simulating driver.

    A caller-supplied ``engine`` wins; otherwise one is built from ``jobs``
    and ``backend``.  Experiment entry points accept the whole triple (plus
    an optional ``checkpoint`` journal/path) and funnel it through here so
    the precedence stays in one place.  ``checkpoint`` attaches a
    :class:`~repro.parallel.checkpoint.SweepJournal` to the engine — also
    to a caller-supplied one.  Passing the *same* journal again is a no-op
    (so one engine can drive a whole campaign of driver calls that all
    name the campaign's journal); asking an engine that already journals
    to use a *different* journal is ambiguous (which file would the
    campaign resume from?) and raises :class:`ValueError` rather than
    silently ignoring either.
    """
    if engine is not None:
        if checkpoint is not None:
            if engine.journal is None:
                engine.journal = _coerce_journal(checkpoint)
            else:
                from .checkpoint import SweepJournal

                requested = (
                    checkpoint.path
                    if isinstance(checkpoint, SweepJournal)
                    else os.fspath(checkpoint)
                )
                if str(requested) != engine.journal.path:
                    raise ValueError(
                        "the supplied engine already has a journal "
                        f"({engine.journal.path!r}); passing checkpoint="
                        f"{str(requested)!r} as well is ambiguous — drop one of "
                        "the two"
                    )
                # Same path: keep the attached journal — its run ordinals
                # continue the campaign across repeated driver calls.
        return engine
    return SweepEngine(jobs=jobs, backend=backend, journal=checkpoint)
