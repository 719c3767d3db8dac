"""Parallel experiment execution: pluggable backends with deterministic seeding.

This subpackage scales the paper's validation campaigns (dozens of
independent simulations per figure) across CPU cores — and, with the socket
backend, across machines:

``repro.parallel.engine``
    :class:`SweepEngine`, the order-preserving sweep executor used by
    :func:`repro.simulation.runner.run_replications`,
    :func:`repro.experiments.figures.run_figure`, the blocking-ratio study,
    the ablations and the CLI's ``--jobs``/``--backend`` flags.
``repro.parallel.backends``
    The :class:`Backend` interface and its implementations —
    :class:`SerialBackend` (in-process), :class:`ProcessPoolBackend`
    (local process pool), :class:`PersistentPoolBackend` (a process pool
    kept warm across runs — the ``repro serve`` worker pool),
    :class:`SocketBackend` (TCP work queue
    feeding ``python -m repro.parallel.worker`` processes, locally or on
    other hosts) and :class:`SSHBackend` (the socket work queue with
    workers the coordinator itself launches over ``ssh`` and tears down).
``repro.parallel.checkpoint``
    :class:`SweepJournal`, the append-only completion journal behind the
    CLI's ``--checkpoint``/``--resume`` flags: a killed campaign resumes
    bit-identically, re-executing only its unfinished tasks.
``repro.parallel.worker``
    The socket worker daemon (``--connect`` to dial a coordinator,
    ``--listen`` to serve as a multi-host daemon).
``repro.parallel.protocol``
    The length-prefixed pickle frame protocol both halves speak.
``repro.parallel.seeding``
    :func:`spawn_seeds`, the :class:`numpy.random.SeedSequence`-based
    derivation of independent per-task seeds shared by all execution
    backends (which is what keeps them bit-identical).
"""

from .._lazy import lazy_exports

__all__ = [
    "BACKEND_NAMES",
    "Backend",
    "PersistentPoolBackend",
    "ProcessPoolBackend",
    "RunJournal",
    "SSHBackend",
    "SerialBackend",
    "SocketBackend",
    "SweepEngine",
    "SweepJournal",
    "SweepTask",
    "TaskOutcome",
    "resolve_engine",
    "resolve_jobs",
    "socket_backend_from_spec",
    "spawn_seeds",
    "spawn_seed_sequences",
    "ssh_backend_from_spec",
    "stderr_progress",
]

__getattr__, __dir__ = lazy_exports(globals(), {
    ".backends": (
        "Backend", "PersistentPoolBackend", "ProcessPoolBackend", "SerialBackend",
        "socket_backend_from_spec", "SocketBackend", "ssh_backend_from_spec", "SSHBackend",
        "TaskOutcome",
    ),
    ".checkpoint": ("RunJournal", "SweepJournal"),
    ".engine": (
        "BACKEND_NAMES", "resolve_engine", "resolve_jobs", "stderr_progress", "SweepEngine",
        "SweepTask",
    ),
    ".seeding": ("spawn_seed_sequences", "spawn_seeds"),
})
