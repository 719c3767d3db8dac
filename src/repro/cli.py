"""Command-line interface: regenerate the paper's figures and studies.

Usage examples::

    python -m repro figure 4                 # analysis-only reproduction of Figure 4
    python -m repro figure 6 --simulate      # include the validation simulator
    python -m repro figure 6 --simulate --jobs 0   # ... fanned out over all CPU cores
    python -m repro ratio                    # blocking/non-blocking ratio study (§6 claim)
    python -m repro validate --clusters 8    # analysis vs simulation at one point
    python -m repro ablation switch-ports    # one of the ablation studies
    python -m repro info                     # paper parameters and scenarios

    # the open scenario registry and the declarative pipeline
    python -m repro scenarios                # list every registered scenario
    python -m repro run hotspot --clusters 4 --sizes 512 --messages 1000
    python -m repro run SPEC.json            # run a JSON experiment spec
    python -m repro run bursty-hyper --smoke # the scenario's tiny CI smoke spec

    # explicit execution backend: serial, local process pool, or TCP work queue
    python -m repro figure 6 --simulate --backend pool --jobs 4
    python -m repro figure 6 --simulate --backend socket --workers 4
    #   ... --workers N spawns N local socket workers; a HOST:PORT list
    #   connects to worker daemons on other machines instead:
    python -m repro figure 6 --simulate --backend socket \\
        --workers hostA:7777,hostB:7777
    # (start each daemon with: python -m repro.parallel.worker --listen 0.0.0.0:7777)
    # ... or let the coordinator launch (and tear down) the daemons itself
    # over SSH — one worker per listed host, no manual daemon management:
    python -m repro figure 6 --simulate --backend ssh --workers user@hostA,user@hostB

    # fault tolerance: journal completed tasks, resume after a crash/kill
    python -m repro figure 6 --simulate --jobs 4 --checkpoint fig6.journal
    python -m repro figure 6 --simulate --jobs 4 --resume fig6.journal

    # content-addressed result cache: repeated campaigns are free
    python -m repro run SPEC.json --cache ~/.cache/repro   # cold: computes + stores
    python -m repro run SPEC.json --cache ~/.cache/repro   # warm: served from disk
    python -m repro cache stats --cache ~/.cache/repro     # hit/miss counters
    # simulation-as-a-service: a resident server with a warm worker pool
    python -m repro serve --cache ~/.cache/repro --pool 4

Simulation-heavy commands accept ``--jobs N`` to run the independent
simulations of a sweep on ``N`` worker processes (``0`` = one per CPU
core) via :class:`repro.parallel.SweepEngine`, plus ``--backend
{serial,pool,socket,ssh}`` / ``--workers SPEC`` to pick the execution
substrate; results are bit-identical for every backend because per-run
seeds depend only on the sweep definition, never on the schedule.
``--checkpoint PATH`` journals every completed task to an append-only
file; ``--resume PATH`` restores it, re-executing only unfinished tasks
(bit-identical to an uninterrupted run).  The SSH backend honours the
``REPRO_SSH_COMMAND``, ``REPRO_SSH_PYTHON`` and ``REPRO_SSH_PYTHONPATH``
environment variables (ssh argv prefix, remote interpreter, remote
``PYTHONPATH``).

``figure``, ``report`` and ``run`` also take ``--cache DIR`` (or the
``REPRO_CACHE_DIR`` environment variable; ``--no-cache`` overrides it) to
memoise whole campaigns in a content-addressed result store — a repeated
invocation is served from disk, byte-identically.  ``repro cache`` inspects
and maintains the store; ``repro serve`` exposes the same cache plus a warm
worker pool as an HTTP API.  The full walk-through lives in ``docs/cli.md``
and ``docs/service.md``.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from dataclasses import replace as dataclass_replace

from ._version import __version__
from .errors import CheckpointError, ConfigurationError, ExperimentError
from .experiments.figures import FIGURE_SPECS, run_figure
from .experiments.pipeline import (
    ExperimentRunner,
    ExperimentSpec,
    build_plan,
    smoke_spec,
)
from .experiments.scenarios import (
    CASE_1,
    CASE_2,
    PAPER_PARAMETERS,
    SCENARIO_REGISTRY,
    SCENARIOS,
    build_scenario_system,
    get_scenario,
)
from .parallel.engine import BACKEND_NAMES, SweepEngine, resolve_jobs, stderr_progress
from .stats.modes import STATS_MODES, validate_histogram_range
from .viz.tables import format_fixed_width_table, write_csv

if TYPE_CHECKING:
    from .parallel.checkpoint import SweepJournal

# Only what the parser and the cached paths need is imported here; each
# computing verb imports its own driver (the model, the simulator, the
# execution backends), so a cache hit, --help, 'scenarios' and 'info'
# load no NumPy.

__all__ = [
    "main",
    "build_parser",
    "build_cache",
    "build_engine",
    "build_journal",
    "jobs_count",
    "add_jobs_flag",
    "add_backend_flags",
    "add_cache_flags",
    "add_stats_mode_flag",
    "add_histogram_range_flag",
]


def jobs_count(text: str) -> int:
    """argparse type for ``--jobs``: non-negative int (0 = one per core)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 1 (or 0 for one worker per CPU core), got {value}"
        )
    return value


def add_jobs_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--jobs N`` option to ``parser``."""
    parser.add_argument(
        "--jobs", type=jobs_count, default=1, metavar="N",
        help="worker processes for independent simulation runs "
             "(1 = in-process serial, 0 = one per CPU core); "
             "results are identical for every value",
    )


def histogram_range_spec(text: str) -> tuple:
    """argparse type for ``--histogram-range``: parse ``LO:HI`` into floats."""
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        return validate_histogram_range((lo, hi))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def add_histogram_range_flag(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--histogram-range LO:HI`` option to ``parser``."""
    parser.add_argument(
        "--histogram-range", type=histogram_range_spec, default=None,
        metavar="LO:HI", dest="histogram_range",
        help="explicit quantile-histogram range in seconds for "
             "--stats-mode online (e.g. 0:0.5), in place of the range "
             "calibrated on the first 1,024 observations (rejected with "
             "--stats-mode array)",
    )


def add_stats_mode_flag(parser: argparse.ArgumentParser, default: Optional[str] = "array") -> None:
    """Attach the shared ``--stats-mode`` option to ``parser``.

    ``default=None`` means "defer to the spec file" (used by ``repro run``,
    where an explicit flag overrides the spec but its absence must not).
    """
    parser.add_argument(
        "--stats-mode", choices=list(STATS_MODES), default=default,
        help="observation sinks for simulation runs: 'array' retains every "
             "sample (bit-identical legacy behaviour, exact percentiles), "
             "'online' streams through bounded-memory accumulators so run "
             "length is bounded by CPU instead of RAM (default: array)",
    )


def add_backend_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared execution-backend options (``--jobs`` included)."""
    add_jobs_flag(parser)
    parser.add_argument(
        "--backend", choices=list(BACKEND_NAMES), default=None,
        help="execution backend for sweep tasks (default: serial for "
             "--jobs 1, a local process pool otherwise); 'socket' runs a "
             "TCP work queue feeding repro.parallel.worker processes, "
             "'ssh' additionally launches those workers itself over ssh — "
             "results are bit-identical for every backend",
    )
    parser.add_argument(
        "--workers", type=str, default=None, metavar="SPEC",
        help="socket-backend workers: an integer N spawns N local worker "
             "processes (default: --jobs); a comma-separated HOST:PORT list "
             "connects to daemons started with "
             "'python -m repro.parallel.worker --listen HOST:PORT'; with "
             "--backend ssh, a comma-separated [user@]HOST list of machines "
             "to launch one worker on each",
    )
    journal = parser.add_mutually_exclusive_group()
    journal.add_argument(
        "--checkpoint", type=str, default=None, metavar="PATH",
        help="journal every completed task to this append-only file so an "
             "interrupted run can be resumed (the file is created if "
             "missing and continued if present)",
    )
    journal.add_argument(
        "--resume", type=str, default=None, metavar="PATH",
        help="resume the campaign journaled at PATH (which must exist): "
             "restore completed tasks, re-execute only unfinished ones — "
             "bit-identical to an uninterrupted run — and keep journaling",
    )


def add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--cache DIR`` / ``--no-cache`` options."""
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--cache", type=str, default=None, metavar="DIR",
        help="content-addressed result cache directory (default: the "
             "REPRO_CACHE_DIR environment variable, if set): a campaign "
             "whose (spec, code-version) key has an entry is served from "
             "disk, byte-identically, instead of recomputed",
    )
    group.add_argument(
        "--no-cache", action="store_true", dest="no_cache",
        help="ignore REPRO_CACHE_DIR and compute without the result cache",
    )


def build_cache(args: argparse.Namespace):
    """Open the result cache requested by ``--cache``/``REPRO_CACHE_DIR``.

    Returns ``None`` when no cache is configured, when ``--no-cache``
    disables it, or when ``--resume`` is given — resuming a journal means
    "finish the interrupted execution", which a cache hit would silently
    skip (tripping the idle-journal check with a misleading error).
    """
    if getattr(args, "no_cache", False) or getattr(args, "resume", None) is not None:
        return None
    target = getattr(args, "cache", None) or os.environ.get("REPRO_CACHE_DIR")
    if not target:
        return None
    from .cache.store import CacheError, ResultCache

    try:
        return ResultCache(target)
    except CacheError as exc:
        raise SystemExit(str(exc)) from exc


def build_journal(args: argparse.Namespace) -> Optional[SweepJournal]:
    """Open the journal requested by ``--checkpoint``/``--resume`` (if any)."""
    checkpoint = getattr(args, "checkpoint", None)
    resume = getattr(args, "resume", None)
    path = resume or checkpoint
    if path is None:
        return None
    from .parallel.checkpoint import SweepJournal

    if resume is not None and not os.path.exists(resume):
        raise SystemExit(
            f"--resume {resume}: no such journal (use --checkpoint to start one)"
        )
    try:
        return SweepJournal(path)
    except OSError as exc:
        raise SystemExit(f"could not open sweep journal {path!r}: {exc}") from exc


def check_idle_journal(engine: SweepEngine) -> None:
    """Reject a foreign ``--resume`` journal on a command that ran no sweeps.

    Analysis-only ``figure``/``report``/``run`` evaluate in-process
    vectorized passes and start no engine runs, so the engine's fingerprint
    check never sees the journal.  Resuming a journal that *does* record
    sweep runs with such a command would silently succeed while matching
    nothing — raise the same :class:`CheckpointError` the fingerprint check
    would have.
    """
    journal = getattr(engine, "journal", None)
    if journal is not None and journal.runs_started == 0 and journal.recorded_runs > 0:
        raise CheckpointError(
            f"journal {journal.path!r} records {journal.recorded_runs} sweep "
            "run(s), but this command executed its sweeps as in-process "
            "vectorized passes and journaled nothing — the journal belongs "
            "to a different campaign (resume it with the command that "
            "created it)"
        )


def build_engine(args: argparse.Namespace, progress=None) -> SweepEngine:
    """Construct the :class:`SweepEngine` selected by the parsed CLI flags."""
    backend = getattr(args, "backend", None)
    workers = getattr(args, "workers", None)
    try:
        if backend == "socket":
            from .parallel.backends import socket_backend_from_spec

            # resolve_jobs keeps --jobs 0 meaning "one per CPU core" here too.
            backend = socket_backend_from_spec(workers, default_workers=resolve_jobs(args.jobs))
        elif backend == "ssh":
            from .parallel.backends import ssh_backend_from_spec

            ssh_kwargs = {}
            if os.environ.get("REPRO_SSH_COMMAND"):
                ssh_kwargs["ssh_command"] = shlex.split(os.environ["REPRO_SSH_COMMAND"])
            if os.environ.get("REPRO_SSH_PYTHON"):
                ssh_kwargs["remote_python"] = os.environ["REPRO_SSH_PYTHON"]
            if os.environ.get("REPRO_SSH_PYTHONPATH"):
                ssh_kwargs["remote_pythonpath"] = os.environ["REPRO_SSH_PYTHONPATH"]
            backend = ssh_backend_from_spec(workers, **ssh_kwargs)
        elif workers is not None:
            raise SystemExit("--workers requires --backend socket or --backend ssh")
    except ValueError as exc:
        raise SystemExit(str(exc)) from exc
    return SweepEngine(
        jobs=args.jobs, progress=progress, backend=backend, journal=build_journal(args)
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-multicluster",
        description="Reproduce the evaluation of 'Performance Analysis of "
        "Heterogeneous Multi-Cluster Systems' (ICPP-W 2005).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="reproduce one of Figures 4-7")
    fig.add_argument("number", type=int, choices=sorted(FIGURE_SPECS), help="figure number")
    fig.add_argument("--simulate", action="store_true", help="also run the validation simulator")
    fig.add_argument("--messages", type=int, default=PAPER_PARAMETERS.simulation_messages,
                     help="simulated messages per point (default: paper's 10000)")
    fig.add_argument("--clusters", type=int, nargs="*", default=None,
                     help="override the cluster-count sweep")
    fig.add_argument("--sizes", type=int, nargs="*", default=None,
                     help="override the message-size sweep (bytes)")
    fig.add_argument("--csv", type=str, default=None, help="write the points to a CSV file")
    fig.add_argument("--chart", action="store_true", help="print an ASCII chart")
    fig.add_argument("--replications", type=int, default=1,
                     help="independent simulation replications per point")
    add_stats_mode_flag(fig)
    add_histogram_range_flag(fig)
    add_backend_flags(fig)
    add_cache_flags(fig)

    ratio = sub.add_parser("ratio", help="blocking vs non-blocking latency ratio study")
    ratio.add_argument("--csv", type=str, default=None, help="write the points to a CSV file")

    val = sub.add_parser("validate", help="analysis vs simulation at one configuration")
    val.add_argument("--case", choices=sorted(SCENARIOS), default="case-1")
    val.add_argument("--clusters", type=int, default=16)
    val.add_argument("--architecture", choices=["non-blocking", "blocking"],
                     default="non-blocking")
    val.add_argument("--message-bytes", type=float, default=1024.0)
    val.add_argument("--messages", type=int, default=PAPER_PARAMETERS.simulation_messages)
    val.add_argument("--replications", type=int, default=1)
    add_stats_mode_flag(val)
    add_backend_flags(val)

    abl = sub.add_parser("ablation", help="run one ablation study")
    abl.add_argument(
        "study",
        choices=["switch-ports", "switch-latency", "generation-rate", "message-size",
                 "fixed-point-vs-mva"],
    )

    rep = sub.add_parser("report", help="generate the full paper-vs-measured report")
    rep.add_argument("--output", type=str, default=None,
                     help="write the Markdown report to this path (default: stdout)")
    rep.add_argument("--simulate", action="store_true",
                     help="include validation simulations (slower)")
    rep.add_argument("--messages", type=int, default=2_000,
                     help="simulated messages per point when --simulate is given")
    rep.add_argument("--clusters", type=int, nargs="*", default=None,
                     help="override the cluster-count sweep")
    add_stats_mode_flag(rep)
    add_backend_flags(rep)
    add_cache_flags(rep)

    runp = sub.add_parser(
        "run", help="run a declarative experiment spec (SPEC.json) or a registered scenario"
    )
    runp.add_argument(
        "spec", metavar="SPEC",
        help="path to a SPEC.json experiment spec, or the name of a "
             "registered scenario (see 'repro scenarios')",
    )
    runp.add_argument("--mode", choices=["analysis", "simulate", "both"], default=None,
                      help="override the spec's mode")
    runp.add_argument("--clusters", type=int, nargs="*", default=None,
                      help="override the cluster-count axis")
    runp.add_argument("--sizes", type=int, nargs="*", default=None,
                      help="override the message-size axis (bytes)")
    runp.add_argument("--rates", type=float, nargs="*", default=None,
                      help="override the generation-rate axis (msg/s)")
    runp.add_argument("--messages", type=int, default=None,
                      help="override the simulated messages per point")
    runp.add_argument("--replications", type=int, default=None,
                      help="override the simulation replications per point")
    runp.add_argument("--seed", type=int, default=None, help="override the campaign seed")
    runp.add_argument("--smoke", action="store_true",
                      help="use the scenario's tiny smoke spec (scenario-name form only)")
    runp.add_argument("--csv", type=str, default=None, help="write the points to a CSV file")
    add_stats_mode_flag(runp, default=None)
    add_histogram_range_flag(runp)
    add_backend_flags(runp)
    add_cache_flags(runp)

    scen = sub.add_parser("scenarios", help="list the registered experiment scenarios")
    scen.add_argument("--names", action="store_true",
                      help="print one scenario name per line (for shell loops)")
    scen.add_argument("--json", action="store_true", help="machine-readable JSON listing")
    scen.add_argument(
        "--write-smoke-specs", type=str, default=None, metavar="DIR",
        help="write each scenario's tiny smoke spec as DIR/<name>.json "
             "(the CI scenario matrix feeds these to 'repro run')",
    )

    point = sub.add_parser("analyze", help="evaluate the analytical model at one point")
    point.add_argument("--case", choices=sorted(SCENARIOS), default="case-1")
    point.add_argument("--clusters", type=int, default=16)
    point.add_argument("--architecture", choices=["non-blocking", "blocking"],
                       default="non-blocking")
    point.add_argument("--message-bytes", type=float, default=1024.0)
    point.add_argument("--rate", type=float, default=PAPER_PARAMETERS.generation_rate)

    cachep = sub.add_parser(
        "cache", help="inspect or maintain the content-addressed result cache"
    )
    cachep.add_argument(
        "action",
        choices=["stats", "list", "show", "evict", "evict-stale", "clear"],
        help="stats: hit/miss counters and sizes; list: every entry; "
             "show KEY: one entry's metadata; evict KEY: remove one entry; "
             "evict-stale: remove entries written by older code versions; "
             "clear: remove everything",
    )
    cachep.add_argument("key", nargs="?", default=None,
                        help="cache entry key (required by show/evict)")
    cachep.add_argument(
        "--cache", type=str, default=None, metavar="DIR",
        help="cache directory (default: the REPRO_CACHE_DIR environment variable)",
    )
    cachep.add_argument("--json", action="store_true", help="machine-readable JSON output")

    srv = sub.add_parser(
        "serve", help="start the HTTP simulation service (see docs/service.md)"
    )
    srv.add_argument("--host", type=str, default="127.0.0.1",
                     help="bind address (default: loopback; the API is unauthenticated, "
                          "expose it only on trusted networks)")
    srv.add_argument("--port", type=int, default=8765,
                     help="bind port (default: 8765; 0 picks an ephemeral port)")
    srv.add_argument(
        "--pool", type=jobs_count, default=1, metavar="N",
        help="warm worker-pool size: simulation processes kept alive across "
             "requests (1 = one warm worker, 0 = one per CPU core)",
    )
    srv.add_argument(
        "--cache", type=str, default=None, metavar="DIR",
        help="result cache directory backing the service (default: the "
             "REPRO_CACHE_DIR environment variable; required)",
    )
    srv.add_argument(
        "--state-dir", type=str, default=None, metavar="DIR", dest="state_dir",
        help="directory for in-flight job journals (default: <cache>/service); "
             "a job interrupted by a crash resumes from its journal when the "
             "same spec is resubmitted",
    )
    srv.add_argument(
        "--max-queued", type=int, default=16, metavar="N", dest="max_queued",
        help="load-shedding bound: refuse submissions (HTTP 503 with a "
             "Retry-After header) once this many jobs are queued; 0 removes "
             "the bound (default: 16)",
    )
    srv.add_argument("--verbose", action="store_true",
                     help="log one line per HTTP request to stderr")

    sub.add_parser("info", help="print the paper's parameters and scenarios")

    lint = sub.add_parser("lint", help="run the repro domain linter (static analysis)")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to scan (default: src)")
    lint.add_argument("--format", choices=["text", "json", "github"], default="text",
                      dest="lint_format", help="output format (default: text)")
    lint.add_argument("--select", type=str, default=None,
                      help="comma-separated rule-id prefixes to enable (e.g. REP1,REP301)")
    lint.add_argument("--ignore", type=str, default=None,
                      help="comma-separated rule-id prefixes to disable")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    return parser


def _cmd_figure(args: argparse.Namespace) -> int:
    # Built even for analysis-only runs so inconsistent backend flags fail
    # fast; backends are lazy, so no pool/worker is started until a
    # simulation sweep actually executes.  Per-task progress goes to stderr
    # to keep the table output on stdout clean.
    engine = build_engine(args, progress=stderr_progress if args.simulate else None)
    result = run_figure(
        args.number,
        include_simulation=args.simulate,
        cluster_counts=args.clusters,
        message_sizes=args.sizes,
        simulation_messages=args.messages,
        replications=args.replications,
        engine=engine,
        stats_mode=args.stats_mode,
        histogram_range=args.histogram_range,
        cache=build_cache(args),
    )
    check_idle_journal(engine)
    print(result.spec.title)
    print()
    print(result.to_text_table())
    summary = result.accuracy_summary()
    if summary is not None:
        print()
        print(f"Analysis vs simulation: {summary}")
    if args.chart:
        print()
        print(result.to_chart())
    if args.csv:
        write_csv(args.csv, result.to_rows())
        print(f"\nWrote {len(result.points)} points to {args.csv}")
    return 0


def _cmd_ratio(args: argparse.Namespace) -> int:
    from .experiments.blocking_ratio import run_blocking_ratio_study

    study = run_blocking_ratio_study()
    print("Blocking vs non-blocking mean latency ratio (paper section 6 claim)")
    print()
    print(format_fixed_width_table(study.to_rows()))
    print()
    print(
        f"Observed band: {study.min_ratio:.2f} - {study.max_ratio:.2f} "
        f"(mean {study.mean_ratio:.2f}); paper reports "
        f"{study.paper_band[0]} - {study.paper_band[1]}."
    )
    if args.csv:
        write_csv(args.csv, study.to_rows())
        print(f"\nWrote {len(study.points)} points to {args.csv}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    from .core.model import ModelConfig
    from .simulation.runner import validate_against_analysis
    from .simulation.simulator import SimulationConfig

    scenario = SCENARIOS[args.case]
    system = build_scenario_system(scenario, args.clusters)
    model_config = ModelConfig(
        architecture=args.architecture,
        message_bytes=args.message_bytes,
        generation_rate=PAPER_PARAMETERS.generation_rate,
    )
    sim_config = SimulationConfig(
        architecture=args.architecture,
        message_bytes=args.message_bytes,
        generation_rate=PAPER_PARAMETERS.generation_rate,
        num_messages=args.messages,
        stats_mode=args.stats_mode,
    )
    point = validate_against_analysis(
        system, model_config, sim_config, args.replications,
        engine=build_engine(args),
    )
    print(f"System: {system}")
    print(f"Architecture: {args.architecture}, M = {args.message_bytes:g} bytes")
    print(f"  analysis   : {point.analysis_latency_ms:.4f} ms")
    print(f"  simulation : {point.simulation_latency_ms:.4f} ms "
          f"({args.replications} replication(s), {args.messages} messages each)")
    print(f"  rel. error : {point.relative_error * 100:.2f}%")
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from .experiments.ablations import (
        fixed_point_vs_exact_mva,
        sweep_generation_rate,
        sweep_message_size,
        sweep_switch_latency,
        sweep_switch_ports,
    )

    studies = {
        "switch-ports": sweep_switch_ports,
        "switch-latency": sweep_switch_latency,
        "generation-rate": sweep_generation_rate,
        "message-size": sweep_message_size,
        "fixed-point-vs-mva": fixed_point_vs_exact_mva,
    }
    study = studies[args.study]()
    print(study.name)
    print()
    print(format_fixed_width_table(study.to_rows()))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .experiments.report import generate_report

    engine = build_engine(args, progress=stderr_progress if args.simulate else None)
    report = generate_report(
        include_simulation=args.simulate,
        cluster_counts=args.clusters,
        simulation_messages=args.messages,
        engine=engine,
        stats_mode=args.stats_mode,
        cache=build_cache(args),
    )
    check_idle_journal(engine)
    if args.output:
        report.write(args.output)
        print(f"Wrote reproduction report to {args.output}")
    else:
        print(report.to_markdown())
    return 0


def _load_run_spec(args: argparse.Namespace) -> ExperimentSpec:
    """Resolve the ``repro run`` SPEC argument into an :class:`ExperimentSpec`."""
    target = args.spec
    if os.path.exists(target):
        if args.smoke:
            raise SystemExit(
                "--smoke applies to scenario names only; edit the spec file instead"
            )
        spec = ExperimentSpec.from_file(target)
    elif target in SCENARIO_REGISTRY:
        scenario = get_scenario(target)
        if args.smoke:
            spec = smoke_spec(scenario)
        else:
            spec = ExperimentSpec(
                scenario=scenario.name,
                mode="both" if scenario.analysis_capable else "simulate",
            )
    else:
        raise SystemExit(
            f"{target!r} is neither a spec file nor a registered scenario; "
            "'repro scenarios' lists the registered names"
        )
    overrides = {}
    if args.mode is not None:
        overrides["mode"] = args.mode
    if args.clusters is not None:
        overrides["cluster_counts"] = tuple(args.clusters)
    if args.sizes is not None:
        overrides["message_sizes"] = tuple(args.sizes)
    if args.rates is not None:
        overrides["generation_rates"] = tuple(args.rates)
    if args.messages is not None:
        overrides["simulation_messages"] = args.messages
    if args.replications is not None:
        overrides["replications"] = args.replications
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.stats_mode is not None:
        overrides["stats_mode"] = args.stats_mode
    if args.histogram_range is not None:
        overrides["histogram_range"] = args.histogram_range
    return dataclass_replace(spec, **overrides) if overrides else spec


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _load_run_spec(args)
    plan = build_plan(spec)
    engine = build_engine(
        args, progress=stderr_progress if spec.include_simulation else None
    )
    cache = build_cache(args)
    if cache is not None:
        # Stdout stays byte-identical between hit and miss (the bit-identity
        # contract); the hit/miss note goes to stderr.
        key = cache.key_for_plan(plan)
        hit = key is not None and cache.get_entry(key) is not None
        print(f"[cache {'hit' if hit else 'miss'}] {key}", file=sys.stderr)
    result = ExperimentRunner(engine=engine, cache=cache).run(plan)
    check_idle_journal(engine)
    print(plan.scenario.describe())
    print(
        f"Architecture: {plan.architecture}, mode: {spec.mode}, "
        f"seed: {spec.seed}"
        + (
            f", {spec.simulation_messages} messages x "
            f"{spec.replications} replication(s) per point"
            if spec.include_simulation
            else ""
        )
    )
    print()
    print(result.to_text_table())
    summary = result.accuracy_summary()
    if summary is not None:
        print()
        print(f"Analysis vs simulation: {summary}")
    if args.csv:
        write_csv(args.csv, result.to_rows())
        print(f"\nWrote {len(result.points)} points to {args.csv}")
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    if args.write_smoke_specs:
        os.makedirs(args.write_smoke_specs, exist_ok=True)
        for name, scenario in SCENARIO_REGISTRY.items():
            path = os.path.join(args.write_smoke_specs, f"{name}.json")
            smoke_spec(scenario).to_file(path)
            print(f"wrote {path}")
        return 0
    if args.names:
        for name in SCENARIO_REGISTRY:
            print(name)
        return 0
    if args.json:
        import json

        listing = [
            {
                "name": scenario.name,
                "description": scenario.description,
                "paper": scenario.paper,
                "supports_analysis": scenario.supports_analysis,
                "heterogeneous_analysis": scenario.heterogeneous_analysis,
                "default_architecture": scenario.default_architecture,
                "custom_destinations": scenario.destination_policy is not None,
                "custom_arrivals": scenario.arrival_factory is not None,
            }
            for scenario in SCENARIO_REGISTRY.values()
        ]
        print(json.dumps(listing, indent=2))
        return 0
    rows = [
        {
            "name": scenario.name,
            "analysis": (
                "yes"
                if scenario.supports_analysis
                else ("het" if scenario.heterogeneous_analysis else "no")
            ),
            "architecture": scenario.default_architecture,
            "workload": ", ".join(
                part
                for part, present in (
                    ("destinations", scenario.destination_policy is not None),
                    ("arrivals", scenario.arrival_factory is not None),
                )
                if present
            )
            or "paper default",
            "description": scenario.description,
        }
        for scenario in SCENARIO_REGISTRY.values()
    ]
    print(format_fixed_width_table(rows))
    print()
    print("Run one with: python -m repro run NAME  (or write a SPEC.json; "
          "see the README's scenario cookbook)")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .core.model import AnalyticalModel, ModelConfig

    scenario = SCENARIOS[args.case]
    system = build_scenario_system(scenario, args.clusters)
    report = AnalyticalModel(
        system,
        ModelConfig(
            architecture=args.architecture,
            message_bytes=args.message_bytes,
            generation_rate=args.rate,
        ),
    ).evaluate()
    print(system.describe())
    print()
    print(f"Architecture         : {report.architecture}")
    print(f"Message size         : {report.message_bytes:g} bytes")
    print(f"Outgoing probability : {report.outgoing_probability:.4f}")
    print(f"Effective rate       : {report.effective_rate:.6g} msg/s "
          f"(nominal {report.nominal_rate:g})")
    print(f"Mean message latency : {report.mean_latency_ms:.4f} ms")
    print(f"  local  component   : {report.local_latency_s * 1e3:.4f} ms")
    print(f"  remote component   : {report.remote_latency_s * 1e3:.4f} ms")
    print("Utilisations         : "
          + ", ".join(f"{k}={v:.4f}" for k, v in report.utilizations.items()))
    return 0


def _cmd_info(_args: argparse.Namespace) -> int:
    print("Paper: Performance Analysis of Heterogeneous Multi-Cluster Systems (ICPP-W 2005)")
    print()
    print("Table 1 scenarios:")
    for scenario in (CASE_1, CASE_2):
        print(f"  {scenario.describe()}")
    print()
    p = PAPER_PARAMETERS
    print("Table 2 parameters:")
    print(f"  total processors      : {p.total_processors}")
    print(f"  cluster counts        : {list(p.cluster_counts)}")
    print(f"  message sizes (bytes) : {list(p.message_sizes)}")
    print(f"  generation rate       : {p.generation_rate} msg/s")
    print(f"  switch                : {p.switch}")
    print(f"  simulated messages    : {p.simulation_messages}")
    print()
    print("Figures:")
    for number, spec in sorted(FIGURE_SPECS.items()):
        print(f"  Figure {number}: {spec.description}")
    print()
    print(f"Registered scenarios ({len(SCENARIO_REGISTRY)}; see 'repro scenarios'): "
          + ", ".join(SCENARIO_REGISTRY))
    return 0


def _open_cli_cache(args: argparse.Namespace):
    """Open the cache named by ``--cache``/``REPRO_CACHE_DIR`` (required)."""
    from .cache.store import CacheError, ResultCache

    target = args.cache or os.environ.get("REPRO_CACHE_DIR")
    if not target:
        raise SystemExit(
            f"repro {args.command} needs a cache directory: pass --cache DIR "
            "or set REPRO_CACHE_DIR"
        )
    try:
        return ResultCache(target)
    except CacheError as exc:
        raise SystemExit(str(exc)) from exc


def _cmd_cache(args: argparse.Namespace) -> int:
    import json

    store = _open_cli_cache(args)
    if args.action in ("show", "evict") and not args.key:
        raise SystemExit(f"repro cache {args.action} needs a KEY ('repro cache list' shows them)")
    if args.action == "stats":
        stats = store.stats().as_dict()
        if args.json:
            print(json.dumps(stats, indent=2))
        else:
            print(f"cache: {store.root}")
            for name, value in stats.items():
                print(f"  {name:<15}: {value}")
    elif args.action == "list":
        entries = store.entries()
        if args.json:
            print(json.dumps([entry.as_dict() for entry in entries], indent=2))
        elif not entries:
            print("cache is empty")
        else:
            rows = [
                {
                    "key": entry.key,
                    "scenario": entry.scenario,
                    "mode": entry.mode,
                    "hits": entry.hits,
                    "bytes": entry.size_bytes,
                    "stale": "yes" if entry.code_fingerprint != store.fingerprint else "no",
                }
                for entry in entries
            ]
            print(format_fixed_width_table(rows))
    elif args.action == "show":
        entry = store.get_entry(args.key)
        if entry is None:
            raise SystemExit(f"no cache entry {args.key!r}")
        print(json.dumps(entry.as_dict(), indent=2))
    elif args.action == "evict":
        if not store.evict(args.key):
            raise SystemExit(f"no cache entry {args.key!r}")
        print(f"evicted {args.key}")
    elif args.action == "evict-stale":
        print(f"evicted {store.evict_stale()} stale entries")
    else:  # clear
        print(f"removed {store.clear()} entries")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from .service.http import ReproService
    from .service.jobs import JobManager

    cache = _open_cli_cache(args)
    manager = JobManager(
        cache, jobs=args.pool, state_dir=args.state_dir, max_queued=args.max_queued
    )
    service = ReproService(manager, host=args.host, port=args.port, verbose=args.verbose)
    try:
        service.start()
    except OSError as exc:
        manager.close()
        raise SystemExit(f"could not bind {args.host}:{args.port}: {exc}") from exc
    host, port = service.address
    print(f"repro serve: http://{host}:{port}/v1 "
          f"(pool={manager.jobs} warm workers, cache={cache.root})")
    print("submit specs with: curl -X POST --data @SPEC.json "
          f"http://{host}:{port}/v1/experiments   (Ctrl-C to stop)")
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("\nshutting down")
    finally:
        service.stop()
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Imported lazily: the analysis package is pure stdlib but entirely
    # unrelated to the numeric pipeline the other verbs load.
    from .analysis.engine import lint_paths
    from .analysis.reporting import format_report
    from .analysis.rules.base import rule_catalogue

    if args.list_rules:
        for row in rule_catalogue():
            print(f"{row['id']}  {row['name']:<22} {row['rationale']}")
        return 0

    def split(text: Optional[str]) -> Optional[list]:
        if text is None:
            return None
        return [part for part in text.split(",") if part.strip()]

    try:
        report = lint_paths(
            [Path(p) for p in args.paths],
            select=split(args.select),
            ignore=split(args.ignore),
        )
    except ValueError as exc:  # unknown --select/--ignore prefix
        print(f"error: {exc}", file=sys.stderr)
        return 2
    output = format_report(report, args.lint_format)
    if output:
        print(output)
    return report.exit_code()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handlers = {
        "figure": _cmd_figure,
        "ratio": _cmd_ratio,
        "validate": _cmd_validate,
        "ablation": _cmd_ablation,
        "report": _cmd_report,
        "run": _cmd_run,
        "scenarios": _cmd_scenarios,
        "analyze": _cmd_analyze,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "info": _cmd_info,
        "lint": _cmd_lint,
    }
    # Uniform --resume validation at the CLI boundary: every verb reports a
    # missing journal with the same one-line error, before any work starts
    # (historically each command surfaced it wherever its engine happened to
    # be built — which for lazy engines could be after minutes of analysis).
    resume = getattr(args, "resume", None)
    if resume is not None and not os.path.exists(resume):
        raise SystemExit(
            f"--resume {resume}: no such journal (use --checkpoint to start one)"
        )
    try:
        return handlers[args.command](args)
    except CheckpointError as exc:
        # The designed user error of --resume (journal belongs to a
        # different campaign) deserves its one-line message, not a
        # traceback.
        raise SystemExit(f"checkpoint error: {exc}") from exc
    except (ExperimentError, ConfigurationError) as exc:
        # Spec/scenario/configuration mistakes (unknown scenario, invalid
        # spec JSON, analysis requested for a simulate-only scenario, a
        # cluster count a preset cannot be rescaled to) are user errors:
        # one line, no traceback.
        raise SystemExit(f"error: {exc}") from exc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
