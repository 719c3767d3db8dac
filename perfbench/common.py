"""Shared helpers: paths, statistics, digests, host record and child processes.

Nothing here imports :mod:`repro`; the orchestrating process stays light so
that the program's own processes are the ones measured.
"""

from __future__ import annotations

import hashlib
import importlib.metadata
import importlib.util
import math
import os
import platform
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Root of the checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: The program's sources; the benchmark runs them from here, never installed.
SRC = ROOT / "src"
#: Where runs leave their results and scratch caches (ignored by git).
OUT = ROOT / ".perfbench"

#: Per-operation timeout; an operation that takes longer counts as failed.
OP_TIMEOUT_S = 60.0


def program_present() -> bool:
    """Whether the checkout holds the program the benchmark measures."""
    return (SRC / "repro" / "__init__.py").is_file() and (SRC / "repro" / "cli.py").is_file()


def child_env() -> Dict[str, str]:
    """Environment for the program's processes: sources on the path, no
    inherited repro settings (a stray ``REPRO_CACHE_DIR`` would share a cache
    between runs)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    # Temporary files stay inside the checkout too.
    tmp = OUT / "work" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env["TMPDIR"] = str(tmp)
    return env


def work_dir(prefix: str) -> str:
    """A fresh scratch directory inside the checkout."""
    (OUT / "work").mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT / "work")


def remove_tree(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)


# -- statistics ---------------------------------------------------------------


def median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def quartiles(values: Sequence[float]) -> Optional[List[float]]:
    """First quartile, median and third quartile, as the steadiness check takes them."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


#: Candidate tail percentiles, highest first.
_TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def tail(values: Sequence[float], beyond: int = 10) -> Optional[Dict[str, float]]:
    """The highest percentile that still has ``beyond`` samples above it.

    Nearest-rank percentile; ``None`` when even the median has fewer than
    ``beyond`` samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in _TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= beyond:
            return {"percentile": pct, "value": ordered[rank - 1], "samples": n}
    return None


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def payload_sizes(cache_dir: str) -> List[int]:
    """Sizes of the result payloads a cache directory holds."""
    objects = Path(cache_dir) / "objects"
    return sorted(p.stat().st_size for p in objects.glob("*/*.json")) if objects.is_dir() else []


# -- host record --------------------------------------------------------------


#: The host-speed probe's time at the reference speed: the fastest state
#: observed on a 2-CPU x86_64 VM (Intel Xeon, 2.0 GHz).  Over one session
#: the same probe took up to 1.6x longer on that VM, and the program's
#: operation times followed it (correlation 0.7-0.8 across runs).
REFERENCE_PROBE_S = 0.016


def probe() -> float:
    """Time a fixed pure-Python loop (about 16 ms): one sample of host speed.

    Runs take samples at their start and end and before every set-up and
    operation, outside the timed regions.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    elapsed = time.perf_counter() - start
    if acc < 0:  # keeps the loop's result live
        raise AssertionError(acc)
    return elapsed


def host_slowdown(samples: Sequence[float]) -> float:
    """How much slower than the reference speed the host ran (median sample)."""
    return statistics.median(samples) / REFERENCE_PROBE_S


def _package_version(name: str) -> Optional[str]:
    """Installed version of an importable package, or ``None``.

    Found without importing it, so the probe neither costs the run seconds
    nor enters the peak RSS of the processes the run measures.
    """
    if importlib.util.find_spec(name) is None:
        return None
    try:
        return importlib.metadata.version(name)
    except importlib.metadata.PackageNotFoundError:
        return "unknown version"


def host_record() -> Dict[str, object]:
    """``nproc``, interpreter and numpy versions and which optional packages are present.

    scipy alone moves ``setup_s`` (its import is the first confidence
    interval's cost) and confidence-interval half-widths slightly.
    """
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": _package_version("numpy"),
        "optional_packages": {k: _package_version(k) for k in ("scipy", "hypothesis", "networkx")},
    }


def peak_child_rss_mb() -> float:
    """Largest peak RSS of any waited-for child process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- child processes ----------------------------------------------------------


def start_child(argv: Sequence[str], **kwargs) -> subprocess.Popen:
    """Start one of the program's processes in its own process group."""
    return subprocess.Popen(
        list(argv), env=child_env(), cwd=ROOT, start_new_session=True, **kwargs
    )


def stop_child(proc: subprocess.Popen, interrupt: bool = False, grace_s: float = 15.0) -> None:
    """Stop ``proc`` and everything in its process group, and wait for them.

    ``interrupt`` first sends SIGINT to the leader alone, which lets a
    server shut its worker pool down cleanly before anything is killed.
    """
    if proc.poll() is None and interrupt:
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            pass
    if proc.poll() is None:
        _signal_group(proc.pid, signal.SIGKILL)
    proc.wait()
    deadline = time.monotonic() + grace_s
    while _signal_group(proc.pid, 0) and time.monotonic() < deadline:
        _signal_group(proc.pid, signal.SIGKILL)
        time.sleep(0.05)


def _signal_group(pgid: int, sig: int) -> bool:
    """Signal a process group; ``False`` once nothing is left in it."""
    try:
        os.killpg(pgid, sig)
        return True
    except ProcessLookupError:
        return False
    except PermissionError:
        return False


def read_line(proc: subprocess.Popen, timeout_s: float) -> Optional[str]:
    """One line of a child's stdout, or ``None`` if it ends or times out first."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout_s):
            return None
    line = proc.stdout.readline()
    return line if line else None
