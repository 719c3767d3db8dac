"""End-to-end throughput benchmarks of the simulation layer.

Where ``bench_engine.py`` times the bare DES kernel, this module times what
the paper's validation actually runs: the closed-loop
:class:`MultiClusterSimulator` (both stats modes) and the analytical figure
grid.

Two entry points, like the other benches:

* under pytest (with ``pytest-benchmark``) the ``test_*`` functions give
  calibrated statistics for local optimisation work;
* as a script — ``PYTHONPATH=src python benchmarks/bench_simulator.py
  [--quick] [--output BENCH_simulator.json]`` — a dependency-free timing
  pass emits one JSON summary with ``messages_per_sec`` (and
  ``events_per_sec``) per workload for the CI ``bench`` job and
  ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from _bench_utils import pytest_or_stub

pytest = pytest_or_stub()

from repro.cluster.presets import paper_evaluation_system
from repro.core.model import ModelConfig
from repro.core.vectorized import evaluate_latency_grid
from repro.experiments.scenarios import CASE_1, PAPER_PARAMETERS, build_scenario_system
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.simulation.simulator import MultiClusterSimulator, SimulationConfig


def _closed_loop(system, messages: int, seed: int = 1, stats_mode: str = "array") -> tuple:
    """One closed-loop run; returns (measured messages, events scheduled)."""
    sim = MultiClusterSimulator(
        system, SimulationConfig(num_messages=messages, seed=seed, stats_mode=stats_mode)
    )
    result = sim.run()
    return result.measured_messages, next(sim.env._eid)


def _peak_rss_mb(stats_mode: str, messages: int) -> float:
    """Peak RSS (MiB) of one closed-loop run, measured in a fresh subprocess.

    Delegates to ``smoke_memory.py --no-cap`` so the figure is the whole
    process (interpreter + run), uncontaminated by this process's history.
    Returns NaN where the probe is unavailable (non-Linux).
    """
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "smoke_memory.py")
    env = dict(os.environ)
    src = os.path.abspath(os.path.join(os.path.dirname(script), "..", "src"))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    try:
        proc = subprocess.run(
            [sys.executable, script, "--mode", stats_mode,
             "--messages", str(messages), "--no-cap"],
            capture_output=True, text=True, timeout=600, check=True, env=env,
        )
        return float(json.loads(proc.stdout)["peak_rss_mb"])
    except (subprocess.SubprocessError, OSError, ValueError, KeyError):
        return float("nan")


def _figure_grid(cluster_counts: tuple) -> int:
    """Vectorized analytical sweep over both architectures and sizes."""
    systems = {nc: build_scenario_system(CASE_1, nc, PAPER_PARAMETERS) for nc in cluster_counts}
    pairs = [
        (systems[nc], ModelConfig(architecture=arch, message_bytes=float(mb)))
        for arch in ("non-blocking", "blocking")
        for mb in PAPER_PARAMETERS.message_sizes
        for nc in cluster_counts
    ]
    return len(evaluate_latency_grid(pairs))


@pytest.mark.benchmark(group="simulator")
def test_closed_loop_simulator_throughput(benchmark):
    """End-to-end closed-loop simulator messages/second (32-node system)."""
    system = paper_evaluation_system(4, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=32)
    measured, _ = benchmark(lambda: _closed_loop(system, 1_000))
    assert measured > 0
    benchmark.extra_info["messages_per_sec"] = 1_000 / benchmark.stats.stats.min


@pytest.mark.benchmark(group="simulator")
def test_closed_loop_online_sink_throughput(benchmark):
    """Closed-loop throughput with the bounded-memory streaming sinks."""
    system = paper_evaluation_system(4, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=32)
    measured, _ = benchmark(lambda: _closed_loop(system, 1_000, stats_mode="online"))
    assert measured > 0
    benchmark.extra_info["messages_per_sec"] = 1_000 / benchmark.stats.stats.min


@pytest.mark.benchmark(group="simulator")
def test_vectorized_figure_grid(benchmark):
    """Vectorized analytical sweep (evaluations/second over a figure grid)."""
    counts = PAPER_PARAMETERS.cluster_counts
    points = benchmark(lambda: _figure_grid(counts))
    assert points == 4 * len(counts)
    benchmark.extra_info["evals_per_sec"] = points / benchmark.stats.stats.min


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds of ``repeats`` runs of ``fn()``."""
    best = float("inf")
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_standalone(quick: bool = False, repeats: int = 3) -> dict:
    """Time every simulator workload without pytest-benchmark.

    ``quick`` shrinks run lengths for the 1-CPU CI box; throughput is
    size-independent enough for the regression gate.
    """
    messages = 400 if quick else 2_000
    grid_counts = (1, 2, 4, 8, 16) if quick else PAPER_PARAMETERS.cluster_counts

    system = paper_evaluation_system(4, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=32)

    results = []

    measured, events = _closed_loop(system, messages)  # warm-up + counts
    seconds = _best_of(lambda: _closed_loop(system, messages), repeats)
    results.append({
        "name": "simulator_closed_loop",
        "seconds": round(seconds, 6),
        "messages_per_sec": round(measured / seconds, 1),
        "events_per_sec": round(events / seconds, 1),
    })

    measured, events = _closed_loop(system, messages, stats_mode="online")
    seconds = _best_of(lambda: _closed_loop(system, messages, stats_mode="online"), repeats)
    results.append({
        "name": "simulator_closed_loop_online",
        "seconds": round(seconds, 6),
        "messages_per_sec": round(measured / seconds, 1),
        "events_per_sec": round(events / seconds, 1),
    })

    # Peak RSS per stats mode (fresh subprocess each; not a throughput, so
    # the regression gate reports it without failing on it).
    rss_messages = 20_000 if quick else 100_000
    for mode in ("array", "online"):
        results.append({
            "name": f"simulator_rss_{mode}",
            "messages": rss_messages,
            "peak_rss_mb": _peak_rss_mb(mode, rss_messages),
        })

    points = _figure_grid(grid_counts)
    seconds = _best_of(lambda: _figure_grid(grid_counts), repeats)
    results.append({
        "name": "analytical_vectorized_grid",
        "seconds": round(seconds, 6),
        "events_per_sec": round(points / seconds, 1),  # evaluations/sec, same gate
    })

    return {
        "benchmark": "bench_simulator",
        "quick": quick,
        "repeats": repeats,
        "results": results,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="Standalone simulator benchmark (JSON output).")
    parser.add_argument("--quick", action="store_true",
                        help="small run lengths for CI (a few seconds total)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions; the minimum is reported (default: 3)")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the JSON summary to this path")
    args = parser.parse_args()
    summary = run_standalone(quick=args.quick, repeats=args.repeats)
    text = json.dumps(summary, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


if __name__ == "__main__":
    main()
