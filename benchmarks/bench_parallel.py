"""Backend comparison benchmark for the parallel sweep engine.

Runs the same figure-style replication sweep once per execution backend —
in-process (``serial``), across a local process pool (``pool``) and through
the TCP work queue with locally spawned workers (``socket``) — asserts the
results are bit-identical everywhere, and emits a JSON summary with one
row per backend (wall-clock seconds and speedup vs serial).

On a multi-core machine the pool/socket runs should approach
``min(jobs, tasks)``-x speedup because the simulations are fully
independent; on a single-core CI box the speedup hovers around 1.0x
(fan-out overhead only) — the bit-identity assertion is what must hold
everywhere.  One untimed task runs in-process before the timed rows, so
the serial row measures steady state rather than first-call set-up; the
pool and socket rows still include starting their workers.

Run as a script for the JSON report without pytest::

    PYTHONPATH=src python benchmarks/bench_parallel.py [--jobs N] [--backends serial,pool,socket]
"""

from __future__ import annotations

import argparse
import json
import os
import time

from _bench_utils import SIM_MESSAGES, pytest_or_stub

pytest = pytest_or_stub()
from repro.cluster.presets import paper_evaluation_system
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.parallel import (
    SocketBackend,
    SweepEngine,
    SweepTask,
    resolve_jobs,
    spawn_seeds,
)
from repro.simulation.runner import replication_configs, run_simulation_task
from repro.simulation.simulator import SimulationConfig

DEFAULT_BACKENDS = ("serial", "pool", "socket")


def _sweep_tasks(num_messages: int, replications: int = 8):
    """A figure-style sweep: one task per (cluster count, replication)."""
    tasks = []
    cluster_counts = (2, 4, 8, 16)
    point_seeds = spawn_seeds(0, len(cluster_counts))
    for num_clusters, point_seed in zip(cluster_counts, point_seeds):
        system = paper_evaluation_system(
            num_clusters, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=64
        )
        config = SimulationConfig(num_messages=num_messages, seed=point_seed)
        for i, rep_config in enumerate(replication_configs(config, replications)):
            tasks.append(
                SweepTask(
                    fn=run_simulation_task,
                    args=(system, rep_config),
                    label=f"C={num_clusters} rep[{i}]",
                )
            )
    return tasks


def _engine_for(backend: str, jobs: int) -> SweepEngine:
    if backend == "serial":
        return SweepEngine(jobs=1)
    if backend == "pool":
        return SweepEngine(jobs=jobs, backend="pool")
    if backend == "socket":
        return SweepEngine(backend=SocketBackend(spawn_workers=jobs))
    raise ValueError(f"unknown backend {backend!r}")


def run_comparison(
    jobs: int | None = None,
    num_messages: int | None = None,
    backends: tuple = DEFAULT_BACKENDS,
    replications: int = 8,
) -> dict:
    """Time the identical sweep through every requested backend."""
    jobs = resolve_jobs(jobs)
    num_messages = num_messages if num_messages is not None else max(SIM_MESSAGES // 4, 500)
    tasks = _sweep_tasks(num_messages, replications=replications)
    # One untimed task in this process first: the serial row runs first
    # and would otherwise absorb the first-call cost of the simulator.
    warm_up = tasks[0]
    warm_up.fn(*warm_up.args, **warm_up.kwargs)

    rows = []
    reference = None
    serial_s = None
    identical = True
    for backend in backends:
        engine = _engine_for(backend, jobs)
        t0 = time.perf_counter()
        results = engine.run(tasks)
        elapsed = time.perf_counter() - t0
        if reference is None:
            reference = results
        elif results != reference:
            identical = False
        if backend == "serial":
            serial_s = elapsed
        rows.append(
            {
                "backend": backend,
                "workers": 1 if backend == "serial" else jobs,
                "seconds": round(elapsed, 4),
                "tasks_per_sec": round(len(tasks) / elapsed, 3) if elapsed > 0 else None,
            }
        )
    for row in rows:
        row["speedup_vs_serial"] = (
            round(serial_s / row["seconds"], 3)
            if serial_s is not None and row["seconds"] > 0
            else None
        )
    return {
        "benchmark": "bench_parallel",
        "tasks": len(tasks),
        "messages_per_task": num_messages,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "backends": rows,
        "bit_identical": identical,
    }


@pytest.mark.benchmark(group="parallel")
def test_parallel_sweep_speedup():
    """Every backend must be bit-identical to serial; timings are reported."""
    summary = run_comparison()
    print("\n" + json.dumps(summary, indent=2))
    assert summary["bit_identical"], "a backend's sweep diverged from the serial sweep"
    # Speedup is hardware-dependent (~= core count on idle multi-core boxes,
    # ~1.0 on single-core CI); only sanity-check that every backend finished.
    assert all(row["seconds"] > 0 for row in summary["backends"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=0,
                        help="pool/socket workers (0 = one per CPU core)")
    parser.add_argument("--messages", type=int, default=None,
                        help="simulated messages per task")
    parser.add_argument("--backends", type=str, default=",".join(DEFAULT_BACKENDS),
                        help="comma-separated backends to compare")
    parser.add_argument("--quick", action="store_true",
                        help="small sweep for CI: 200 messages/task, 2 replications")
    parser.add_argument("--output", type=str, default=None,
                        help="also write the JSON summary to this path")
    args = parser.parse_args()
    backends = tuple(b.strip() for b in args.backends.split(",") if b.strip())
    messages = 200 if args.quick and args.messages is None else args.messages
    summary = run_comparison(
        jobs=args.jobs,
        num_messages=messages,
        backends=backends,
        replications=2 if args.quick else 8,
    )
    summary["quick"] = args.quick
    text = json.dumps(summary, indent=2)
    print(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


if __name__ == "__main__":
    main()
