"""Performance benchmarks of the library's own machinery.

Not paper artefacts — these measure the cost of the analytical evaluation
and of the closed-loop validation simulator, at a small size and at paper
scale, so that regressions in the substrate are visible (per the HPC guide:
measure before optimising).

Two entry points:

* under pytest (with ``pytest-benchmark``) the ``test_*`` functions below
  give calibrated statistics for local optimisation work;
* as a script — ``PYTHONPATH=src python benchmarks/bench_engine.py
  [--quick] [--output BENCH_engine.json]`` — a dependency-free timing pass
  emits one JSON summary with ``events_per_sec`` per row, which is what
  the CI ``bench`` job records and feeds to
  ``benchmarks/check_regression.py``.
"""

from __future__ import annotations

import argparse
import json
import time

from _bench_utils import pytest_or_stub

pytest = pytest_or_stub()

from repro.cluster.presets import paper_evaluation_system
from repro.core.model import AnalyticalModel, ModelConfig
from repro.experiments.scenarios import CASE_1, PAPER_PARAMETERS, build_scenario_system
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.simulation.simulator import MultiClusterSimulator, SimulationConfig


@pytest.mark.benchmark(group="engine")
def test_analytical_model_evaluation_speed(benchmark):
    """One full analytical evaluation (fixed point included)."""
    system = paper_evaluation_system(16, GIGABIT_ETHERNET, FAST_ETHERNET)
    config = ModelConfig(architecture="non-blocking", message_bytes=1024)

    def evaluate():
        return AnalyticalModel(system, config).evaluate().mean_latency_s

    latency = benchmark(evaluate)
    assert latency > 0


@pytest.mark.benchmark(group="engine")
def test_closed_loop_paper_scale(benchmark):
    """The closed loop at paper scale: Case 1, C=8, 256 nodes, 10 000 messages."""
    system = build_scenario_system(CASE_1, 8, PAPER_PARAMETERS)
    config = SimulationConfig(num_messages=10_000, seed=1)

    def run_sim():
        return MultiClusterSimulator(system, config).run().measured_messages

    measured = benchmark(run_sim)
    assert measured > 0
    benchmark.extra_info["messages_per_sec"] = config.num_messages / benchmark.stats.stats.min


@pytest.mark.benchmark(group="engine")
def test_simulator_throughput_small_system(benchmark):
    """End-to-end simulator cost for a 32-node system and 1 000 messages."""
    system = paper_evaluation_system(4, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=32)
    config = SimulationConfig(num_messages=1_000, seed=1)

    def run_sim():
        return MultiClusterSimulator(system, config).run().measured_messages

    measured = benchmark(run_sim)
    assert measured > 0


def _best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds of ``repeats`` runs of ``fn()``."""
    best = float("inf")
    for _ in range(max(repeats, 1)):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_standalone(quick: bool = False, repeats: int = 3) -> dict:
    """Time every row without pytest-benchmark; one JSON-able summary.

    ``quick`` shrinks the problem sizes to keep the whole pass in a few
    seconds on a 1-CPU CI box; events/sec is size-independent enough for
    the >2x regression gate of ``check_regression.py``.
    """
    paper_messages = 2_000 if quick else 10_000
    messages = 300 if quick else 1_000

    paper_system = build_scenario_system(CASE_1, 8, PAPER_PARAMETERS)
    paper_config = SimulationConfig(num_messages=paper_messages, seed=1)

    system = paper_evaluation_system(4, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=32)
    sim_config = SimulationConfig(num_messages=messages, seed=1)
    model_system = paper_evaluation_system(16, GIGABIT_ETHERNET, FAST_ETHERNET)
    model_config = ModelConfig(architecture="non-blocking", message_bytes=1024)

    results = []
    MultiClusterSimulator(paper_system, paper_config).run()  # warm-up: first-call costs
    seconds = _best_of(lambda: MultiClusterSimulator(paper_system, paper_config).run(), repeats)
    results.append({
        "name": "closed_loop_paper_scale",
        "seconds": round(seconds, 6),
        "events_per_sec": round(paper_messages / seconds, 1),  # messages/sec, same gate
    })
    seconds = _best_of(
        lambda: MultiClusterSimulator(system, sim_config).run().measured_messages, repeats
    )
    results.append({
        "name": "simulator_small_system",
        "seconds": round(seconds, 6),
        "events_per_sec": round(messages / seconds, 1),  # messages/sec, same gate
    })
    seconds = _best_of(
        lambda: AnalyticalModel(model_system, model_config).evaluate().mean_latency_s, repeats
    )
    results.append({
        "name": "analytical_evaluation",
        "seconds": round(seconds, 6),
        "events_per_sec": round(1.0 / seconds, 1),  # evaluations/sec
    })
    return {
        "benchmark": "bench_engine",
        "quick": quick,
        "repeats": repeats,
        "results": results,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="Standalone engine benchmark (JSON output).")
    parser.add_argument("--quick", action="store_true",
                        help="small problem sizes for CI (a few seconds total)")
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
