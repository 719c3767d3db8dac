"""Benchmark of the content-addressed result cache: cold vs warm.

Measures the same campaign twice against a fresh store — the *cold* run
computes both pipeline passes and fills the entry, the *warm* run is
served entirely from disk (payload load + rehydration + plan rebuild)
— plus the fixed per-lookup costs (key derivation including the code
fingerprint).  A second row, ``paper_grid_warm_hit``, times the warm hit of
a simulated campaign over the paper's nine cluster counts and two message
sizes at 300 messages: its runs have 2C+1 service centres each (C up to
256), so its payload holds thousands of per-centre values, which the small
campaign (C in {2, 4}) cannot show.  The summary is informational:
warm-hit latency is dominated by payload size, so there is no committed
baseline and no regression gate, but the JSON lands next to the gated
summaries in the CI ``bench`` job's artifacts::

    PYTHONPATH=src python benchmarks/bench_cache.py --quick --output BENCH_cache.json

The script also asserts the cache's core contract while it times it: the
warm rows must equal the cold rows exactly, and each warm run must be an
actual hit.
"""

from __future__ import annotations

import argparse
import json
import os
import tempfile
import time

from _bench_utils import pytest_or_stub

pytest = pytest_or_stub()

from repro.cache import ResultCache, code_fingerprint
from repro.experiments.pipeline import (
    ExperimentRunner,
    ExperimentSpec,
    TableCollector,
    build_plan,
)
from repro.experiments.scenarios import PAPER_PARAMETERS


def _spec(quick: bool) -> ExperimentSpec:
    return ExperimentSpec(
        scenario="case-1",
        mode="both",
        cluster_counts=[2, 4] if quick else [2, 4, 8, 16],
        message_sizes=[512.0],
        replications=1 if quick else 2,
        simulation_messages=300 if quick else 2_000,
        seed=0,
    )


def _paper_grid_spec() -> ExperimentSpec:
    return ExperimentSpec(
        scenario="case-1",
        mode="simulate",
        cluster_counts=PAPER_PARAMETERS.cluster_counts,
        message_sizes=PAPER_PARAMETERS.message_sizes,
        simulation_messages=300,
        seed=0,
    )


def _timed(fn):
    t0 = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - t0


def _cold_and_warm(cache: ResultCache, spec: ExperimentSpec, repeats: int):
    """(cold seconds, best warm seconds, payload bytes) of ``spec`` on ``cache``.

    Asserts that every warm run was a hit and rendered the cold run's rows.
    """
    runner = ExperimentRunner(cache=cache)
    cold, cold_seconds = _timed(lambda: runner.run(build_plan(spec), TableCollector()))
    warm_best = float("inf")
    for _ in range(max(repeats, 1)):
        warm, seconds = _timed(lambda: runner.run(build_plan(spec), TableCollector()))
        warm_best = min(warm_best, seconds)
        assert warm.to_rows() == cold.to_rows(), "cache hit diverged from cold run"
    stats = cache.stats()
    assert stats.hits == max(repeats, 1), "warm runs were not served from the cache"
    return cold_seconds, warm_best, stats.payload_bytes


def run_standalone(quick: bool = False, repeats: int = 3) -> dict:
    """Time cold fill, warm hit, and key derivation; one JSON-able summary."""
    spec = _spec(quick)
    results = []

    code_fingerprint()  # pay the one-off source walk outside the timings
    _, fp_seconds = _timed(lambda: code_fingerprint(refresh=True))
    results.append({"name": "code_fingerprint_refresh", "seconds": round(fp_seconds, 6)})

    with tempfile.TemporaryDirectory(prefix="bench-cache-") as root:
        cache = ResultCache(os.path.join(root, "campaign"))

        plan = build_plan(spec)
        _, key_seconds = _timed(lambda: cache.key_for_plan(plan))
        results.append({"name": "key_for_plan", "seconds": round(key_seconds, 6)})

        cold_seconds, warm_best, payload_bytes = _cold_and_warm(cache, spec, repeats)
        results.append({"name": "cold_run_and_fill", "seconds": round(cold_seconds, 6)})
        results.append({
            "name": "warm_hit",
            "seconds": round(warm_best, 6),
            "speedup_vs_cold": round(cold_seconds / warm_best, 1),
            "payload_bytes": payload_bytes,
        })

        paper = ResultCache(os.path.join(root, "paper-grid"))
        _, warm_best, payload_bytes = _cold_and_warm(paper, _paper_grid_spec(), repeats)
        results.append({
            "name": "paper_grid_warm_hit",
            "seconds": round(warm_best, 6),
            "payload_bytes": payload_bytes,
        })

    return {
        "benchmark": "bench_cache",
        "quick": quick,
        "repeats": repeats,
        "results": results,
    }


def main() -> None:
    parser = argparse.ArgumentParser(
        description="Standalone result-cache benchmark (JSON output, informational)."
    )
    parser.add_argument("--quick", action="store_true",
                        help="small campaign for CI (a few seconds total)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="warm-hit repetitions; the minimum is reported (default: 3)")
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
