"""Coverage gate: the replication interval covers the exact mean at 95%.

Every interval the tool reports is a Student-t interval over independent
replications (``ReplicatedResult.latency_interval``).  Its contract is that
a 95% interval contains the true mean 95% of the time.  At C=1 every
message visits only the cluster's ICN1, so the closed network is a single
class of 256 processors cycling between thinking (a delay station with
mean 1/λ) and one FIFO exponential server: exact mean value analysis gives
the true mean latency with no noise.

Each point builds 400 intervals of 3 replications from fixed, disjoint
master seeds and asserts coverage >= 0.95 - 3 SE, SE = sqrt(0.95 * 0.05 /
400), i.e. >= 0.9173.  A 95% interval over one run's 20 batch means failed
this bound at all three points (87-91% on 400 runs each), so no such
interval is reported.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.scenarios import CASE_1, CASE_2, PAPER_PARAMETERS, build_scenario_system
from repro.network.models import build_network_model
from repro.parallel import SweepEngine, SweepTask
from repro.queueing.mva import MVAResult, MVAStation, mean_value_analysis
from repro.simulation.runner import (
    aggregate_replications,
    replication_configs,
    run_simulation_task,
)
from repro.simulation.simulator import SimulationConfig

INTERVALS = 400
REPLICATIONS = 3
MESSAGE_BYTES = 4096
CONFIDENCE = 0.95
#: Nominal coverage minus three standard errors of a 400-interval estimate.
COVERAGE_FLOOR = CONFIDENCE - 3.0 * math.sqrt(CONFIDENCE * (1.0 - CONFIDENCE) / INTERVALS)

#: (case, λ, master seeds): ICN1 utilization 0.89, 1.00 and 1.00.  Each
#: master seed spawns its replications' seeds, so the intervals are
#: independent.
POINTS = {
    "case-1 lambda=0.625": (CASE_1, 0.625, range(5000, 5400)),
    "case-1 lambda=1.0": (CASE_1, 1.0, range(6000, 6400)),
    "case-2 lambda=0.25": (CASE_2, 0.25, range(7000, 7400)),
}


def exact_solution(system, rate: float) -> MVAResult:
    """Exact C=1 network: single-class MVA over think + ICN1."""
    cluster = system.clusters[0]
    service = build_network_model(
        "blocking", cluster.icn_technology, system.switch, cluster.num_processors
    ).service_time(MESSAGE_BYTES)
    stations = [
        MVAStation("think", 1.0, 1.0 / rate, is_delay=True),
        MVAStation("icn1", 1.0, service),
    ]
    return mean_value_analysis(stations, cluster.num_processors)


#: The referee at each point: exact mean latency (ms) and ICN1 utilization.
REFEREE = {
    "case-1 lambda=0.625": (42.832, 0.89),
    "case-1 lambda=1.0": (458.57, 1.00),
    "case-2 lambda=0.25": (8805.7, 1.00),
}


@pytest.mark.parametrize("point", sorted(POINTS))
def test_referee_is_the_single_class_network(point):
    case, rate, _ = POINTS[point]
    system = build_scenario_system(case, 1, PAPER_PARAMETERS)
    latency_ms, utilization = REFEREE[point]
    exact = exact_solution(system, rate)
    assert exact.residence_time("icn1") * 1e3 == pytest.approx(latency_ms, rel=1e-4)
    assert exact.utilization("icn1") == pytest.approx(utilization, abs=5e-3)
    # Little's law over the whole cycle: X = N / (Z + R).
    assert exact.throughput == pytest.approx(256 / (1.0 / rate + latency_ms / 1e3), rel=1e-4)


@pytest.mark.slow
@pytest.mark.parametrize("point", sorted(POINTS))
def test_replication_interval_covers_the_exact_mean(point):
    case, rate, seeds = POINTS[point]
    assert len(seeds) == INTERVALS
    system = build_scenario_system(case, 1, PAPER_PARAMETERS)
    assert system.num_clusters == 1 and system.total_processors == 256
    exact = exact_solution(system, rate).residence_time("icn1")

    masters = [
        SimulationConfig(
            architecture="blocking",
            message_bytes=float(MESSAGE_BYTES),
            generation_rate=rate,
            num_messages=10_000,
            seed=seed,
        )
        for seed in seeds
    ]
    tasks = [
        SweepTask(fn=run_simulation_task, args=(system, config), label=f"seed={config.seed}")
        for master in masters
        for config in replication_configs(master, REPLICATIONS)
    ]
    # One pool for the whole point, not one per interval.
    results = SweepEngine(jobs=2).run(tasks)

    above = below = 0
    for i in range(INTERVALS):
        replicated = aggregate_replications(results[REPLICATIONS * i:REPLICATIONS * (i + 1)])
        interval = replicated.latency_interval
        assert interval.confidence == CONFIDENCE
        if exact > interval.upper:
            above += 1
        elif exact < interval.lower:
            below += 1
    coverage = (INTERVALS - above - below) / INTERVALS
    assert coverage >= COVERAGE_FLOOR, (
        f"{point}: the replication interval covered the exact mean "
        f"{exact * 1e3:.6g} ms in {coverage:.2%} of {INTERVALS} intervals "
        f"(floor {COVERAGE_FLOOR:.4f}); exact above {above}, below {below}"
    )
