"""Shared fixtures for the test suite.

The default profile is *fast*: tests marked ``@pytest.mark.slow``
(multi-second simulation sweeps) are skipped unless ``--slow`` is given, so
``pytest -x -q`` stays a sub-minute gate while the heavy parallel-sweep
checks remain one flag away.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser: pytest.Parser) -> None:
    parser.addoption(
        "--slow",
        action="store_true",
        default=False,
        help="also run tests marked 'slow' (multi-second simulation sweeps)",
    )


def pytest_collection_modifyitems(config: pytest.Config, items) -> None:
    if config.getoption("--slow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test: pass --slow to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)

from repro.cluster.presets import paper_evaluation_system
from repro.cluster.system import MultiClusterSystem
from repro.network.switch import SwitchFabric
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.rng import RandomStreams


@pytest.fixture
def streams() -> RandomStreams:
    """Deterministic random streams for tests."""
    return RandomStreams(seed=12345)


@pytest.fixture
def small_case1_system() -> MultiClusterSystem:
    """A small Case-1 system (4 clusters x 8 processors) for fast tests."""
    return paper_evaluation_system(
        num_clusters=4,
        icn_technology=GIGABIT_ETHERNET,
        ecn_technology=FAST_ETHERNET,
        total_processors=32,
    )


@pytest.fixture
def paper_case1_system() -> MultiClusterSystem:
    """The paper's 256-node Case-1 platform with 16 clusters."""
    return paper_evaluation_system(
        num_clusters=16,
        icn_technology=GIGABIT_ETHERNET,
        ecn_technology=FAST_ETHERNET,
        total_processors=256,
    )


@pytest.fixture
def small_switch() -> SwitchFabric:
    """An 8-port switch matching the paper's Figure-3 example."""
    return SwitchFabric(ports=8, latency_s=10e-6)
