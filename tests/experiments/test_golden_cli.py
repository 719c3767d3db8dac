"""Golden-fixture bit-identity tests for every CLI command and driver.

The fixtures under ``golden/`` were captured *before* the declarative
pipeline refactor (PR 5), so these tests prove the refactored drivers —
``figure``, ``ratio``, ``validate``, ``ablation`` and ``report`` — produce
byte-identical CLI output and ``float.hex()``-exact driver results, on the
serial backend and (for the simulating commands) the pool and socket
backends too.

Re-seed the fixtures only after an intentional behaviour change, with
``PYTHONPATH=src python tests/experiments/golden/regen.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

import pytest

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
sys.path.insert(0, GOLDEN_DIR)
from regen import CLI_CASES, run_cli_case  # noqa: E402

sys.path.pop(0)


def golden_text(name: str) -> str:
    with open(os.path.join(GOLDEN_DIR, name), "r", encoding="utf-8") as handle:
        return handle.read()


def golden_json() -> dict:
    with open(os.path.join(GOLDEN_DIR, "driver_results.json"), "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_case(name: str, tmp_path, extra_args=()) -> str:
    argv = list(CLI_CASES[name]) + list(extra_args)
    out_path = None
    if "{out}" in argv:
        out_path = str(tmp_path / f"artifact{os.path.splitext(name)[1]}")
    # Progress lines go to stderr; swallow them to keep test output clean.
    with contextlib.redirect_stderr(io.StringIO()):
        return run_cli_case(argv, out_path)


class TestCliGoldenSerial:
    """Every CLI case byte-identical to its pre-refactor fixture (serial)."""

    @pytest.mark.parametrize("name", sorted(CLI_CASES))
    def test_case_matches_fixture(self, name, tmp_path):
        assert run_case(name, tmp_path) == golden_text(name)


class TestCliGoldenOtherBackends:
    """Simulation-bearing commands stay bit-identical on pool and socket."""

    def test_figure6_sim_pool(self, tmp_path):
        text = run_case(
            "cli_figure6_sim.csv", tmp_path, ["--backend", "pool", "--jobs", "2"]
        )
        assert text == golden_text("cli_figure6_sim.csv")

    def test_figure6_sim_socket(self, tmp_path):
        text = run_case(
            "cli_figure6_sim.csv", tmp_path, ["--backend", "socket", "--workers", "2"]
        )
        assert text == golden_text("cli_figure6_sim.csv")

    def test_validate_pool(self, tmp_path, capsys):
        text = run_case("cli_validate.txt", tmp_path, ["--backend", "pool", "--jobs", "2"])
        assert text == golden_text("cli_validate.txt")


class TestDriverGoldenResults:
    """float.hex()-exact driver results (independent of table formatting)."""

    def test_figure6_simulation_hex_exact(self):
        from repro.experiments.figures import run_figure

        golden = golden_json()["figure6"]
        fig = run_figure(
            6, include_simulation=True, cluster_counts=[2, 4], message_sizes=[512],
            simulation_messages=400, replications=2, seed=0,
        )
        assert len(fig.points) == len(golden)
        for point, want in zip(fig.points, golden):
            assert point.num_clusters == want["clusters"]
            assert point.analysis_latency_ms.hex() == want["analysis_ms"]
            assert point.simulation_latency_ms.hex() == want["simulation_ms"]

    def test_ratio_hex_exact(self):
        from repro.experiments.blocking_ratio import run_blocking_ratio_study

        golden = golden_json()["ratio"]
        study = run_blocking_ratio_study(cluster_counts=[1, 4, 16, 64, 256])
        assert len(study.points) == len(golden)
        for point, want in zip(study.points, golden):
            assert point.scenario == want["scenario"]
            assert point.nonblocking_latency_ms.hex() == want["nonblocking_ms"]
            assert point.blocking_latency_ms.hex() == want["blocking_ms"]

    @pytest.mark.parametrize(
        "study_name",
        ["switch-ports", "switch-latency", "generation-rate", "message-size",
         "fixed-point-vs-mva"],
    )
    def test_ablations_hex_exact(self, study_name):
        from repro.experiments import ablations

        factories = {
            "switch-ports": ablations.sweep_switch_ports,
            "switch-latency": ablations.sweep_switch_latency,
            "generation-rate": ablations.sweep_generation_rate,
            "message-size": ablations.sweep_message_size,
            "fixed-point-vs-mva": ablations.fixed_point_vs_exact_mva,
        }
        golden = golden_json()["ablations"][study_name]
        study = factories[study_name]()
        assert len(study.rows) == len(golden)
        for row, want in zip(study.rows, golden):
            assert row.value.hex() == want["value"]
            assert row.mean_latency_ms.hex() == want["mean_latency_ms"]
            for key, value in row.extra.items():
                got = value.hex() if isinstance(value, float) else value
                assert got == want["extra"][key], (study_name, key)

    def test_validate_hex_exact(self):
        from repro.core.model import ModelConfig
        from repro.experiments.scenarios import SCENARIOS, build_scenario_system
        from repro.simulation.runner import validate_against_analysis
        from repro.simulation.simulator import SimulationConfig

        golden = golden_json()["validate"]
        system = build_scenario_system(SCENARIOS["case-1"], 4)
        point = validate_against_analysis(
            system,
            ModelConfig(architecture="non-blocking", message_bytes=512.0,
                        generation_rate=0.25),
            SimulationConfig(architecture="non-blocking", message_bytes=512.0,
                             generation_rate=0.25, num_messages=500),
            replications=2,
        )
        assert point.analysis_latency_ms.hex() == golden["analysis_ms"]
        assert point.simulation_latency_ms.hex() == golden["simulation_ms"]
