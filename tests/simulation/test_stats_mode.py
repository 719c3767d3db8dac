"""End-to-end tests of the ``stats_mode`` knob on the validation simulator.

Two contracts, both acceptance criteria of the streaming observation layer:

* **parity** — the same simulation run in ``array`` and ``online`` mode
  produces identical event sequences (the sinks only observe), so count /
  min / max / simulated time agree exactly and mean / std agree to within
  1e-9 relative;
* **bounded memory** — under a hard ``RLIMIT_AS`` address-space cap the
  array sink's run length has a ceiling (it retains every observation)
  while the online sink survives at least 10x that length under the same
  cap (subprocess test via ``benchmarks/smoke_memory.py``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.cluster.presets import paper_evaluation_system
from repro.errors import ConfigurationError
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.simulation.runner import run_message_trace_task, run_simulation_task
from repro.simulation.simulator import MultiClusterSimulator, SimulationConfig

PARITY_REL = 1e-9


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _system():
    return paper_evaluation_system(
        4, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=32
    )


def _run(mode: str, messages: int = 4_000, seed: int = 11):
    config = SimulationConfig(num_messages=messages, seed=seed, stats_mode=mode)
    return MultiClusterSimulator(_system(), config).run()


class TestConfigKnob:
    def test_default_is_array(self):
        assert SimulationConfig().stats_mode == "array"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ConfigurationError, match="stats_mode"):
            SimulationConfig(stats_mode="rolling")

    def test_result_carries_mode(self):
        assert _run("array", messages=300).stats_mode == "array"
        assert _run("online", messages=300).stats_mode == "online"


class TestArrayOnlineParity:
    """Same seed, same system → the sinks observe the identical stream."""

    @pytest.fixture(scope="class")
    def pair(self):
        return _run("array"), _run("online")

    def test_counts_and_time_exact(self, pair):
        arr, onl = pair
        assert onl.measured_messages == arr.measured_messages
        assert onl.completed_messages == arr.completed_messages
        assert onl.remote_fraction == arr.remote_fraction
        # The event sequence is untouched by the sink choice.
        assert onl.simulated_time_s.hex() == arr.simulated_time_s.hex()
        assert onl.utilizations == arr.utilizations

    def test_extrema_exact(self, pair):
        arr, onl = pair
        assert onl.latency_summary["count"] == arr.latency_summary["count"]
        assert onl.latency_summary["min"].hex() == arr.latency_summary["min"].hex()
        assert onl.latency_summary["max"].hex() == arr.latency_summary["max"].hex()

    def test_means_within_1e9_relative(self, pair):
        arr, onl = pair
        assert _rel(onl.mean_latency_s, arr.mean_latency_s) < PARITY_REL
        assert _rel(onl.mean_local_latency_s, arr.mean_local_latency_s) < PARITY_REL
        assert _rel(onl.mean_remote_latency_s, arr.mean_remote_latency_s) < PARITY_REL
        assert _rel(onl.latency_summary["std"], arr.latency_summary["std"]) < PARITY_REL

    def test_percentiles_close(self, pair):
        arr, onl = pair
        for key in ("p50", "p95", "p99"):
            # Histogram-resolved, so approximate — but the bins are fine
            # (range/4096) and the estimate is clamped to the exact extrema.
            assert onl.latency_summary[key] == pytest.approx(
                arr.latency_summary[key], rel=0.05
            )

    def test_short_run_agrees_in_both_modes(self):
        # Nine measured messages: fewer than the online histogram's
        # calibration buffer, so even its percentiles are exact.
        arr = _run("array", messages=10)
        onl = _run("online", messages=10)
        assert onl.measured_messages == arr.measured_messages == 9
        assert onl.simulated_time_s.hex() == arr.simulated_time_s.hex()
        assert _rel(onl.mean_latency_s, arr.mean_latency_s) < PARITY_REL
        assert onl.latency_summary["p50"] == arr.latency_summary["p50"]


class TestTaskLayer:
    def test_simulation_task_accepts_online(self):
        config = SimulationConfig(num_messages=300, seed=3, stats_mode="online")
        result = run_simulation_task(_system(), config)
        assert result.stats_mode == "online"
        assert result.measured_messages > 0

    def test_trace_task_rows_identical_in_online_mode(self):
        """The streaming trace sink yields the array path's rows exactly."""
        arr = run_message_trace_task(
            _system(), SimulationConfig(num_messages=300, seed=3)
        )
        onl = run_message_trace_task(
            _system(), SimulationConfig(num_messages=300, seed=3, stats_mode="online")
        )
        assert onl == arr


@pytest.mark.skipif(
    not sys.platform.startswith("linux"),
    reason="RLIMIT_AS + /proc/self/status are Linux-specific",
)
class TestMemoryCap:
    """The headline claim: online mode decouples run length from RSS.

    Under one fixed address-space cap (post-import footprint + 48 MiB) the
    array sink fits 100k messages and cannot finish 400k, at least 1.3x its
    ceiling (it first fails between 250k and 300k), while the online sink
    finishes 1M — 10x the 100k success case.
    """

    SLACK_MB = "48"

    @staticmethod
    def _smoke(mode: str, messages: int, timeout: float = 300.0):
        script = os.path.join(
            os.path.dirname(__file__), "..", "..", "benchmarks", "smoke_memory.py"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(script), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, script, "--mode", mode, "--messages", str(messages),
             "--slack-mb", TestMemoryCap.SLACK_MB],
            capture_output=True, text=True, timeout=timeout, env=env,
        )
        payload = json.loads(proc.stdout) if proc.stdout.strip() else None
        return proc.returncode, payload

    def test_array_mode_has_a_ceiling_under_the_cap(self):
        code, payload = self._smoke("array", 400_000)
        assert code == 9, f"expected OOM exit 9, got {code}: {payload}"
        assert payload["error"] == "MemoryError"

    def test_array_mode_fits_at_its_ceiling(self):
        code, payload = self._smoke("array", 100_000)
        assert code == 0, f"array mode should fit 100k under the cap: {payload}"
        assert payload["ok"] is True

    def test_online_mode_survives_10x_under_the_same_cap(self):
        code, payload = self._smoke("online", 1_000_000)
        assert code == 0, f"online mode must survive 1M messages: {payload}"
        assert payload["ok"] is True
        assert payload["measured_messages"] == 900_000
