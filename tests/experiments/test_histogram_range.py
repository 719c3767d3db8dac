"""Tests for the ``histogram_range`` knob (spec -> plan -> sink -> CLI).

A fixed quantile-histogram range replaces the range the online sink would
otherwise calibrate on its first 1,024 observations.  The knob threads from
``ExperimentSpec`` through ``build_plan`` and ``SimulationConfig`` into
the ``LatencySink``'s main :class:`~repro.stats.sinks.OnlineMonitor`.
"""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ConfigurationError, ExperimentError, SimulationError
from repro.experiments.pipeline import ExperimentSpec, build_plan
from repro.simulation.components import LatencySink
from repro.simulation.simulator import SimulationConfig
from repro.stats.modes import validate_histogram_range


def online_spec(**overrides):
    settings = dict(
        scenario="case-1",
        mode="simulate",
        cluster_counts=(2,),
        message_sizes=(512,),
        simulation_messages=200,
        stats_mode="online",
        histogram_range=(0.0, 0.5),
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


# ---------------------------------------------------------------- validation


class TestValidateHistogramRange:
    def test_coerces_to_float_pair(self):
        assert validate_histogram_range((0, 2)) == (0.0, 2.0)
        assert validate_histogram_range(["0.5", "1.5"]) == (0.5, 1.5)

    @pytest.mark.parametrize("bad", [None, 1.0, (1.0,), (1.0, 2.0, 3.0), ("a", "b")])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            validate_histogram_range(bad)

    @pytest.mark.parametrize("bad", [(0.0, 0.0), (2.0, 1.0), (0.0, float("inf"))])
    def test_rejects_degenerate_bounds(self, bad):
        with pytest.raises(ValueError):
            validate_histogram_range(bad)


# ---------------------------------------------------------------- spec level


class TestSpecHistogramRange:
    def test_round_trips_through_json(self):
        spec = online_spec()
        assert ExperimentSpec.from_json_text(spec.to_json_text()) == spec
        assert spec.histogram_range == (0.0, 0.5)

    def test_coerced_to_float_tuple(self):
        spec = online_spec(histogram_range=[0, 1])
        assert spec.histogram_range == (0.0, 1.0)

    def test_rejected_with_array_stats_mode(self):
        with pytest.raises(ConfigurationError, match="stats_mode"):
            online_spec(stats_mode="array")

    def test_malformed_range_is_an_experiment_error(self):
        with pytest.raises(ExperimentError):
            online_spec(histogram_range=(1.0, 1.0))

    def test_plan_threads_range_into_simulation_config(self):
        plan = build_plan(online_spec())
        assert plan.simulation is not None
        configs = [task.args[1] for task in plan.simulation.tasks]
        assert configs, "simulate-mode plan should carry simulation configs"
        assert all(config.histogram_range == (0.0, 0.5) for config in configs)


# ---------------------------------------------------------------- config level


class TestSimulationConfigHistogramRange:
    def test_rejected_with_array_stats_mode(self):
        with pytest.raises(ConfigurationError, match="stats_mode"):
            SimulationConfig(histogram_range=(0.0, 1.0))

    def test_malformed_range_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError, match="high > low"):
            SimulationConfig(stats_mode="online", histogram_range=(1.0, 1.0))

    def test_accepted_with_online_mode(self):
        config = SimulationConfig(stats_mode="online", histogram_range=(0, 1))
        assert config.histogram_range == (0.0, 1.0)


# ---------------------------------------------------------------- sink level


class TestLatencySinkHistogramRange:
    def test_fixed_range_reaches_the_online_monitor(self):
        sink = LatencySink(
            target_messages=100,
            stats_mode="online",
            histogram_range=(0.0, 2.0),
        )
        histogram = sink.latencies._histogram
        assert histogram is not None, "fixed range should build the histogram up front"
        assert (histogram.low, histogram.high) == (0.0, 2.0)

    def test_rejected_with_array_mode(self):
        with pytest.raises(SimulationError, match="online"):
            LatencySink(
                target_messages=100,
                histogram_range=(0.0, 2.0),
            )


# ---------------------------------------------------------------- CLI level


class TestCliHistogramRange:
    def test_run_accepts_histogram_range(self, capsys):
        code = main([
            "run", "case-1", "--mode", "simulate", "--clusters", "2",
            "--sizes", "512", "--messages", "200",
            "--stats-mode", "online", "--histogram-range", "0:1",
        ])
        assert code == 0
        assert "case-1" in capsys.readouterr().out

    def test_rejects_malformed_flag(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "run", "case-1", "--mode", "simulate",
                "--histogram-range", "nonsense",
            ])
        assert "LO:HI" in capsys.readouterr().err

    def test_rejects_array_mode_combination(self):
        # Default stats_mode is "array"; combining it with a fixed range is
        # the designed one-line user error, not a traceback.
        with pytest.raises(SystemExit, match="stats_mode"):
            main([
                "run", "case-1", "--mode", "simulate", "--clusters", "2",
                "--sizes", "512", "--messages", "200",
                "--histogram-range", "0:1",
            ])

    def test_spec_file_carries_histogram_range(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(online_spec().to_json_text())
        assert main(["run", str(spec_path)]) == 0
