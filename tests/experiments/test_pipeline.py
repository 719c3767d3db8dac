"""Tests for the declarative experiment pipeline and the scenario registry."""

from __future__ import annotations

import contextlib
import io
import json

import pytest

from repro.errors import ConfigurationError, ExperimentError
from repro.experiments.pipeline import (
    ExperimentRunner,
    ExperimentSpec,
    TableCollector,
    build_plan,
    smoke_spec,
)
from repro.experiments.scenarios import (
    PAPER_PARAMETERS,
    SCENARIO_REGISTRY,
    build_scenario_system,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.parallel import spawn_seeds
from repro.stats.intervals import mean_confidence_interval


def cli(*argv):
    """Run the CLI capturing stdout; returns (exit_code, stdout)."""
    from repro.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


class TestExperimentSpec:
    def test_json_round_trip_is_value_exact(self):
        spec = ExperimentSpec(
            scenario="case-1", mode="both", architecture="blocking",
            cluster_counts=(2, 4), message_sizes=(512, 1024),
            generation_rates=(0.25, 1.0), replications=3,
            simulation_messages=777, seed=42, switch_ports=48,
            switch_latency_us=5.0,
        )
        assert ExperimentSpec.from_json_text(spec.to_json_text()) == spec
        # A spec built from JSON lists equals one built from tuples.
        assert ExperimentSpec.from_json(json.loads(spec.to_json_text())) == spec

    def test_defaults_round_trip_without_optional_fields(self):
        spec = ExperimentSpec(scenario="hotspot", mode="simulate")
        data = spec.to_json()
        assert "cluster_counts" not in data  # None fields are omitted
        assert ExperimentSpec.from_json(data) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ExperimentError, match="unknown spec field"):
            ExperimentSpec.from_json({"scenario": "case-1", "clusters": [2]})

    @pytest.mark.parametrize("data", [["case-1"], "case-1", None])
    def test_non_object_spec_rejected(self, data):
        with pytest.raises(ExperimentError, match="a spec must be a JSON object"):
            ExperimentSpec.from_json(data)

    def test_missing_scenario_rejected(self):
        with pytest.raises(ExperimentError, match="scenario"):
            ExperimentSpec.from_json({"mode": "analysis"})

    def test_invalid_values_rejected(self):
        with pytest.raises(ExperimentError, match="mode"):
            ExperimentSpec(scenario="case-1", mode="dry-run")
        with pytest.raises(ExperimentError, match="replications"):
            ExperimentSpec(scenario="case-1", replications=0)
        with pytest.raises(ExperimentError, match="cluster_counts"):
            ExperimentSpec(scenario="case-1", cluster_counts=(0,))
        with pytest.raises(ExperimentError, match="message_sizes"):
            ExperimentSpec(scenario="case-1", message_sizes=())
        with pytest.raises(ExperimentError, match="generation_rates"):
            ExperimentSpec(scenario="case-1", generation_rates=(-1.0,))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("generation_rates", "[NaN]"),
            ("message_sizes", "[NaN]"),
            ("switch_latency_us", "NaN"),
            ("message_sizes", "[Infinity]"),
            ("generation_rates", "[Infinity]"),
            ("message_sizes", '["512"]'),
            ("message_sizes", "512"),
            ("cluster_counts", "4"),
            ("switch_latency_us", '"3"'),
            ("generation_rates", "[true]"),
            ("message_sizes", "[-Infinity]"),
            ("generation_rates", "[-Infinity]"),
            ("switch_latency_us", "Infinity"),
            ("switch_latency_us", "-Infinity"),
            ("switch_latency_us", "true"),
            ("switch_latency_us", "[3]"),
            ("message_sizes", "[null]"),
            ("message_sizes", "[false]"),
            ("message_sizes", "[[512]]"),
            ("generation_rates", '["0.25"]'),
            ("generation_rates", "0.25"),
            ("generation_rates", '{"rate": 0.25}'),
            ("message_sizes", "[512, NaN]"),
        ],
    )
    def test_non_finite_or_non_numeric_values_rejected(self, field, value):
        """JSON carries NaN, Infinity, bools and strings; none is a number
        the simulator can run (a NaN rate or size never finishes)."""
        text = f'{{"scenario": "case-1", "{field}": {value}}}'
        with pytest.raises(ExperimentError, match=field):
            ExperimentSpec.from_json_text(text)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"scenario": ""}, "scenario"),
            ({"scenario": "case-1", "stats_mode": "sampled"}, "stats_mode"),
            ({"scenario": "case-1", "simulation_messages": 0}, "simulation_messages"),
            ({"scenario": "case-1", "switch_ports": 1}, "switch_ports"),
            ({"scenario": "case-1", "switch_latency_us": -0.5}, "switch_latency_us"),
        ],
    )
    def test_out_of_range_scalars_rejected(self, kwargs, match):
        with pytest.raises(ExperimentError, match=match):
            ExperimentSpec(**kwargs)

    def test_zero_switch_latency_is_accepted(self):
        assert ExperimentSpec(scenario="case-1", switch_latency_us=0).switch_latency_us == 0

    @pytest.mark.parametrize(
        "failures",
        [
            '{"mtbf_s": NaN, "mttr_s": 1.0}',
            '{"mtbf_s": 5.0, "mttr_s": NaN}',
            '{"mtbf_s": Infinity, "mttr_s": 1.0}',
            '{"mtbf_s": 5.0, "mttr_s": 1.0, "failure_shape": NaN}',
            '{"mtbf_s": "5", "mttr_s": 1.0}',
            '{"mtbf_s": true, "mttr_s": 1.0}',
        ],
    )
    def test_malformed_fault_numbers_rejected(self, failures):
        """A NaN MTBF used to run as if nothing ever failed, and a NaN MTTR
        reported availability 1.0; both are refused before any run."""
        text = f'{{"scenario": "case-1", "mode": "simulate", "failures": {failures}}}'
        with pytest.raises(ConfigurationError, match="must be a positive finite number"):
            ExperimentSpec.from_json_text(text)

    def test_invalid_json_text_rejected(self):
        with pytest.raises(ExperimentError, match="invalid spec JSON"):
            ExperimentSpec.from_json_text("{not json")


class TestRegistry:
    def test_paper_cases_registered(self):
        assert {"case-1", "case-2"} <= set(scenario_names())
        assert get_scenario("case-1").paper and get_scenario("case-2").paper

    def test_at_least_four_non_paper_scenarios(self):
        non_paper = [s for s in SCENARIO_REGISTRY.values() if not s.paper]
        assert len(non_paper) >= 4

    def test_building_blocks_are_exercised(self):
        """The registry composes destinations, arrivals and heterogeneous shapes."""
        scenarios = SCENARIO_REGISTRY.values()
        assert any(s.destination_policy is not None for s in scenarios)
        assert any(s.arrival_factory is not None for s in scenarios)
        assert any(s.default_architecture == "blocking" for s in scenarios)
        assert any(not s.supports_analysis for s in scenarios)

    def test_every_scenario_builds_its_smoke_systems(self):
        for scenario in SCENARIO_REGISTRY.values():
            for count in scenario.smoke_cluster_counts:
                system = scenario.system(count)
                assert system.num_clusters == count

    def test_unknown_scenario_lookup_names_the_registry(self):
        with pytest.raises(ExperimentError, match="registered scenarios"):
            get_scenario("no-such-scenario")

    def test_duplicate_registration_rejected(self):
        existing = get_scenario("case-1")
        with pytest.raises(ExperimentError, match="already registered"):
            register_scenario(existing)
        # replace=True is the escape hatch (restore the same object).
        assert register_scenario(existing, replace=True) is existing

    def test_describe_names_the_custom_workload(self):
        assert get_scenario("bursty-hyper").describe().endswith("[custom arrivals]")
        assert get_scenario("hotspot").describe().endswith("[custom destinations]")
        assert "[" not in get_scenario("case-1").describe()

    def test_het_nics_needs_two_clusters(self):
        with pytest.raises(ExperimentError, match="num_clusters >= 2"):
            get_scenario("het-nics").system(1)

    def test_het_nics_composes_link_matrix(self):
        system = get_scenario("het-nics").system(4)
        technologies = {c.icn_technology.name for c in system.clusters}
        assert len(technologies) > 1  # genuinely per-cluster heterogeneous
        assert system.icn2_technology.name == "mixed-ge-fe"
        # The effective ICN2 parameters sit between the two NIC extremes.
        from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET

        assert (
            GIGABIT_ETHERNET.beta
            < system.icn2_technology.beta
            < FAST_ETHERNET.beta * 1.01
        )

    @pytest.mark.parametrize(
        "clusters, alpha, beta",
        [
            (2, "0x1.4f8b588e368f1p-14", "0x1.990b64a39cc00p-24"),
            (4, "0x1.3a92a30553262p-14", "0x1.5c7c50f93bc00p-24"),
            (8, "0x1.3494b84bed9a7p-14", "0x1.4b2edda3fb800p-24"),
            (32, "0x1.311a0ef90d7adp-14", "0x1.4122ed40ef000p-24"),
        ],
    )
    def test_het_nics_pairwise_average_is_pinned(self, clusters, alpha, beta):
        """The effective ICN2 α and β of het-nics's alternating GE/FE NICs,
        bit for bit (the values an n x n link matrix's off-diagonal mean
        gave at these cluster counts)."""
        from repro.experiments.scenarios import _mixed_nic_parameters
        from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET

        nics = [GIGABIT_ETHERNET if i % 2 == 0 else FAST_ETHERNET for i in range(clusters)]
        got = _mixed_nic_parameters(nics)
        assert (got[0].hex(), got[1].hex()) == (alpha, beta)

    def test_het_nics_pairwise_average_ignores_node_order(self):
        """Correctly rounded sums: any order of the same NICs gives the same
        α and β, bit for bit."""
        from repro.experiments.scenarios import _mixed_nic_parameters
        from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET

        ge, fe = GIGABIT_ETHERNET, FAST_ETHERNET
        reference = _mixed_nic_parameters([ge, fe, ge, fe, fe, ge, ge])
        for nics in ([ge, ge, ge, ge, fe, fe, fe], [fe, fe, fe, ge, ge, ge, ge]):
            assert _mixed_nic_parameters(nics) == reference

    @pytest.mark.parametrize("clusters", [2, 3, 16])
    def test_het_nics_of_one_technology_is_that_technology(self, clusters):
        from repro.experiments.scenarios import _mixed_nic_parameters
        from repro.network.technologies import GIGABIT_ETHERNET

        alpha, beta = _mixed_nic_parameters([GIGABIT_ETHERNET] * clusters)
        assert alpha == pytest.approx(GIGABIT_ETHERNET.alpha, rel=1e-12)
        assert beta == pytest.approx(GIGABIT_ETHERNET.beta, rel=1e-9)

    def test_llnl_shape_is_fixed(self):
        with pytest.raises(ExperimentError, match="4-cluster"):
            get_scenario("llnl-like").system(2)


class TestBuildPlan:
    def test_grid_order_and_seeding_match_figure_convention(self):
        spec = ExperimentSpec(
            scenario="case-1", mode="both", cluster_counts=(2, 4),
            message_sizes=(512, 1024), simulation_messages=100, seed=9,
            replications=2,
        )
        plan = build_plan(spec)
        grid = [(p.message_bytes, p.num_clusters) for p in plan.points]
        assert grid == [(512, 2), (512, 4), (1024, 2), (1024, 4)]
        # Point master seeds are SeedSequence-spawned from the spec seed in
        # grid order — the exact convention of the historical figure driver.
        point_seeds = spawn_seeds(9, len(plan.points))
        from repro.simulation.runner import replication_configs
        from repro.simulation.simulator import SimulationConfig

        expected = []
        for point, seed in zip(plan.points, point_seeds):
            master = SimulationConfig(
                architecture="non-blocking", message_bytes=float(point.message_bytes),
                generation_rate=0.25, num_messages=100, seed=seed,
            )
            expected.extend(c.seed for c in replication_configs(master, 2))
        assert [t.args[1].seed for t in plan.simulation.tasks] == expected

    def test_simulation_tasks_are_built_once_on_first_access(self, monkeypatch):
        """``build_plan`` spawns no seeds; the first read of
        ``plan.simulation`` builds the task list and later reads reuse it."""
        import repro.parallel.seeding as seeding
        # Bound before the patch: the replication seeds stay uncounted, and
        # the runner never keeps the counting function.
        import repro.simulation.runner  # noqa: F401

        calls = []

        def counting_spawn(seed, count):
            calls.append((seed, count))
            return spawn_seeds(seed, count)

        monkeypatch.setattr(seeding, "spawn_seeds", counting_spawn)
        spec = ExperimentSpec(
            scenario="case-1", mode="both", cluster_counts=(2, 4),
            message_sizes=(512,), simulation_messages=100, seed=5,
        )
        plan = build_plan(spec)
        assert plan.include_simulation
        assert calls == []
        first = plan.simulation
        assert calls == [(5, 2)]
        assert len(first.tasks) == len(plan.points) * spec.replications
        assert plan.simulation is first
        assert calls == [(5, 2)]

    def test_analysis_only_plan_has_no_simulation_pass(self):
        spec = ExperimentSpec(
            scenario="case-1", mode="analysis", cluster_counts=(2,), message_sizes=(512,),
        )
        plan = build_plan(spec)
        assert plan.include_analysis and not plan.include_simulation
        assert plan.simulation is None

    def test_analysis_requested_for_simulate_only_scenario_fails(self):
        with pytest.raises(ExperimentError, match="does not support"):
            build_plan(ExperimentSpec(scenario="hotspot", mode="both"))

    def test_switch_overrides_apply(self):
        spec = ExperimentSpec(
            scenario="case-1", mode="analysis", cluster_counts=(4,),
            message_sizes=(1024,), switch_ports=48, switch_latency_us=20.0,
        )
        plan = build_plan(spec)
        system = plan.systems[4]
        assert system.switch.ports == 48
        assert system.switch.latency_s == pytest.approx(20e-6)

    def test_scenario_workload_reaches_the_tasks(self):
        spec = ExperimentSpec(
            scenario="hotspot", mode="simulate", cluster_counts=(2,),
            message_sizes=(512,), simulation_messages=50,
        )
        plan = build_plan(spec)
        from repro.workload.destinations import HotspotDestinations

        for task in plan.simulation.tasks:
            assert isinstance(task.args[2], HotspotDestinations)

    def test_arrival_factory_reaches_the_tasks(self):
        spec = ExperimentSpec(
            scenario="bursty-erlang", mode="simulate", cluster_counts=(2,),
            message_sizes=(512,), simulation_messages=50,
        )
        plan = build_plan(spec)
        from repro.workload.arrivals import ErlangArrivals

        for task in plan.simulation.tasks:
            factory = task.args[3]
            assert isinstance(factory(0.25), ErlangArrivals)


class TestEngineMode:
    """The retired engine_mode knob: saved specs still load, the CLI flag is gone."""

    @staticmethod
    def _spec_json(**extra):
        return {
            "scenario": "case-1", "mode": "simulate", "cluster_counts": [2],
            "message_sizes": [512], "simulation_messages": 50, "seed": 11, **extra,
        }

    def test_json_round_trip(self):
        """A legacy key warns and is dropped: the spec equals a keyless one."""
        plain = ExperimentSpec.from_json(self._spec_json())
        for mode in ("auto", "des", "vectorized", None):
            with pytest.warns(DeprecationWarning, match="engine_mode"):
                spec = ExperimentSpec.from_json(self._spec_json(engine_mode=mode))
            assert spec == plain
            assert "engine_mode" not in spec.to_json()
            assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_legacy_key_keeps_the_cache_key(self, tmp_path):
        from repro.cache import ResultCache

        cache = ResultCache(str(tmp_path / "cache"))
        with pytest.warns(DeprecationWarning):
            legacy = ExperimentSpec.from_json_text(
                json.dumps(self._spec_json(engine_mode="des"))
            )
        key = cache.key_for_plan(build_plan(ExperimentSpec.from_json(self._spec_json())))
        assert key is not None
        assert cache.key_for_plan(build_plan(legacy)) == key

    def test_auto_and_des_results_identical(self):
        """Specs written with either legacy mode compute the same numbers."""
        results = []
        for mode in ("auto", "des"):
            with pytest.warns(DeprecationWarning):
                spec = ExperimentSpec.from_json(self._spec_json(engine_mode=mode))
            result = ExperimentRunner().run(build_plan(spec))
            results.append([p.simulation_latency_ms for p in result.points])
        assert results[0] == results[1]

    def test_saved_spec_with_legacy_key_still_runs(self, tmp_path):
        path = tmp_path / "SPEC.json"
        path.write_text(json.dumps(self._spec_json(engine_mode="vectorized")))
        with pytest.warns(DeprecationWarning):
            code, out = cli("run", str(path))
        assert code == 0
        assert "case-1" in out

    def test_cli_engine_mode_override(self):
        """The --engine-mode override is gone: argparse rejects it."""
        with pytest.raises(SystemExit) as excinfo:
            cli("run", "case-1", "--smoke", "--engine-mode", "des")
        assert excinfo.value.code == 2


class TestRunnerEndToEnd:
    def test_analysis_matches_scalar_model(self):
        from repro.core.model import AnalyticalModel, ModelConfig
        from repro.experiments.scenarios import CASE_2

        spec = ExperimentSpec(
            scenario="case-2", mode="analysis", architecture="blocking",
            cluster_counts=(2, 8), message_sizes=(1024,),
        )
        result = ExperimentRunner().run(build_plan(spec))
        for point in result.points:
            system = build_scenario_system(CASE_2, point.num_clusters, PAPER_PARAMETERS)
            report = AnalyticalModel(
                system,
                ModelConfig(architecture="blocking", message_bytes=1024.0,
                            generation_rate=0.25),
            ).evaluate()
            assert point.analysis_latency_ms == report.mean_latency_ms

    @pytest.mark.parametrize("mode", ["simulate", "both"])
    @pytest.mark.parametrize("replications", [1, 2])
    def test_point_interval_needs_two_replications(self, replications, mode):
        spec = ExperimentSpec(
            scenario="case-1", mode=mode, cluster_counts=(2,),
            message_sizes=(512,), replications=replications, simulation_messages=120,
        )
        outcome = ExperimentRunner().run_outcome(build_plan(spec))
        (replicated,) = outcome.replicated
        (point,) = TableCollector().collect(outcome).points
        row = point.as_dict()
        columns = ["clusters", "message_bytes", "rate"]
        columns += ["analysis_ms", "simulation_ms", "rel_error"] if mode == "both" else [
            "simulation_ms"
        ]
        if replications == 1:
            assert point.simulation_ci_half_width_ms is None
            assert list(row) == columns
        else:
            means = [run.mean_latency_s for run in replicated.per_replication]
            half_width = mean_confidence_interval(means).half_width
            assert point.simulation_ci_half_width_ms == half_width * 1e3
            assert point.simulation_ci_half_width_ms > 0
            # The interval is printed right after the simulated mean.
            assert list(row) == columns + ["ci_half_width_ms"]
            assert row["ci_half_width_ms"] == point.simulation_ci_half_width_ms

    def test_serial_and_pool_are_bit_identical(self):
        spec = smoke_spec("bursty-hyper", messages=150)
        serial = ExperimentRunner().run(build_plan(spec))
        pooled = ExperimentRunner(jobs=2).run(build_plan(spec))
        assert [p.simulation_latency_ms for p in serial.points] == [
            p.simulation_latency_ms for p in pooled.points
        ]

    @pytest.mark.parametrize(
        "name", [s.name for s in SCENARIO_REGISTRY.values() if not s.paper]
    )
    def test_every_non_paper_scenario_runs_end_to_end(self, name):
        result = ExperimentRunner().run(build_plan(smoke_spec(name, messages=60)))
        assert result.points
        for point in result.points:
            assert point.simulation_latency_ms is None or point.simulation_latency_ms > 0
            if get_scenario(name).supports_analysis:
                assert point.analysis_latency_ms > 0


class TestRunCliVerb:
    def test_run_spec_json_file(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        smoke_spec("localized-linear", messages=60).to_file(spec_path)
        code, out = cli("run", str(spec_path), "--csv", str(tmp_path / "points.csv"))
        assert code == 0
        assert "localized-linear" in out
        assert "simulation_ms" in (tmp_path / "points.csv").read_text()

    def test_run_scenario_name_with_overrides(self, tmp_path):
        code, out = cli(
            "run", "case-1", "--mode", "analysis", "--clusters", "2", "4",
            "--sizes", "512",
        )
        assert code == 0
        assert "analysis_ms" in out

    def test_run_smoke_flag(self):
        code, out = cli("run", "het-nics", "--smoke", "--messages", "60")
        assert code == 0
        assert "simulation_ms" in out

    def test_run_unknown_target_is_clean_error(self):
        with pytest.raises(SystemExit, match="neither a spec file"):
            cli("run", "definitely-not-a-scenario")

    def test_run_analysis_mode_on_simulate_only_scenario_is_clean_error(self):
        with pytest.raises(SystemExit, match="does not support"):
            cli("run", "hotspot", "--mode", "both")

    def test_run_spec_results_identical_across_backends(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        smoke_spec("hotspot", messages=80).to_file(spec_path)
        results = {}
        for label, extra in (
            ("serial", []),
            ("pool", ["--backend", "pool", "--jobs", "2"]),
            ("socket", ["--backend", "socket", "--workers", "2"]),
        ):
            csv_path = tmp_path / f"{label}.csv"
            code, _ = cli("run", str(spec_path), "--csv", str(csv_path), *extra)
            assert code == 0
            results[label] = csv_path.read_text()
        assert results["serial"] == results["pool"] == results["socket"]


class TestScenariosCliVerb:
    def test_listing_contains_every_scenario(self):
        code, out = cli("scenarios")
        assert code == 0
        for name in scenario_names():
            assert name in out

    def test_names_mode_is_machine_friendly(self):
        code, out = cli("scenarios", "--names")
        assert code == 0
        assert out.split() == list(scenario_names())

    def test_json_mode(self):
        code, out = cli("scenarios", "--json")
        assert code == 0
        listing = json.loads(out)
        assert {entry["name"] for entry in listing} == set(scenario_names())

    def test_write_smoke_specs(self, tmp_path):
        target = tmp_path / "specs"
        code, _ = cli("scenarios", "--write-smoke-specs", str(target))
        assert code == 0
        written = sorted(p.stem for p in target.glob("*.json"))
        assert written == sorted(scenario_names())
        # Every emitted spec loads and plans cleanly.
        for path in target.glob("*.json"):
            build_plan(ExperimentSpec.from_file(path))


class TestScenarioSystemValidation:
    def test_zero_clusters_is_a_clean_experiment_error(self):
        from repro.experiments.scenarios import CASE_1

        # Regression: the old guard evaluated 256 % 0 first (ZeroDivisionError).
        with pytest.raises(ExperimentError, match=">= 1"):
            build_scenario_system(CASE_1, 0)
        with pytest.raises(ExperimentError, match=">= 1"):
            build_scenario_system(CASE_1, -4)

    def test_divisibility_error_names_the_failure(self):
        from repro.experiments.scenarios import CASE_1

        with pytest.raises(ExperimentError, match="does not divide"):
            build_scenario_system(CASE_1, 7)

    def test_paper_sweep_membership_no_longer_bypasses_divisibility(self):
        """Regression: `64 in cluster_counts` used to short-circuit the guard
        even when 64 does not divide a custom total, deferring the failure
        to a confusing downstream ValueError."""
        from repro.experiments.scenarios import CASE_1, PaperParameters

        params = PaperParameters(total_processors=96)
        with pytest.raises(ExperimentError, match="does not divide N=96"):
            build_scenario_system(CASE_1, 64, params)

    def test_any_divisor_is_accepted(self):
        from repro.experiments.scenarios import CASE_1, PaperParameters

        params = PaperParameters(total_processors=96)
        assert build_scenario_system(CASE_1, 3, params).num_clusters == 3


class TestSpecIntegerFields:
    """JSON-borne float values in integer spec fields (review finding)."""

    def test_fractional_integer_fields_rejected(self):
        for kwargs in (
            {"replications": 2.5},
            {"simulation_messages": 100.7},
            {"seed": 1.5},
            {"switch_ports": 24.5},
            {"cluster_counts": (2.5,)},
        ):
            with pytest.raises(ExperimentError, match="must be an integer"):
                ExperimentSpec(scenario="case-1", **kwargs)

    def test_integral_floats_are_coerced(self):
        spec = ExperimentSpec(
            scenario="case-1", replications=2.0, simulation_messages=100.0,
            seed=4.0, cluster_counts=(2.0, 4.0),
        )
        assert spec.replications == 2 and isinstance(spec.replications, int)
        assert spec.seed == 4 and isinstance(spec.seed, int)
        assert spec.cluster_counts == (2, 4)
        assert all(isinstance(c, int) for c in spec.cluster_counts)

    def test_bool_and_string_rejected(self):
        with pytest.raises(ExperimentError, match="must be an integer"):
            ExperimentSpec(scenario="case-1", seed=True)
        with pytest.raises(ExperimentError, match="must be an integer"):
            ExperimentSpec.from_json({"scenario": "case-1", "replications": "3"})

    def test_fractional_spec_file_is_a_clean_cli_error(self, tmp_path):
        spec_path = tmp_path / "bad.json"
        spec_path.write_text(
            '{"scenario": "case-1", "mode": "analysis", "replications": 2.5}'
        )
        with pytest.raises(SystemExit, match="must be an integer"):
            cli("run", str(spec_path))

    def test_negative_seed_rejected(self):
        with pytest.raises(ExperimentError, match="seed"):
            ExperimentSpec(scenario="case-1", seed=-1)


class TestForeignJournalOnVectorizedCommands:
    """--resume with a foreign journal must fail on task-less commands too
    (analysis-only passes start no engine runs, so the fingerprint check
    never sees the journal and the CLI checks instead)."""

    def _figure_journal(self, tmp_path):
        journal = str(tmp_path / "fig.journal")
        code, _ = cli(
            "figure", "4", "--simulate", "--clusters", "2", "--sizes", "512",
            "--messages", "60", "--checkpoint", journal,
        )
        assert code == 0
        return journal

    def test_analysis_only_run_rejects_foreign_journal(self, tmp_path):
        journal = self._figure_journal(tmp_path)
        with pytest.raises(SystemExit, match="checkpoint error"):
            cli("run", "case-1", "--mode", "analysis", "--clusters", "2",
                "--sizes", "512", "--resume", journal)

    def test_own_empty_journal_still_resumes(self, tmp_path):
        journal = str(tmp_path / "fig.journal")
        code, first = cli("figure", "4", "--clusters", "2", "--checkpoint", journal)
        assert code == 0
        code, resumed = cli("figure", "4", "--clusters", "2", "--resume", journal)
        assert code == 0
        assert resumed == first

    def test_simulating_resume_still_works(self, tmp_path):
        journal = self._figure_journal(tmp_path)
        code, _ = cli(
            "figure", "4", "--simulate", "--clusters", "2", "--sizes", "512",
            "--messages", "60", "--resume", journal,
        )
        assert code == 0
