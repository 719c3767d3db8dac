"""Unit and integration tests for the validation simulator."""

from __future__ import annotations

import pytest

from repro.cluster.presets import llnl_like_system, paper_evaluation_system
from repro.core.model import ModelConfig
from repro.des.core import Environment
from repro.des.rng import RandomStreams
from repro.errors import ConfigurationError, SimulationError
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.queueing.distributions import Deterministic, Exponential
from repro.simulation.components import LatencySink, ServiceCenterSim
from repro.simulation.message import Message
from repro.parallel import spawn_seeds
from repro.simulation.runner import run_replications, validate_against_analysis
from repro.simulation.simulator import MultiClusterSimulator, SimulationConfig
from repro.workload.destinations import LocalizedDestinations


class TestMessage:
    def test_is_remote(self):
        local = Message(0, (1, 2), (1, 3), 1024, 0.0)
        remote = Message(1, (1, 2), (2, 0), 1024, 0.0)
        assert not local.is_remote
        assert remote.is_remote

    def test_latency_requires_completion(self):
        message = Message(0, (0, 0), (0, 1), 1024, created_at=1.0)
        with pytest.raises(ValueError):
            _ = message.latency
        message.completed_at = 3.5
        assert message.latency == pytest.approx(2.5)

    def test_repr(self):
        message = Message(7, (0, 0), (1, 1), 512, 0.0)
        assert "#7" in repr(message)
        assert "pending" in repr(message)


class TestServiceCenterSim:
    def test_serves_messages_fifo_and_tracks_stats(self):
        env = Environment()
        rng = RandomStreams(1).stream("svc")
        center = ServiceCenterSim(env, "icn1[0]", Deterministic(2.0), rng)
        done = []

        def sender(env, center, ident):
            message = Message(ident, (0, 0), (0, 1), 100, env.now)
            yield center.begin(message)
            message.completed_at = env.now
            done.append((ident, env.now, message.path))

        for i in range(3):
            env.process(sender(env, center, i))
        env.run()
        assert [d[0] for d in done] == [0, 1, 2]
        assert [d[1] for d in done] == [2.0, 4.0, 6.0]
        assert all(d[2] == ["icn1[0]"] for d in done)
        assert center.served == 3
        assert center.busy_time == pytest.approx(6.0)
        assert center.utilization() == pytest.approx(1.0)
        assert center.mean_occupancy() == pytest.approx(2.0)

    def test_begin_carries_its_value(self):
        env = Environment()
        center = ServiceCenterSim(env, "x", Deterministic(2.0), RandomStreams(1).stream("x"))
        event = center.begin(Message(0, (0, 0), (0, 1), 100, 0.0), ("hop", 3))
        assert event.value == ("hop", 3)
        assert event.at == 2.0

    def test_utilization_before_time_advances(self):
        env = Environment()
        center = ServiceCenterSim(env, "x", Exponential(1.0), RandomStreams(1).stream("x"))
        assert center.utilization() == 0.0


class TestLatencySink:
    def test_done_event_after_target(self):
        env = Environment()
        sink = LatencySink(env, target_messages=2)
        for i in range(2):
            message = Message(i, (0, 0), (0, 1), 10, created_at=0.0)
            message.completed_at = float(i + 1)
            sink.record(message)
        assert sink.done.triggered
        assert sink.completed == 2
        assert sink.measured == 2

    def test_warmup_messages_excluded(self):
        env = Environment()
        sink = LatencySink(env, target_messages=10, warmup_messages=4)
        for i in range(10):
            message = Message(i, (0, 0), (1, 0), 10, created_at=0.0)
            message.completed_at = 1.0
            sink.record(message)
        assert sink.completed == 10
        assert sink.measured == 6

    def test_recording_incomplete_message_rejected(self):
        env = Environment()
        sink = LatencySink(env, target_messages=5)
        with pytest.raises(SimulationError):
            sink.record(Message(0, (0, 0), (0, 1), 10, 0.0))

    def test_validation(self):
        env = Environment()
        with pytest.raises(SimulationError):
            LatencySink(env, target_messages=0)
        with pytest.raises(SimulationError):
            LatencySink(env, target_messages=5, warmup_messages=5)


class TestSimulationConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(message_bytes=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(generation_rate=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_messages=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(warmup_fraction=1.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(batch_count=1)
        # A NaN size or rate would keep the event loop from ever finishing.
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="message size"):
                SimulationConfig(message_bytes=value)
            with pytest.raises(ConfigurationError, match="generation rate"):
                SimulationConfig(generation_rate=value)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"message_bytes": float("-inf")}, "message size"),
            ({"message_bytes": -512}, "message size"),
            ({"generation_rate": float("-inf")}, "generation rate"),
            ({"generation_rate": -0.25}, "generation rate"),
            ({"warmup_fraction": float("nan")}, "warmup_fraction"),
            ({"warmup_fraction": -0.1}, "warmup_fraction"),
        ],
    )
    def test_rejection_names_the_field(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            SimulationConfig(**kwargs)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, "7"])
    def test_rejects_seed_that_is_not_a_non_negative_integer(self, seed):
        with pytest.raises(ConfigurationError, match="seed must be"):
            SimulationConfig(seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**64])
    def test_accepts_large_and_zero_seeds(self, small_case1_system, seed):
        config = SimulationConfig(num_messages=50, seed=seed)
        assert MultiClusterSimulator(small_case1_system, config).run().seed == seed


class TestMultiClusterSimulator:
    @pytest.fixture
    def small_config(self) -> SimulationConfig:
        return SimulationConfig(
            architecture="non-blocking",
            message_bytes=1024,
            generation_rate=0.25,
            num_messages=600,
            seed=11,
        )

    def test_runs_and_reports(self, small_case1_system, small_config):
        result = MultiClusterSimulator(small_case1_system, small_config).run()
        assert result.measured_messages > 0
        assert result.completed_messages >= small_config.num_messages
        assert result.mean_latency_s > 0
        assert result.mean_latency_ms == pytest.approx(result.mean_latency_s * 1e3)
        assert result.simulated_time_s > 0
        assert 0.0 <= result.remote_fraction <= 1.0
        assert result.confidence_interval is not None
        assert "mean_latency_ms" in result.as_dict()

    def test_reproducible_with_same_seed(self, small_case1_system, small_config):
        a = MultiClusterSimulator(small_case1_system, small_config).run()
        b = MultiClusterSimulator(small_case1_system, small_config).run()
        assert a.mean_latency_s == pytest.approx(b.mean_latency_s, rel=1e-12)

    def test_different_seed_differs(self, small_case1_system, small_config):
        from dataclasses import replace

        a = MultiClusterSimulator(small_case1_system, small_config).run()
        b = MultiClusterSimulator(small_case1_system, replace(small_config, seed=99)).run()
        assert a.mean_latency_s != b.mean_latency_s

    def test_remote_fraction_matches_equation_8(self, small_case1_system, small_config):
        result = MultiClusterSimulator(small_case1_system, small_config).run()
        # C = 4, N0 = 8: P = 24/31.
        assert result.remote_fraction == pytest.approx(24.0 / 31.0, abs=0.06)

    def test_per_center_utilizations_present(self, small_case1_system, small_config):
        result = MultiClusterSimulator(small_case1_system, small_config).run()
        assert "icn2" in result.utilizations
        assert sum(1 for name in result.utilizations if name.startswith("icn1")) == 4
        assert sum(1 for name in result.utilizations if name.startswith("ecn1")) == 4
        assert all(0.0 <= u <= 1.0 for u in result.utilizations.values())

    def test_message_paths_follow_routing(self, small_case1_system, small_config):
        simulator = MultiClusterSimulator(small_case1_system, small_config)
        simulator.run()
        for message in simulator.sink.messages:
            if message.is_remote:
                assert len(message.path) == 3
                assert message.path[0] == f"ecn1[{message.source[0]}]"
                assert message.path[1] == "icn2"
                assert message.path[2] == f"ecn1[{message.destination[0]}]"
            else:
                assert message.path == [f"icn1[{message.source[0]}]"]

    def test_same_instant_ordering_contract(self):
        """Hand-derived completions of an all-deterministic workload with ties.

        Two clusters of two nodes; locality 1 gives each source exactly one
        destination, its neighbour, so every message is one ICN1 visit.
        Think time T = 1/0.25 = 4 s and service S = 0 + 512 B / 512 B/s = 1 s
        are exact in binary floating point, and the two clusters run in
        lockstep, so instants tie:

        * t=4: all four think times end; sources pop in creation (start)
          order (0,0), (0,1), (1,0), (1,1) and send messages 0-3.  Each ICN1
          serves its first message over [4,5) and its second over [5,6).
        * t=5: messages 0 and 2 complete (their departures were created in
          that order); t=6: messages 1 and 3.  Each source thinks 4 s more.
        * t=9: (0,0) and (1,0) send 4 and 5, departing at 10.
        * t=10: the think times of (0,1) and (1,1), created at t=6, pop
          before the departures of 4 and 5, created at t=9: messages 6 and 7
          are sent (ICN1 free at 10 -> depart 11), then 4 and 5 complete.
        * t=11: 6 and 7 complete; t=14: 8 and 9 are sent; t=15: 10 and 11
          are sent, then 8 and 9 complete; t=16: 10 and 11 complete.

        With ``num_messages=11`` the completion of message 10 triggers the
        stop event, but the departure of message 11 was created at t=15,
        before the stop event, so it still runs: 12 completions, stop at 16.
        """
        from repro.cluster.system import MultiClusterSystem
        from repro.network.switch import SwitchFabric
        from repro.network.technologies import NetworkTechnology
        from repro.workload.arrivals import DeterministicArrivals

        link = NetworkTechnology("unit", latency_s=0.0, bandwidth_bytes_per_s=512.0)
        system = MultiClusterSystem.from_cluster_sizes(
            [2, 2], [link, link], [link, link], link,
            switch=SwitchFabric(ports=4, latency_s=0.0),
        )
        config = SimulationConfig(
            message_bytes=512.0, generation_rate=0.25, num_messages=11,
            warmup_fraction=0.0, exponential_service=False,
        )
        sim = MultiClusterSimulator(
            system, config, LocalizedDestinations([2, 2], locality=1.0),
            arrival_factory=DeterministicArrivals,
        )
        assert [c.service_distribution.value for c in sim.icn1] == [1.0, 1.0]
        result = sim.run()

        expected = [  # (ident, source, created, completed), in completion order
            (0, (0, 0), 4.0, 5.0), (2, (1, 0), 4.0, 5.0),
            (1, (0, 1), 4.0, 6.0), (3, (1, 1), 4.0, 6.0),
            (4, (0, 0), 9.0, 10.0), (5, (1, 0), 9.0, 10.0),
            (6, (0, 1), 10.0, 11.0), (7, (1, 1), 10.0, 11.0),
            (8, (0, 0), 14.0, 15.0), (9, (1, 0), 14.0, 15.0),
            (10, (0, 1), 15.0, 16.0), (11, (1, 1), 15.0, 16.0),
        ]
        got = [(m.ident, m.source, m.created_at, m.completed_at) for m in sim.sink.messages]
        assert got == expected
        completions = [m.completed_at for m in sim.sink.messages]
        assert len(set(completions)) < len(completions)  # completions tie
        assert {m.created_at for m in sim.sink.messages} & set(completions)  # and sends tie
        assert result.completed_messages == 12
        assert result.simulated_time_s == 16.0

    def test_run_reads_the_sink_at_start(self, small_case1_system, small_config):
        """A sink swapped in after construction receives every completion."""
        simulator = MultiClusterSimulator(small_case1_system, small_config)
        reference = MultiClusterSimulator(small_case1_system, small_config).run()
        original = simulator.sink
        simulator.sink = LatencySink(
            simulator.env, small_config.num_messages,
            int(small_config.num_messages * small_config.warmup_fraction),
        )
        assert simulator.run() == reference
        assert original.completed == 0
        assert simulator.sink.done.processed

    def test_blocking_architecture_slower(self, small_case1_system):
        nb_config = SimulationConfig(architecture="non-blocking", message_bytes=1024,
                                     num_messages=500, seed=3)
        b_config = SimulationConfig(architecture="blocking", message_bytes=1024,
                                    num_messages=500, seed=3)
        nb = MultiClusterSimulator(small_case1_system, nb_config).run()
        b = MultiClusterSimulator(small_case1_system, b_config).run()
        assert b.mean_latency_s > nb.mean_latency_s

    def test_localized_destination_policy(self, small_case1_system):
        config = SimulationConfig(num_messages=400, seed=5)
        policy = LocalizedDestinations([8, 8, 8, 8], locality=1.0)
        result = MultiClusterSimulator(small_case1_system, config, policy).run()
        assert result.remote_fraction == 0.0

    def test_cluster_of_clusters_system_supported(self):
        config = SimulationConfig(num_messages=400, seed=9)
        result = MultiClusterSimulator(llnl_like_system(), config).run()
        assert result.mean_latency_s > 0

    def test_single_node_system_rejected(self):
        system = paper_evaluation_system(1, GIGABIT_ETHERNET, FAST_ETHERNET, total_processors=1)
        with pytest.raises(ConfigurationError):
            MultiClusterSimulator(system, SimulationConfig(num_messages=10))


class TestRunnerAndValidation:
    def test_run_replications_aggregates(self, small_case1_system):
        config = SimulationConfig(num_messages=400, seed=21)
        result = run_replications(small_case1_system, config, replications=3)
        assert result.replications == 3
        assert len(result.per_replication) == 3
        assert result.latency_interval is not None
        # Seeds are spawned from the master seed via SeedSequence (not the
        # correlated ``seed + i`` scheme): distinct, deterministic, and
        # decorrelated from adjacent master seeds.
        seeds = [r.seed for r in result.per_replication]
        assert seeds == spawn_seeds(21, 3)
        assert len(set(seeds)) == 3
        assert not set(seeds) & set(spawn_seeds(22, 3))

    def test_run_replications_validation(self, small_case1_system):
        with pytest.raises(ConfigurationError):
            run_replications(small_case1_system, SimulationConfig(), replications=0)

    def test_validate_against_analysis_agreement(self, small_case1_system):
        """The paper's core validation claim: analysis tracks simulation."""
        model_config = ModelConfig(architecture="non-blocking", message_bytes=1024)
        sim_config = SimulationConfig(
            architecture="non-blocking", message_bytes=1024, num_messages=3000, seed=2
        )
        point = validate_against_analysis(small_case1_system, model_config, sim_config)
        assert point.relative_error < 0.10
        row = point.as_dict()
        assert row["num_clusters"] == 4

    def test_validate_rejects_mismatched_configs(self, small_case1_system):
        model_config = ModelConfig(architecture="non-blocking", message_bytes=1024)
        sim_config = SimulationConfig(architecture="blocking", message_bytes=1024)
        with pytest.raises(ConfigurationError):
            validate_against_analysis(small_case1_system, model_config, sim_config)

    @pytest.mark.parametrize(
        "sim_kwargs, field",
        [({"message_bytes": 512}, "message_bytes"), ({"generation_rate": 0.5}, "generation_rate")],
    )
    def test_validate_names_the_mismatched_field(self, small_case1_system, sim_kwargs, field):
        model_config = ModelConfig(architecture="non-blocking", message_bytes=1024)
        sim_config = SimulationConfig(
            **{"architecture": "non-blocking", "message_bytes": 1024, **sim_kwargs}
        )
        with pytest.raises(ConfigurationError, match=field):
            validate_against_analysis(small_case1_system, model_config, sim_config)

    def test_validate_derives_the_simulation_from_the_model(self, small_case1_system):
        model_config = ModelConfig(
            architecture="blocking", message_bytes=512, generation_rate=0.5
        )
        derived = validate_against_analysis(small_case1_system, model_config)
        explicit = validate_against_analysis(
            small_case1_system,
            model_config,
            SimulationConfig(architecture="blocking", message_bytes=512, generation_rate=0.5),
        )
        assert derived.simulation_latency_ms == explicit.simulation_latency_ms

    def test_validate_default_sim_config(self, small_case1_system):
        model_config = ModelConfig(architecture="non-blocking", message_bytes=512)
        point = validate_against_analysis(
            small_case1_system,
            model_config,
            SimulationConfig(architecture="non-blocking", message_bytes=512,
                             num_messages=1500, seed=8),
        )
        assert point.analysis_latency_ms > 0
        assert point.simulation_latency_ms > 0
