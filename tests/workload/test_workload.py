"""Unit tests for arrival processes, destination policies, message sizes and traces."""

from __future__ import annotations

import numpy as np
import pytest

from repro.des.rng import RandomStreams
from repro.errors import ConfigurationError
from repro.workload.arrivals import DeterministicArrivals, MMPPArrivals, PoissonArrivals
from repro.workload.destinations import (
    HotspotDestinations,
    LocalizedDestinations,
    UniformDestinations,
)
from repro.workload.messages import (
    BimodalMessageSize,
    FixedMessageSize,
    UniformMessageSize,
    generate_trace,
)


@pytest.fixture
def rng():
    return RandomStreams(seed=2024).stream("workload")


class TestArrivals:
    def test_poisson_mean_rate(self, rng):
        process = PoissonArrivals(rate=4.0)
        gaps = [process.interarrival(rng) for _ in range(20_000)]
        assert np.mean(gaps) == pytest.approx(0.25, rel=0.05)
        assert process.mean_interarrival() == pytest.approx(0.25)

    def test_poisson_validation(self):
        with pytest.raises(ConfigurationError):
            PoissonArrivals(rate=0.0)

    def test_deterministic_constant(self, rng):
        process = DeterministicArrivals(rate=2.0)
        assert {process.interarrival(rng) for _ in range(5)} == {0.5}

    def test_mmpp_long_run_rate(self, rng):
        process = MMPPArrivals(
            low_rate=1.0, high_rate=9.0, mean_low_duration=10.0, mean_high_duration=10.0
        )
        assert process.rate == pytest.approx(5.0)
        gaps = [process.interarrival(rng) for _ in range(40_000)]
        assert 1.0 / np.mean(gaps) == pytest.approx(5.0, rel=0.15)

    def test_mmpp_burstier_than_poisson(self, rng):
        mmpp = MMPPArrivals(low_rate=0.5, high_rate=20.0,
                            mean_low_duration=20.0, mean_high_duration=2.0)
        poisson = PoissonArrivals(rate=mmpp.rate)
        mmpp_gaps = [mmpp.interarrival(rng) for _ in range(20_000)]
        poisson_gaps = [poisson.interarrival(rng) for _ in range(20_000)]
        cv2_mmpp = np.var(mmpp_gaps) / np.mean(mmpp_gaps) ** 2
        cv2_poisson = np.var(poisson_gaps) / np.mean(poisson_gaps) ** 2
        assert cv2_mmpp > cv2_poisson

    def test_mmpp_validation(self):
        with pytest.raises(ConfigurationError):
            MMPPArrivals(low_rate=0.0)
        with pytest.raises(ConfigurationError):
            MMPPArrivals(mean_low_duration=0.0)


class TestDestinations:
    def test_uniform_never_selects_self(self, rng):
        policy = UniformDestinations([4, 4, 4])
        source = (1, 2)
        destinations = [policy.choose(source, rng) for _ in range(2000)]
        assert source not in destinations

    def test_uniform_covers_all_other_nodes(self, rng):
        policy = UniformDestinations([2, 2])
        source = (0, 0)
        seen = {policy.choose(source, rng) for _ in range(2000)}
        assert seen == {(0, 1), (1, 0), (1, 1)}

    def test_uniform_remote_fraction_matches_equation_8(self, rng):
        """The empirical remote fraction must match P = (C−1)N0/(CN0−1)."""
        policy = UniformDestinations([8] * 4)
        source = (0, 3)
        remote = sum(policy.choose(source, rng)[0] != 0 for _ in range(20_000))
        expected = (4 - 1) * 8 / (4 * 8 - 1)
        assert remote / 20_000 == pytest.approx(expected, abs=0.02)

    def test_localized_policy_extremes(self, rng):
        all_local = LocalizedDestinations([8, 8], locality=1.0)
        all_remote = LocalizedDestinations([8, 8], locality=0.0)
        source = (0, 0)
        assert all(all_local.choose(source, rng)[0] == 0 for _ in range(200))
        assert all(all_remote.choose(source, rng)[0] == 1 for _ in range(200))

    def test_localized_validation(self):
        with pytest.raises(ConfigurationError):
            LocalizedDestinations([4, 4], locality=1.5)

    def test_localized_single_node_cluster_falls_back(self, rng):
        policy = LocalizedDestinations([1, 4], locality=1.0)
        # The lone node has no local peer, so the choice must still be valid.
        destination = policy.choose((0, 0), rng)
        assert destination != (0, 0)

    def test_hotspot_policy_bias(self, rng):
        hotspot = (1, 0)
        policy = HotspotDestinations([4, 4], hotspot=hotspot, hotspot_fraction=0.5)
        picks = [policy.choose((0, 0), rng) for _ in range(4000)]
        fraction = sum(p == hotspot for p in picks) / len(picks)
        assert fraction > 0.4

    def test_hotspot_never_targets_itself_via_bias(self, rng):
        hotspot = (0, 0)
        policy = HotspotDestinations([2, 2], hotspot=hotspot, hotspot_fraction=1.0)
        assert policy.choose(hotspot, rng) != hotspot

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
    def test_hotspot_fraction_validation(self, fraction):
        with pytest.raises(ConfigurationError, match="hotspot fraction"):
            HotspotDestinations([4, 4], hotspot=(1, 0), hotspot_fraction=fraction)

    def test_hotspot_address_validation(self):
        with pytest.raises(ConfigurationError):
            HotspotDestinations([4, 4], hotspot=(2, 0))

    def test_localized_remote_pick_in_a_single_cluster_stays_local(self, rng):
        policy = LocalizedDestinations([4], locality=0.0)
        picks = {policy.choose((0, 1), rng) for _ in range(200)}
        assert picks == {(0, 0), (0, 2), (0, 3)}

    def test_invalid_cluster_sizes(self):
        with pytest.raises(ConfigurationError):
            UniformDestinations([])
        with pytest.raises(ConfigurationError):
            UniformDestinations([1])
        with pytest.raises(ConfigurationError):
            UniformDestinations([0, 4])

    def test_invalid_source_address(self, rng):
        policy = UniformDestinations([2, 2])
        with pytest.raises(ConfigurationError):
            policy.choose((5, 0), rng)


class TestMessageSizes:
    def test_fixed(self, rng):
        model = FixedMessageSize(1024)
        assert model.sample(rng) == 1024
        assert model.mean == 1024
        with pytest.raises(ConfigurationError):
            FixedMessageSize(0)

    def test_bimodal_mean(self, rng):
        model = BimodalMessageSize(short_bytes=100, long_bytes=1000, long_fraction=0.5)
        assert model.mean == pytest.approx(550)
        samples = {model.sample(rng) for _ in range(200)}
        assert samples == {100, 1000}

    def test_bimodal_validation(self):
        with pytest.raises(ConfigurationError):
            BimodalMessageSize(long_fraction=2.0)

    def test_uniform_size(self, rng):
        model = UniformMessageSize(100, 200)
        assert model.mean == 150
        assert all(100 <= model.sample(rng) <= 200 for _ in range(100))
        with pytest.raises(ConfigurationError):
            UniformMessageSize(200, 100)


class TestTraceGeneration:
    def test_trace_sorted_and_sized(self):
        trace = generate_trace([4, 4], num_messages=500, seed=3)
        assert len(trace) == 500
        times = [e.time for e in trace]
        assert times == sorted(times)
        assert trace.duration == times[-1]

    def test_trace_destinations_valid(self):
        trace = generate_trace([4, 4], num_messages=300, seed=4)
        for entry in trace:
            assert entry.source != entry.destination
            assert 0 <= entry.destination[0] < 2
            assert 0 <= entry.destination[1] < 4

    def test_trace_reproducibility(self):
        a = generate_trace([2, 2], num_messages=100, seed=5)
        b = generate_trace([2, 2], num_messages=100, seed=5)
        assert a.entries == b.entries

    def test_trace_mean_size(self):
        trace = generate_trace([2, 2], num_messages=50, seed=6)
        assert trace.mean_size == pytest.approx(1024.0)

    def test_messages_per_source(self):
        trace = generate_trace([2, 2], num_messages=400, seed=7)
        counts = trace.messages_per_source()
        assert sum(counts.values()) == 400
        assert len(counts) <= 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            generate_trace([2, 2], num_messages=-1)
        with pytest.raises(ConfigurationError):
            generate_trace([1], num_messages=10)


class TestRenewalArrivals:
    """Erlang / hyperexponential arrival processes (scenario building blocks)."""

    def test_erlang_mean_rate(self, rng):
        from repro.workload.arrivals import ErlangArrivals

        process = ErlangArrivals(rate=2.0, shape=4)
        samples = [process.interarrival(rng) for _ in range(4000)]
        assert sum(samples) / len(samples) == pytest.approx(0.5, rel=0.1)

    def test_erlang_sampler_bit_identical_to_scalar(self):
        from repro.des.rng import RandomStreams
        from repro.workload.arrivals import ErlangArrivals

        process = ErlangArrivals(rate=0.25, shape=3)
        scalar_rng = RandomStreams(11).stream("erlang")
        batched_rng = RandomStreams(11).stream("erlang")
        sampler = process.sampler(batched_rng)
        scalar = [process.interarrival(scalar_rng) for _ in range(300)]
        batched = [sampler() for _ in range(300)]
        assert scalar == batched

    def test_erlang_smoother_than_poisson(self, rng):
        from repro.workload.arrivals import ErlangArrivals, PoissonArrivals

        def cv2(samples):
            mean = sum(samples) / len(samples)
            var = sum((s - mean) ** 2 for s in samples) / len(samples)
            return var / mean**2

        erlang = [ErlangArrivals(rate=1.0, shape=4).interarrival(rng) for _ in range(4000)]
        poisson = [PoissonArrivals(rate=1.0).interarrival(rng) for _ in range(4000)]
        assert cv2(erlang) < cv2(poisson)

    def test_erlang_validation(self):
        from repro.workload.arrivals import ErlangArrivals

        with pytest.raises(ConfigurationError):
            ErlangArrivals(rate=0.0)
        with pytest.raises(ConfigurationError):
            ErlangArrivals(rate=1.0, shape=0)

    def test_hyperexponential_mean_and_burstiness(self, rng):
        from repro.workload.arrivals import HyperexponentialArrivals

        process = HyperexponentialArrivals(rate=2.0, cv2=4.0)
        samples = [process.interarrival(rng) for _ in range(8000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(0.5, rel=0.1)
        var = sum((s - mean) ** 2 for s in samples) / len(samples)
        assert var / mean**2 > 2.0  # clearly burstier than exponential (CV² = 1)

    def test_hyperexponential_balanced_means_fit(self):
        from repro.workload.arrivals import HyperexponentialArrivals

        process = HyperexponentialArrivals(rate=0.25, cv2=4.0)
        (m1, m2), (p1, p2) = process.phases
        assert p1 + p2 == pytest.approx(1.0)
        assert p1 * m1 == pytest.approx(p2 * m2)  # balanced means
        assert p1 * m1 + p2 * m2 == pytest.approx(4.0)  # overall mean 1/rate

    def test_hyperexponential_validation(self):
        from repro.workload.arrivals import HyperexponentialArrivals

        with pytest.raises(ConfigurationError):
            HyperexponentialArrivals(rate=1.0, cv2=0.5)
        with pytest.raises(ConfigurationError):
            HyperexponentialArrivals(rate=0.0)


class TestTraceBatching:
    """generate_trace's VariateStream batching (PR 5 satellite)."""

    def test_sole_consumer_batched_path_matches_scalar(self):
        """Deterministic arrivals + fixed sizes leave the destination draws
        as the shared stream's sole consumer, so the batched chooser must
        reproduce the scalar trace bit for bit."""
        from repro.des.rng import RandomStreams
        from repro.workload.arrivals import DeterministicArrivals
        from repro.workload.destinations import UniformDestinations

        sizes = [4, 4]
        trace = generate_trace(
            sizes, 48, arrival_process=DeterministicArrivals(rate=2.0), seed=5
        )
        # Scalar reference: replay the historical per-call loop by hand.
        arrival = DeterministicArrivals(rate=2.0)
        dest = UniformDestinations(sizes)
        streams = RandomStreams(5)
        expected = []
        for cluster, size in enumerate(sizes):
            for proc in range(size):
                rng = streams.stream(f"trace-{cluster}-{proc}")
                t = 0.0
                for _ in range(48 // 8 + 1):
                    t += arrival.interarrival(rng)
                    expected.append((t, (cluster, proc), dest.choose((cluster, proc), rng)))
        expected.sort(key=lambda e: e[0])
        for entry, (t, source, destination) in zip(trace, expected[:48]):
            assert entry.time == t
            assert entry.source == source
            assert entry.destination == destination

    def test_per_family_layout_is_deterministic_and_batched(self):
        from repro.workload.destinations import UniformDestinations

        first = generate_trace([4, 4], 64, seed=3, stream_layout="per-family")
        second = generate_trace([4, 4], 64, seed=3, stream_layout="per-family")
        assert [e.time for e in first] == [e.time for e in second]
        assert len(first) == 64
        assert all(e.source != e.destination for e in first)
        # Distinct stream layouts are distinct (deterministic) traces.
        shared = generate_trace([4, 4], 64, seed=3)
        assert [e.time for e in first] != [e.time for e in shared]

    def test_per_family_layout_matches_manual_per_family_scalar(self):
        """Per-family batching consumes each family stream exactly like
        scalar per-call draws on the same named streams."""
        from repro.des.rng import RandomStreams
        from repro.workload.arrivals import PoissonArrivals
        from repro.workload.destinations import UniformDestinations

        sizes = [3, 3]
        trace = generate_trace(sizes, 36, seed=7, stream_layout="per-family")
        arrival = PoissonArrivals(rate=0.25)
        dest = UniformDestinations(sizes)
        streams = RandomStreams(7)
        expected = []
        per_node = 36 // 6 + 1
        for cluster, size in enumerate(sizes):
            for proc in range(size):
                arrival_rng = streams.stream(f"trace-{cluster}-{proc}-arrivals")
                dest_rng = streams.stream(f"trace-{cluster}-{proc}-destinations")
                t = 0.0
                for _ in range(per_node):
                    t += arrival.interarrival(arrival_rng)
                    expected.append(
                        (t, (cluster, proc), dest.choose((cluster, proc), dest_rng))
                    )
        expected.sort(key=lambda e: e[0])
        for entry, (t, source, destination) in zip(trace, expected[:36]):
            assert entry.time == t
            assert entry.source == source
            assert entry.destination == destination

    def test_invalid_stream_layout_rejected(self):
        with pytest.raises(ConfigurationError):
            generate_trace([2, 2], 8, stream_layout="interleaved")

    def test_uniform_size_model_sampler_bit_identical(self):
        from repro.des.rng import RandomStreams
        from repro.workload.messages import UniformMessageSize

        model = UniformMessageSize(64.0, 4096.0)
        scalar_rng = RandomStreams(2).stream("sizes")
        batched_rng = RandomStreams(2).stream("sizes")
        sampler = model.sampler(batched_rng)
        assert [model.sample(scalar_rng) for _ in range(200)] == [
            sampler() for _ in range(200)
        ]

    def test_consumes_rng_flags(self):
        from repro.workload.arrivals import DeterministicArrivals, PoissonArrivals
        from repro.workload.destinations import UniformDestinations
        from repro.workload.messages import FixedMessageSize, UniformMessageSize

        assert PoissonArrivals(rate=1.0).consumes_rng
        assert not DeterministicArrivals(rate=1.0).consumes_rng
        assert UniformDestinations([2, 2]).consumes_rng
        assert not FixedMessageSize(512.0).consumes_rng
        assert UniformMessageSize(1.0, 2.0).consumes_rng


class TestSimulatorArrivalFactory:
    """The closed-loop simulator accepts scenario arrival processes."""

    def test_default_factory_is_bit_identical_to_legacy_path(self):
        from repro.cluster.presets import paper_evaluation_system
        from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET
        from repro.simulation.simulator import MultiClusterSimulator, SimulationConfig
        from repro.workload.arrivals import PoissonArrivals

        system = paper_evaluation_system(2, GIGABIT_ETHERNET, FAST_ETHERNET,
                                         total_processors=16)
        config = SimulationConfig(num_messages=300, seed=13)
        legacy = MultiClusterSimulator(system, config).run()
        explicit = MultiClusterSimulator(
            system, config, arrival_factory=lambda rate: PoissonArrivals(rate=rate)
        ).run()
        # An explicit Poisson factory reproduces the built-in default
        # exactly: same batched exponential stream, same bit stream.
        assert explicit.mean_latency_s == legacy.mean_latency_s
        assert explicit.simulated_time_s == legacy.simulated_time_s

    def test_bursty_arrivals_change_the_run_deterministically(self):
        from repro.cluster.presets import paper_evaluation_system
        from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET
        from repro.simulation.simulator import MultiClusterSimulator, SimulationConfig
        from repro.workload.arrivals import HyperexponentialArrivals

        system = paper_evaluation_system(2, GIGABIT_ETHERNET, FAST_ETHERNET,
                                         total_processors=16)
        config = SimulationConfig(num_messages=300, seed=13)

        def factory(rate):
            return HyperexponentialArrivals(rate=rate, cv2=4.0)

        bursty_a = MultiClusterSimulator(system, config, arrival_factory=factory).run()
        bursty_b = MultiClusterSimulator(system, config, arrival_factory=factory).run()
        poisson = MultiClusterSimulator(system, config).run()
        assert bursty_a.mean_latency_s == bursty_b.mean_latency_s  # deterministic
        assert bursty_a.simulated_time_s != poisson.simulated_time_s
