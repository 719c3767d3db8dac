"""Unit tests for arrival processes and destination policies."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.rng import RandomStreams
from repro.workload.arrivals import (
    ArrivalProcess,
    DeterministicArrivals,
    ErlangArrivals,
    HyperexponentialArrivals,
    MMPPArrivals,
    PoissonArrivals,
)
from repro.workload.destinations import (
    DestinationPolicy,
    HotspotDestinations,
    LocalizedDestinations,
    UniformDestinations,
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

    def test_mean_interarrival_refuses_non_positive_rate(self):
        # The base class's nominal rate is 0; subclasses refuse it at construction.
        with pytest.raises(ConfigurationError, match="non-positive rate"):
            ArrivalProcess().mean_interarrival()

    def test_deterministic_constant(self, rng):
        process = DeterministicArrivals(rate=2.0)
        assert {process.interarrival(rng) for _ in range(5)} == {0.5}

    @pytest.mark.parametrize("rate", [0.0, -2.0])
    def test_deterministic_validation(self, rate):
        with pytest.raises(ConfigurationError, match="rate must be positive"):
            DeterministicArrivals(rate=rate)

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

    def test_flatten_matches_the_sum_formula(self):
        sizes = [3, 1, 4, 1, 5, 9, 2]
        policy = UniformDestinations(sizes)
        flat = [
            policy._flatten((cluster, proc))
            for cluster, size in enumerate(sizes)
            for proc in range(size)
        ]
        assert flat == [
            sum(sizes[:cluster]) + proc
            for cluster, size in enumerate(sizes)
            for proc in range(size)
        ]
        assert flat == list(range(sum(sizes)))
        assert [policy._table[i] for i in flat] == [
            (cluster, proc) for cluster, size in enumerate(sizes) for proc in range(size)
        ]

    @pytest.mark.parametrize(
        "policy, declared",
        [
            (UniformDestinations([3, 5, 1]), ["cluster_sizes", "total_nodes"]),
            (
                LocalizedDestinations([3, 5, 1], locality=0.6),
                ["cluster_sizes", "total_nodes", "locality"],
            ),
            (
                HotspotDestinations([3, 5, 1], hotspot=(1, 2), hotspot_fraction=0.3),
                ["cluster_sizes", "total_nodes", "hotspot", "hotspot_fraction"],
            ),
        ],
        ids=["uniform", "localized", "hotspot"],
    )
    def test_pickled_state_holds_no_derived_attribute(self, policy, declared):
        """Policies are task arguments, and journal fingerprints hash their
        pickles: only the declared attributes may travel."""
        assert list(policy.__getstate__()) == declared
        data = pickle.dumps(policy, protocol=4)
        for name in DestinationPolicy._DERIVED:
            assert hasattr(policy, name)
            assert name.encode() not in data
        for clone in (pickle.loads(data), copy.deepcopy(policy)):
            assert pickle.dumps(clone, protocol=4) == data
            assert (clone._starts, clone._table) == (policy._starts, policy._table)
            chooser = clone.chooser((1, 2), RandomStreams(5).stream("destinations"))
            twin = policy.chooser((1, 2), RandomStreams(5).stream("destinations"))
            assert [chooser() for _ in range(200)] == [twin() for _ in range(200)]

    def test_invalid_cluster_sizes(self):
        with pytest.raises(ConfigurationError):
            UniformDestinations([])
        with pytest.raises(ConfigurationError):
            UniformDestinations([1])
        with pytest.raises(ConfigurationError):
            UniformDestinations([0, 4])

    @pytest.mark.parametrize(
        "policy",
        [
            UniformDestinations([2, 2]),
            LocalizedDestinations([2, 2], locality=0.5),
            HotspotDestinations([2, 2], hotspot=(1, 0)),
        ],
        ids=["uniform", "localized", "hotspot"],
    )
    def test_invalid_source_address(self, rng, policy):
        for source in ((5, 0), (0, 2), (-1, 0)):
            with pytest.raises(ConfigurationError):
                policy.choose(source, rng)
            with pytest.raises(ConfigurationError):
                policy.chooser(source, rng)

    @pytest.mark.parametrize("source", [(0, 0), (1, 2), (2, 0)], ids=["0,0", "1,2", "2,0"])
    @pytest.mark.parametrize(
        "policy",
        [
            UniformDestinations([3, 5, 1]),
            LocalizedDestinations([3, 5, 1], locality=0.6),
            HotspotDestinations([3, 5, 1], hotspot=(1, 2), hotspot_fraction=0.3),
        ],
        ids=["uniform", "localized", "hotspot"],
    )
    def test_chooser_matches_choose(self, policy, source):
        """A chooser (batched for the uniform policy) draws what ``choose`` calls draw."""
        chooser = policy.chooser(source, RandomStreams(5).stream("destinations"))
        twin = RandomStreams(5).stream("destinations")
        drawn = [chooser() for _ in range(3000)]
        assert drawn == [policy.choose(source, twin) for _ in range(3000)]
        assert source not in drawn

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_chooser_matches_choose_property(self, data):
        """On any layout, policy and source, a chooser equals ``choose`` and
        picks only other nodes of the layout."""
        sizes = data.draw(
            st.lists(st.integers(1, 6), min_size=1, max_size=4).filter(lambda s: sum(s) >= 2),
            label="sizes",
        )
        addresses = [(c, p) for c, size in enumerate(sizes) for p in range(size)]
        kind = data.draw(st.sampled_from(["uniform", "localized", "hotspot"]), label="kind")
        if kind == "uniform":
            policy = UniformDestinations(sizes)
        elif kind == "localized":
            policy = LocalizedDestinations(sizes, locality=data.draw(st.floats(0.0, 1.0)))
        else:
            policy = HotspotDestinations(
                sizes,
                hotspot=data.draw(st.sampled_from(addresses), label="hotspot"),
                hotspot_fraction=data.draw(st.floats(0.0, 1.0)),
            )
        source = data.draw(st.sampled_from(addresses), label="source")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        chooser = policy.chooser(source, RandomStreams(seed).stream("d"), block_size=7)
        twin = RandomStreams(seed).stream("d")
        drawn = [chooser() for _ in range(40)]
        assert drawn == [policy.choose(source, twin) for _ in range(40)]
        assert source not in drawn
        assert set(drawn) <= set(addresses)


class TestRenewalArrivals:
    """Erlang / hyperexponential arrival processes (scenario building blocks)."""

    def test_erlang_mean_rate(self, rng):
        process = ErlangArrivals(rate=2.0, shape=4)
        samples = [process.interarrival(rng) for _ in range(4000)]
        assert sum(samples) / len(samples) == pytest.approx(0.5, rel=0.1)

    @pytest.mark.parametrize(
        "process",
        [
            PoissonArrivals(rate=0.25),
            ErlangArrivals(rate=0.25, shape=3),
            HyperexponentialArrivals(rate=0.25, cv2=4.0),
        ],
        ids=lambda process: type(process).__name__,
    )
    def test_sampler_bit_identical_to_scalar(self, process):
        """A sampler reads ahead in blocks but draws what scalar calls draw."""
        scalar_rng = RandomStreams(11).stream("arrivals")
        batched_rng = RandomStreams(11).stream("arrivals")
        sampler = process.sampler(batched_rng)
        scalar = [process.interarrival(scalar_rng) for _ in range(300)]
        batched = [sampler() for _ in range(300)]
        assert scalar == batched

    def test_erlang_smoother_than_poisson(self, rng):
        def cv2(samples):
            mean = sum(samples) / len(samples)
            var = sum((s - mean) ** 2 for s in samples) / len(samples)
            return var / mean**2

        erlang = [ErlangArrivals(rate=1.0, shape=4).interarrival(rng) for _ in range(4000)]
        poisson = [PoissonArrivals(rate=1.0).interarrival(rng) for _ in range(4000)]
        assert cv2(erlang) < cv2(poisson)

    def test_erlang_validation(self):
        with pytest.raises(ConfigurationError):
            ErlangArrivals(rate=0.0)
        with pytest.raises(ConfigurationError):
            ErlangArrivals(rate=1.0, shape=0)

    def test_hyperexponential_mean_and_burstiness(self, rng):
        process = HyperexponentialArrivals(rate=2.0, cv2=4.0)
        samples = [process.interarrival(rng) for _ in range(8000)]
        mean = sum(samples) / len(samples)
        assert mean == pytest.approx(0.5, rel=0.1)
        var = sum((s - mean) ** 2 for s in samples) / len(samples)
        assert var / mean**2 > 2.0  # clearly burstier than exponential (CV² = 1)

    def test_hyperexponential_balanced_means_fit(self):
        process = HyperexponentialArrivals(rate=0.25, cv2=4.0)
        (m1, m2), (p1, p2) = process.phases
        assert p1 + p2 == pytest.approx(1.0)
        assert p1 * m1 == pytest.approx(p2 * m2)  # balanced means
        assert p1 * m1 + p2 * m2 == pytest.approx(4.0)  # overall mean 1/rate

    def test_hyperexponential_validation(self):
        with pytest.raises(ConfigurationError):
            HyperexponentialArrivals(rate=1.0, cv2=0.5)
        with pytest.raises(ConfigurationError):
            HyperexponentialArrivals(rate=0.0)


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
