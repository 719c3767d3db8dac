"""Property-based tests for the topologies and the analytical model invariants."""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.presets import paper_evaluation_system
from repro.cluster.processor import ProcessorType
from repro.cluster.system import MultiClusterSystem
from repro.core.cluster_of_clusters import ClusterOfClustersModel
from repro.core.model import AnalyticalModel, ModelConfig
from repro.core.routing import outgoing_probability
from repro.errors import ReproError
from repro.core.traffic import compute_traffic_rates
from repro.network.models import BlockingNetworkModel, NonBlockingNetworkModel
from repro.network.switch import SwitchFabric
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET, MYRINET
from repro.topology.fattree import FatTreeTopology, fat_tree_stages, fat_tree_switch_count
from repro.topology.linear_array import LinearArrayTopology

nodes = st.integers(min_value=1, max_value=4096)
ports = st.integers(min_value=4, max_value=128)


class TestFatTreeProperties:
    @given(n=nodes, pr=ports)
    @settings(max_examples=300)
    def test_capacity_covers_nodes(self, n, pr):
        """The chosen stage count must actually be able to connect N nodes."""
        d = fat_tree_stages(n, pr)
        capacity = pr * (pr / 2) ** (d - 1)
        assert capacity >= n
        if d > 1:
            smaller_capacity = pr * (pr / 2) ** (d - 2)
            assert smaller_capacity < n  # d is minimal

    @given(n=nodes, pr=ports)
    @settings(max_examples=300)
    def test_full_bisection_always(self, n, pr):
        topo = FatTreeTopology(n, pr)
        assert topo.full_bisection
        assert topo.bisection_width == math.ceil(n / 2)

    @given(n=nodes, pr=ports)
    @settings(max_examples=300)
    def test_switch_count_formula_consistency(self, n, pr):
        topo = FatTreeTopology(n, pr)
        assert topo.num_switches == fat_tree_switch_count(n, pr)
        assert topo.num_switches == sum(topo.switches_per_stage)
        assert topo.switch_traversals == 2 * topo.num_stages - 1

    @given(n=st.integers(2, 2000), pr=ports)
    @settings(max_examples=200)
    def test_more_nodes_never_fewer_switches(self, n, pr):
        assert fat_tree_switch_count(n, pr) >= fat_tree_switch_count(n - 1, pr)


class TestLinearArrayProperties:
    @given(n=nodes, pr=ports)
    @settings(max_examples=300)
    def test_chain_invariants(self, n, pr):
        topo = LinearArrayTopology(n, pr)
        assert topo.num_switches == math.ceil(n / pr)
        assert topo.bisection_width == 1
        assert topo.average_switch_hops <= topo.diameter_switch_hops + 1
        assert topo.blocked_node_factor == n / 2.0

    @given(n=st.integers(3, 4096), pr=ports)
    @settings(max_examples=200)
    def test_never_full_bisection_beyond_two_nodes(self, n, pr):
        assert not LinearArrayTopology(n, pr).full_bisection


class TestServiceModelProperties:
    techs = st.sampled_from([GIGABIT_ETHERNET, FAST_ETHERNET])

    @given(n=st.integers(2, 1024), pr=ports, m=st.floats(1.0, 1e6), tech=techs)
    @settings(max_examples=200)
    def test_blocking_at_least_as_slow(self, n, pr, m, tech):
        switch = SwitchFabric(ports=pr, latency_s=10e-6)
        blocking = BlockingNetworkModel(tech, switch, n)
        nonblocking = NonBlockingNetworkModel(tech, switch, n)
        assert blocking.service_time(m) >= nonblocking.transmission_time(m) - \
            nonblocking.switch.traversal_time(nonblocking.topology.switch_traversals)
        # Blocking time is non-negative and grows with the message size.
        assert blocking.blocking_time(m) >= 0.0

    @given(n=st.integers(1, 1024), m1=st.floats(1.0, 1e5), m2=st.floats(1.0, 1e5))
    @settings(max_examples=200)
    def test_service_time_monotone_in_message_size(self, n, m1, m2):
        model = NonBlockingNetworkModel(FAST_ETHERNET, SwitchFabric(24, 10e-6), n)
        low, high = sorted((m1, m2))
        assert model.service_time(low) <= model.service_time(high) + 1e-15


class TestRoutingAndTrafficProperties:
    @given(c=st.integers(1, 256), n0=st.integers(1, 256))
    @settings(max_examples=300)
    def test_probability_in_unit_interval(self, c, n0):
        p = outgoing_probability(c, n0)
        assert 0.0 <= p <= 1.0

    @given(c=st.integers(1, 128), n0=st.integers(1, 128), lam=st.floats(0.0, 100.0))
    @settings(max_examples=300)
    def test_flow_conservation(self, c, n0, lam):
        """Total external arrivals equal total ICN1 + ECN1-forward arrivals."""
        rates = compute_traffic_rates(c, n0, lam)
        generated_per_cluster = n0 * lam
        assert math.isclose(
            rates.icn1 + rates.ecn1_forward, generated_per_cluster, rel_tol=1e-9, abs_tol=1e-12
        )
        # The ICN2 carries exactly the remote traffic of all clusters.
        assert math.isclose(rates.icn2, c * rates.ecn1_forward, rel_tol=1e-9, abs_tol=1e-12)
        # ECN1 total is forward plus return.
        assert math.isclose(
            rates.ecn1, rates.ecn1_forward + rates.ecn1_return, rel_tol=1e-9, abs_tol=1e-12
        )


class TestModelProperties:
    cluster_counts = st.sampled_from([1, 2, 4, 8, 16, 32, 64, 128, 256])

    @given(c=cluster_counts, m=st.sampled_from([256.0, 512.0, 1024.0, 2048.0]))
    @settings(max_examples=60, deadline=None)
    def test_latency_positive_and_bounded_by_components(self, c, m):
        system = paper_evaluation_system(c, GIGABIT_ETHERNET, FAST_ETHERNET)
        report = AnalyticalModel(system, ModelConfig(message_bytes=m)).evaluate()
        assert report.mean_latency_s > 0
        low = min(report.local_latency_s, report.remote_latency_s)
        high = max(report.local_latency_s, report.remote_latency_s)
        assert low - 1e-15 <= report.mean_latency_s <= high + 1e-15
        assert all(0.0 <= u < 1.0 for u in report.utilizations.values())
        assert 0.0 < report.effective_rate <= report.nominal_rate + 1e-15

    @given(c=cluster_counts)
    @settings(max_examples=30, deadline=None)
    def test_blocking_never_faster(self, c):
        system = paper_evaluation_system(c, GIGABIT_ETHERNET, FAST_ETHERNET)
        nb = AnalyticalModel(system, ModelConfig(architecture="non-blocking")).evaluate()
        b = AnalyticalModel(system, ModelConfig(architecture="blocking")).evaluate()
        assert b.mean_latency_s >= nb.mean_latency_s

    @given(
        shape=st.tuples(st.integers(1, 32), st.integers(1, 32)).filter(
            lambda cn: cn[0] * cn[1] >= 2
        ),
        techs=st.tuples(*[st.sampled_from([GIGABIT_ETHERNET, FAST_ETHERNET, MYRINET])] * 3),
        architecture=st.sampled_from(["non-blocking", "blocking"]),
        m=st.floats(64.0, 8192.0),
        lam=st.floats(0.0, 50.0),
        speed=st.sampled_from([0.8, 1.0, 1.4]),
    )
    @settings(max_examples=150, deadline=None)
    def test_cluster_of_clusters_reduces_exactly(self, shape, techs, architecture, m, lam, speed):
        """On a homogeneous system the extension is the paper's model, bit for bit."""
        c, n0 = shape
        icn, ecn, icn2 = techs
        system = MultiClusterSystem.super_cluster(
            c, n0, icn, ecn, icn2, processor_type=ProcessorType("p", speed)
        )
        config = ModelConfig(architecture=architecture, message_bytes=m, generation_rate=lam)
        outcomes = []
        for model in (AnalyticalModel, ClusterOfClustersModel):
            try:
                outcomes.append(model(system, config).evaluate())
            except ReproError as error:  # both models must refuse alike
                outcomes.append(type(error))
        paper, extension = outcomes
        if isinstance(paper, type) or isinstance(extension, type):
            assert paper == extension
            return
        assert extension.mean_latency_s == paper.mean_latency_s
        assert extension.iterations == paper.fixed_point_iterations
        assert set(extension.per_cluster_effective_rate.values()) == {paper.effective_rate}
        assert set(extension.per_cluster_local_latency_s.values()) == {paper.local_latency_s}
        assert set(extension.per_cluster_remote_latency_s.values()) == {paper.remote_latency_s}
        assert extension.utilizations["icn2"] == paper.utilizations["icn2"]
