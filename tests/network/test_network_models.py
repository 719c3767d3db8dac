"""Unit tests for network technologies, switches, units and the §5 service models."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.network.heterogeneous import HeterogeneousLinkMatrix
from repro.network.models import (
    BlockingNetworkModel,
    NonBlockingNetworkModel,
    build_network_model,
)
from repro.network.switch import PAPER_SWITCH, SwitchFabric
from repro.network.technologies import (
    FAST_ETHERNET,
    GIGABIT_ETHERNET,
    NetworkTechnology,
    TECHNOLOGY_PRESETS,
    get_technology,
)
from repro.network.units import (
    bandwidth_to_seconds_per_byte,
    bytes_per_s_to_mbps,
    mbps_to_bytes_per_s,
    ms_to_s,
    s_to_ms,
    s_to_us,
    us_to_s,
)


class TestUnits:
    def test_time_round_trips(self):
        assert s_to_us(us_to_s(80.0)) == pytest.approx(80.0)
        assert s_to_ms(ms_to_s(2.5)) == pytest.approx(2.5)

    def test_bandwidth_round_trip(self):
        assert bytes_per_s_to_mbps(mbps_to_bytes_per_s(94.0)) == pytest.approx(94.0)

    def test_beta_from_bandwidth(self):
        # 10.5 MB/s => 1/(10.5e6) s per byte.
        assert bandwidth_to_seconds_per_byte(10.5e6) == pytest.approx(1.0 / 10.5e6)
        with pytest.raises(ValueError):
            bandwidth_to_seconds_per_byte(0.0)


class TestTechnologies:
    def test_paper_table2_gigabit_ethernet(self):
        assert GIGABIT_ETHERNET.latency_s == pytest.approx(80e-6)
        assert GIGABIT_ETHERNET.bandwidth_bytes_per_s == pytest.approx(94e6)

    def test_paper_table2_fast_ethernet(self):
        assert FAST_ETHERNET.latency_s == pytest.approx(50e-6)
        assert FAST_ETHERNET.bandwidth_bytes_per_s == pytest.approx(10.5e6)

    def test_transmission_time_equation_10(self):
        # T = α + M·β for M = 1024 bytes on GE.
        expected = 80e-6 + 1024 / 94e6
        assert GIGABIT_ETHERNET.transmission_time(1024) == pytest.approx(expected)

    def test_transmission_time_validation(self):
        with pytest.raises(ConfigurationError):
            GIGABIT_ETHERNET.transmission_time(-1.0)

    def test_ge_faster_than_fe_for_large_messages(self):
        assert GIGABIT_ETHERNET.transmission_time(8192) < FAST_ETHERNET.transmission_time(8192)

    def test_fe_faster_for_tiny_messages(self):
        # FE has the lower latency in Table 2 (50 vs 80 µs).
        assert FAST_ETHERNET.transmission_time(1) < GIGABIT_ETHERNET.transmission_time(1)

    def test_invalid_technology_parameters(self):
        with pytest.raises(ConfigurationError):
            NetworkTechnology("bad", latency_s=-1.0, bandwidth_bytes_per_s=1e6)
        with pytest.raises(ConfigurationError):
            NetworkTechnology("bad", latency_s=1e-6, bandwidth_bytes_per_s=0.0)

    def test_presets_lookup(self):
        assert get_technology("GE") is GIGABIT_ETHERNET
        assert get_technology("fast-ethernet") is FAST_ETHERNET
        assert "myrinet" in TECHNOLOGY_PRESETS
        with pytest.raises(ConfigurationError):
            get_technology("carrier-pigeon")

    def test_scaled(self):
        doubled = FAST_ETHERNET.scaled(bandwidth_factor=2.0)
        assert doubled.bandwidth_bytes_per_s == pytest.approx(21e6)
        with pytest.raises(ConfigurationError):
            FAST_ETHERNET.scaled(bandwidth_factor=0.0)

    def test_str(self):
        assert "94.0 MB/s" in str(GIGABIT_ETHERNET)


class TestSwitchFabric:
    def test_paper_switch(self):
        assert PAPER_SWITCH.ports == 24
        assert PAPER_SWITCH.latency_s == pytest.approx(10e-6)

    def test_traversal_time(self):
        assert PAPER_SWITCH.traversal_time(3) == pytest.approx(30e-6)
        with pytest.raises(ConfigurationError):
            PAPER_SWITCH.traversal_time(-1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SwitchFabric(ports=1, latency_s=1e-6)
        with pytest.raises(ConfigurationError):
            SwitchFabric(ports=8, latency_s=-1e-6)

    def test_str(self):
        assert "24-port" in str(PAPER_SWITCH)


class TestNonBlockingModel:
    def test_equation_11_service_time(self):
        """T = α + (2d−1)·α_sw + M·β with d from Eq. 12."""
        model = NonBlockingNetworkModel(GIGABIT_ETHERNET, PAPER_SWITCH, attached_nodes=256)
        assert model.stages == 2
        expected = 80e-6 + 3 * 10e-6 + 1024 / 94e6
        assert model.transmission_time(1024) == pytest.approx(expected)
        assert model.service_time(1024) == pytest.approx(expected)

    def test_zero_blocking_time(self):
        model = NonBlockingNetworkModel(FAST_ETHERNET, PAPER_SWITCH, attached_nodes=64)
        assert model.blocking_time(1024) == 0.0
        assert model.network_latency(1024) == model.transmission_time(1024)
        assert model.has_full_bisection

    def test_single_stage_small_network(self):
        model = NonBlockingNetworkModel(FAST_ETHERNET, PAPER_SWITCH, attached_nodes=16)
        assert model.stages == 1
        expected = 50e-6 + 1 * 10e-6 + 512 / 10.5e6
        assert model.service_time(512) == pytest.approx(expected)

    def test_service_rate_is_reciprocal(self):
        model = NonBlockingNetworkModel(FAST_ETHERNET, PAPER_SWITCH, attached_nodes=16)
        assert model.service_rate(512) == pytest.approx(1.0 / model.service_time(512))

    def test_message_size_validation(self):
        model = NonBlockingNetworkModel(FAST_ETHERNET, PAPER_SWITCH, attached_nodes=16)
        with pytest.raises(ConfigurationError):
            model.transmission_time(-5.0)
        with pytest.raises(ConfigurationError):
            model.blocking_time(-5.0)


class TestBlockingModel:
    def test_equation_21_service_time(self):
        """T = α + ((k+1)/3)·α_sw + (N/2)·M·β for N = 256, Pr = 24 (k = 11)."""
        model = BlockingNetworkModel(FAST_ETHERNET, PAPER_SWITCH, attached_nodes=256)
        assert model.num_switches == 11
        expected = 50e-6 + 4.0 * 10e-6 + 128 * 1024 / 10.5e6
        assert model.service_time(1024) == pytest.approx(expected)

    def test_equation_19_and_20_split(self):
        model = BlockingNetworkModel(FAST_ETHERNET, PAPER_SWITCH, attached_nodes=256)
        # Eq. (19): transmission without contention.
        assert model.transmission_time(1024) == pytest.approx(
            50e-6 + 4.0 * 10e-6 + 1024 / 10.5e6
        )
        # Eq. (20): blocking time (N/2 − 1)·M·β.
        assert model.blocking_time(1024) == pytest.approx(127 * 1024 / 10.5e6)
        # Their sum equals the total network latency.
        assert model.network_latency(1024) == pytest.approx(
            model.transmission_time(1024) + model.blocking_time(1024)
        )

    def test_no_full_bisection(self):
        assert not BlockingNetworkModel(FAST_ETHERNET, PAPER_SWITCH, 256).has_full_bisection

    def test_tiny_network_no_blocking(self):
        model = BlockingNetworkModel(FAST_ETHERNET, PAPER_SWITCH, attached_nodes=2)
        assert model.blocking_time(1024) == 0.0

    def test_blocking_slower_than_nonblocking(self):
        blocking = BlockingNetworkModel(FAST_ETHERNET, PAPER_SWITCH, 256)
        nonblocking = NonBlockingNetworkModel(FAST_ETHERNET, PAPER_SWITCH, 256)
        assert blocking.service_time(1024) > nonblocking.service_time(1024)


class TestFactory:
    def test_build_by_name(self):
        nb = build_network_model("non-blocking", FAST_ETHERNET, PAPER_SWITCH, 16)
        assert isinstance(nb, NonBlockingNetworkModel)
        b = build_network_model("blocking", FAST_ETHERNET, PAPER_SWITCH, 16)
        assert isinstance(b, BlockingNetworkModel)

    def test_aliases(self):
        assert isinstance(
            build_network_model("fat-tree", FAST_ETHERNET, PAPER_SWITCH, 16),
            NonBlockingNetworkModel,
        )
        assert isinstance(
            build_network_model("linear_array", FAST_ETHERNET, PAPER_SWITCH, 16),
            BlockingNetworkModel,
        )

    def test_unknown_architecture(self):
        with pytest.raises(ConfigurationError):
            build_network_model("quantum", FAST_ETHERNET, PAPER_SWITCH, 16)

    def test_attached_nodes_validation(self):
        with pytest.raises(ConfigurationError):
            build_network_model("blocking", FAST_ETHERNET, PAPER_SWITCH, 0)


class TestHeterogeneousMatrix:
    def test_homogeneous_construction(self):
        matrix = HeterogeneousLinkMatrix.homogeneous(4, FAST_ETHERNET)
        assert matrix.size == 4
        assert matrix.transmission_time(0, 1, 1024) == pytest.approx(
            FAST_ETHERNET.transmission_time(1024)
        )

    def test_from_node_technologies_slowest_dominates(self):
        matrix = HeterogeneousLinkMatrix.from_node_technologies(
            [GIGABIT_ETHERNET, FAST_ETHERNET]
        )
        # The GE-FE pair is limited by FE's bandwidth and GE's latency.
        t = matrix.transmission_time(0, 1, 1024)
        assert t == pytest.approx(max(GIGABIT_ETHERNET.alpha, FAST_ETHERNET.alpha)
                                  + 1024 * max(GIGABIT_ETHERNET.beta, FAST_ETHERNET.beta))

    def test_mean_offdiagonal(self):
        matrix = HeterogeneousLinkMatrix.homogeneous(3, FAST_ETHERNET)
        assert matrix.mean_offdiagonal_transmission_time(512) == pytest.approx(
            FAST_ETHERNET.transmission_time(512)
        )

    def test_self_messages_cost_nothing(self):
        # Regression: the constructors zeroed diagonal alpha but left the
        # technology beta, so a self-addressed message still cost M*beta.
        for matrix in (
            HeterogeneousLinkMatrix.homogeneous(3, FAST_ETHERNET),
            HeterogeneousLinkMatrix.from_node_technologies(
                [GIGABIT_ETHERNET, FAST_ETHERNET, FAST_ETHERNET]
            ),
        ):
            for node in range(matrix.size):
                assert matrix.transmission_time(node, node, 4096) == 0.0

    def test_diagonal_beta_tolerated_off_diagonal_still_validated(self):
        import numpy as np

        # Zero on the diagonal is the constructors' own convention ...
        beta = np.full((2, 2), FAST_ETHERNET.beta)
        np.fill_diagonal(beta, 0.0)
        HeterogeneousLinkMatrix(np.zeros((2, 2)), beta)
        # ... but a zero off-diagonal beta is still a configuration error.
        bad = np.full((2, 2), FAST_ETHERNET.beta)
        bad[0, 1] = 0.0
        with pytest.raises(ConfigurationError):
            HeterogeneousLinkMatrix(np.zeros((2, 2)), bad)

    def test_index_validation(self):
        matrix = HeterogeneousLinkMatrix.homogeneous(2, FAST_ETHERNET)
        with pytest.raises(ConfigurationError):
            matrix.transmission_time(0, 5, 100)
        with pytest.raises(ConfigurationError):
            matrix.transmission_time(0, 1, -1)

    def test_shape_validation(self):
        import numpy as np

        with pytest.raises(ConfigurationError):
            HeterogeneousLinkMatrix(np.zeros((2, 3)), np.ones((2, 3)))
        with pytest.raises(ConfigurationError):
            HeterogeneousLinkMatrix(np.zeros((2, 2)), np.zeros((2, 2)))  # beta must be > 0

    @pytest.mark.parametrize(
        "alpha, beta, match",
        [
            ([[0.0, 1e-6], [1e-6, 0.0]], [[0.0, 1e-8]], "same shape"),
            ([[0.0, -1e-6], [1e-6, 0.0]], [[0.0, 1e-8], [1e-8, 0.0]], "latencies"),
            ([[0.0, 1e-6], [1e-6, 0.0]], [[-1e-8, 1e-8], [1e-8, 0.0]], "per-byte"),
        ],
    )
    def test_entry_validation(self, alpha, beta, match):
        import numpy as np

        with pytest.raises(ConfigurationError, match=match):
            HeterogeneousLinkMatrix(np.array(alpha), np.array(beta))

    def test_from_node_technologies_needs_a_node(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            HeterogeneousLinkMatrix.from_node_technologies([])

    def test_single_endpoint_has_no_offdiagonal_pair(self):
        matrix = HeterogeneousLinkMatrix.homogeneous(1, FAST_ETHERNET)
        assert matrix.mean_offdiagonal_transmission_time(512) == 0.0

    def test_mean_offdiagonal_rejects_negative_size(self):
        matrix = HeterogeneousLinkMatrix.homogeneous(3, FAST_ETHERNET)
        with pytest.raises(ConfigurationError, match="message size"):
            matrix.mean_offdiagonal_transmission_time(-1)

    def test_mean_offdiagonal_averages_mixed_pairs(self):
        # GE-GE, GE-FE and FE-GE: every pair with an FE endpoint runs at FE speed.
        matrix = HeterogeneousLinkMatrix.from_node_technologies(
            [GIGABIT_ETHERNET, GIGABIT_ETHERNET, FAST_ETHERNET]
        )
        mixed = matrix.transmission_time(0, 2, 512)
        expected = (2 * GIGABIT_ETHERNET.transmission_time(512) + 4 * mixed) / 6
        assert matrix.mean_offdiagonal_transmission_time(512) == pytest.approx(expected)
