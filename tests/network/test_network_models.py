"""Unit tests for network technologies, switches, units and the §5 service models."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
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

    def test_message_size_validation(self):
        model = BlockingNetworkModel(FAST_ETHERNET, PAPER_SWITCH, attached_nodes=256)
        with pytest.raises(ConfigurationError, match="non-negative"):
            model.transmission_time(-1.0)
        with pytest.raises(ConfigurationError, match="non-negative"):
            model.blocking_time(-1.0)

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

