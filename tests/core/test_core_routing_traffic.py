"""Unit tests for the routing probability (Eq. 8) and traffic equations (Eqs. 1-5)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.routing import (
    local_destinations,
    local_probability,
    outgoing_probability,
    remote_destinations,
)
from repro.core.traffic import compute_traffic_rates
from repro.errors import ConfigurationError


class TestRoutingProbability:
    def test_equation_8_paper_platform(self):
        """P = (C−1)·N0/(C·N0 − 1) for the paper's N = 256 platform."""
        # C = 16, N0 = 16: P = 15*16/255 = 0.941176...
        assert outgoing_probability(16, 16) == pytest.approx(240.0 / 255.0)
        # C = 2, N0 = 128: P = 128/255.
        assert outgoing_probability(2, 128) == pytest.approx(128.0 / 255.0)

    def test_single_cluster_probability_zero(self):
        assert outgoing_probability(1, 256) == 0.0
        assert local_probability(1, 256) == 1.0

    def test_one_node_per_cluster_probability_one(self):
        assert outgoing_probability(256, 1) == pytest.approx(1.0)

    def test_single_node_system(self):
        assert outgoing_probability(1, 1) == 0.0

    def test_probability_bounds_and_monotonicity(self):
        previous = -1.0
        for c in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            p = outgoing_probability(c, 256 // c)
            assert 0.0 <= p <= 1.0
            assert p >= previous  # P grows as the cluster count grows (N fixed)
            previous = p

    def test_local_plus_outgoing_is_one(self):
        assert local_probability(8, 32) + outgoing_probability(8, 32) == pytest.approx(1.0)

    def test_destination_counts(self):
        assert remote_destinations(4, 8) == 24
        assert local_destinations(4, 8) == 7
        # They must sum to N − 1.
        assert remote_destinations(4, 8) + local_destinations(4, 8) == 31

    def test_probability_equals_destination_ratio(self):
        c, n0 = 8, 32
        expected = remote_destinations(c, n0) / (c * n0 - 1)
        assert outgoing_probability(c, n0) == pytest.approx(expected)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            outgoing_probability(0, 4)
        with pytest.raises(ConfigurationError):
            outgoing_probability(4, 0)


class TestTrafficEquations:
    def test_equations_1_to_5_closed_forms(self):
        """Check λ_I1 = N0(1−P)λ, λ_E1 = 2N0Pλ, λ_I2 = C·N0·P·λ."""
        c, n0, lam = 16, 16, 0.25
        rates = compute_traffic_rates(c, n0, lam)
        p = rates.outgoing_probability
        assert rates.icn1 == pytest.approx(n0 * (1 - p) * lam)
        assert rates.ecn1_forward == pytest.approx(n0 * p * lam)
        assert rates.ecn1_return == pytest.approx(n0 * p * lam)
        assert rates.ecn1 == pytest.approx(2 * n0 * p * lam)
        assert rates.icn2 == pytest.approx(c * n0 * p * lam)

    def test_ecn1_return_is_icn2_divided_by_c(self):
        """Eq. (4): λ_E1^(2) = λ_I2 / C."""
        rates = compute_traffic_rates(8, 32, 0.5)
        assert rates.ecn1_return == pytest.approx(rates.icn2 / 8)

    def test_single_cluster_all_traffic_local(self):
        rates = compute_traffic_rates(1, 256, 0.25)
        assert rates.icn1 == pytest.approx(256 * 0.25)
        assert rates.ecn1 == 0.0
        assert rates.icn2 == 0.0

    def test_one_node_per_cluster_all_traffic_remote(self):
        rates = compute_traffic_rates(256, 1, 0.25)
        assert rates.icn1 == pytest.approx(0.0)
        assert rates.icn2 == pytest.approx(256 * 0.25)

    def test_rates_scale_linearly_with_lambda(self):
        base = compute_traffic_rates(4, 8, 0.25)
        double = compute_traffic_rates(4, 8, 0.5)
        assert double.icn1 == pytest.approx(2 * base.icn1)
        assert double.ecn1 == pytest.approx(2 * base.ecn1)
        assert double.icn2 == pytest.approx(2 * base.icn2)

    def test_explicit_outgoing_probability_override(self):
        rates = compute_traffic_rates(4, 8, 1.0, outgoing_prob=0.5)
        assert rates.outgoing_probability == 0.5
        assert rates.icn1 == pytest.approx(4.0)
        with pytest.raises(ConfigurationError):
            compute_traffic_rates(4, 8, 1.0, outgoing_prob=1.5)

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_traffic_rates(4, 8, -0.1)

    def test_zero_rate(self):
        rates = compute_traffic_rates(4, 8, 0.0)
        assert rates.icn1 == rates.ecn1 == rates.icn2 == 0.0

    def test_total_network_load(self):
        rates = compute_traffic_rates(2, 4, 1.0)
        assert rates.total_network_load == pytest.approx(rates.icn1 + rates.ecn1 + rates.icn2)


class TestTrafficAgainstGenericJacksonSolver:
    """Cross-check the paper's hand-derived rates against Jackson's traffic equations."""

    def test_supercluster_flow_balance(self):
        c, n0, lam = 4, 8, 0.25
        paper = compute_traffic_rates(c, n0, lam)
        p = paper.outgoing_probability

        # The equivalent open network: ICN1 of cluster i is centre i, its
        # ECN1 is centre c + i, and the one ICN2 is centre 2c.  External
        # arrivals model the processors of each cluster; remote traffic goes
        # ECN1 -> ICN2 -> ECN1, returning uniformly over the clusters' ECN1s.
        icn2 = 2 * c
        external = np.zeros(2 * c + 1)
        routing = np.zeros((2 * c + 1, 2 * c + 1))
        for i in range(c):
            external[i] = n0 * (1 - p) * lam
            external[c + i] = n0 * p * lam
            routing[c + i, icn2] = 0.5  # only forward visits continue
            routing[icn2, c + i] = 1.0 / c
        # Traffic equations λ = γ + Pᵀλ.
        rates = np.linalg.solve(np.eye(2 * c + 1) - routing.T, external)

        # The forward ECN1 visit happens at rate N0·P·λ; the return path
        # doubles it, matching Eq. (5).
        assert rates[icn2] == pytest.approx(paper.icn2)
        assert rates[c] == pytest.approx(paper.ecn1)
        assert rates[0] == pytest.approx(paper.icn1)
