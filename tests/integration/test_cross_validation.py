"""Cross-validation tests tying the substrates together.

These tests check agreement *between* independent parts of the library:
the simulator's service centre against closed-form queueing theory, and the
full analytical model against a by-hand evaluation of the paper's equations.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.cluster.presets import paper_evaluation_system
from repro.core.model import AnalyticalModel, ModelConfig
from repro.network.technologies import FAST_ETHERNET, GIGABIT_ETHERNET
from repro.queueing.distributions import Exponential
from repro.rng import RandomStreams
from repro.simulation.components import ServiceCenterSim
from repro.simulation.message import Message
from repro.topology.fattree import fat_tree_stages


class TestKernelAgainstQueueingTheory:
    """Run the simulator's FIFO service centre as an M/M/1 queue.

    Its mean sojourn time must match the closed form ``1/(μ−λ)``.  Each
    arrival admits one message; the virtual FIFO returns the message's
    departure at once, so the sojourn time is known at admission, and the
    departures are committed in time order.
    """

    def _simulate_queue(self, arrival_rate, service_rate, num_customers, seed=7):
        streams = RandomStreams(seed)
        arrivals = streams.stream("arrivals")
        server = ServiceCenterSim(
            "mm1", Exponential.from_rate(service_rate), streams.stream("services")
        )
        sojourn_times = []
        pending = deque()
        now = 0.0
        for ident in range(num_customers):
            now += arrivals.exponential_rate(arrival_rate)
            while pending and pending[0] <= now:
                server.depart(pending.popleft())
            depart = server.begin(Message(ident, (0, 0), (0, 0), 0.0, created_at=now), now)
            pending.append(depart)
            sojourn_times.append(depart - now)
        while pending:
            server.depart(pending.popleft())
        assert server.served == num_customers
        # Discard the first 10% as warm-up.
        steady = sojourn_times[len(sojourn_times) // 10:]
        return sum(steady) / len(steady)

    def test_mm1_sojourn_time(self):
        lam, mu = 4.0, 10.0
        simulated = self._simulate_queue(lam, mu, num_customers=40_000)
        assert simulated == pytest.approx(1.0 / (mu - lam), rel=0.05)
        assert simulated.hex() == "0x1.56a90bcbe10d1p-3"

    def test_mm1_heavier_load(self):
        lam, mu = 8.0, 10.0
        simulated = self._simulate_queue(lam, mu, num_customers=60_000, seed=11)
        assert simulated == pytest.approx(1.0 / (mu - lam), rel=0.10)
        assert simulated.hex() == "0x1.f8f2c46780889p-2"

class TestModelAgainstHandComputation:
    """Evaluate the paper's equations by hand for one configuration."""

    def test_case1_nonblocking_c4_by_hand(self):
        # Configuration: Case-1, C = 4 clusters, N0 = 64, M = 512, λ = 0.25.
        C, N0, M, LAM = 4, 64, 512.0, 0.25
        system = paper_evaluation_system(C, GIGABIT_ETHERNET, FAST_ETHERNET)
        report = AnalyticalModel(
            system, ModelConfig(architecture="non-blocking", message_bytes=M)
        ).evaluate()

        # Eq. (8): routing probability.
        P = (C - 1) * N0 / (C * N0 - 1)
        assert report.outgoing_probability == pytest.approx(P)

        # Service times (Eq. 11) — ICN1 on GE with N0=64 nodes (d=2 for Pr=24),
        # ECN1 on FE with N0=64 (d=2), ICN2 on FE with C=4 (d=1).
        alpha_sw = 10e-6
        assert fat_tree_stages(64, 24) == 2
        assert fat_tree_stages(4, 24) == 1
        t_icn1 = 80e-6 + 3 * alpha_sw + M / 94e6
        t_ecn1 = 50e-6 + 3 * alpha_sw + M / 10.5e6
        t_icn2 = 50e-6 + 1 * alpha_sw + M / 10.5e6
        assert report.service_times["icn1"] == pytest.approx(t_icn1)
        assert report.service_times["ecn1"] == pytest.approx(t_ecn1)
        assert report.service_times["icn2"] == pytest.approx(t_icn2)

        # Eqs. (1)-(5) with the effective rate the model converged to.
        lam_eff = report.effective_rate
        lam_icn1 = N0 * (1 - P) * lam_eff
        lam_ecn1 = 2 * N0 * P * lam_eff
        lam_icn2 = C * N0 * P * lam_eff
        assert report.traffic.icn1 == pytest.approx(lam_icn1)
        assert report.traffic.ecn1 == pytest.approx(lam_ecn1)
        assert report.traffic.icn2 == pytest.approx(lam_icn2)

        # Eq. (16) waiting times and Eq. (15) latency.
        w_icn1 = 1.0 / (1.0 / t_icn1 - lam_icn1)
        w_ecn1 = 1.0 / (1.0 / t_ecn1 - lam_ecn1)
        w_icn2 = 1.0 / (1.0 / t_icn2 - lam_icn2)
        expected_latency = (1 - P) * w_icn1 + P * (w_icn2 + 2 * w_ecn1)
        assert report.mean_latency_s == pytest.approx(expected_latency, rel=1e-9)

        # The effective rate must also satisfy Eq. (7).
        l_icn1 = lam_icn1 * t_icn1 / (1 - lam_icn1 * t_icn1)
        l_ecn1 = lam_ecn1 * t_ecn1 / (1 - lam_ecn1 * t_ecn1)
        l_icn2 = lam_icn2 * t_icn2 / (1 - lam_icn2 * t_icn2)
        total_l = C * (2 * l_ecn1 + l_icn1) + l_icn2
        n_total = C * N0
        assert lam_eff == pytest.approx((n_total - total_l) / n_total * LAM, rel=1e-6)

    def test_case2_blocking_c16_by_hand(self):
        # Configuration: Case-2, C = 16, N0 = 16, M = 1024, blocking fabric.
        C, N0, M = 16, 16, 1024.0
        system = paper_evaluation_system(C, FAST_ETHERNET, GIGABIT_ETHERNET)
        report = AnalyticalModel(
            system, ModelConfig(architecture="blocking", message_bytes=M)
        ).evaluate()

        # Blocking service times (Eq. 21): k = ceil(N/Pr) = 1 for 16 nodes,
        # so the switch term is (1+1)/3 traversals; contention = (N/2)·M·β.
        t_icn1 = 50e-6 + (2.0 / 3.0) * 10e-6 + (N0 / 2) * M / 10.5e6          # FE inside
        t_ecn1 = 80e-6 + (2.0 / 3.0) * 10e-6 + (N0 / 2) * M / 94e6            # GE uplink
        t_icn2 = 80e-6 + (2.0 / 3.0) * 10e-6 + (C / 2) * M / 94e6             # GE backbone
        assert report.service_times["icn1"] == pytest.approx(t_icn1)
        assert report.service_times["ecn1"] == pytest.approx(t_ecn1)
        assert report.service_times["icn2"] == pytest.approx(t_icn2)

        # Latency composition (Eq. 15) with the reported waits.
        P = report.outgoing_probability
        expected = (1 - P) * report.waits.icn1 + P * (report.waits.icn2 + 2 * report.waits.ecn1)
        assert report.mean_latency_s == pytest.approx(expected, rel=1e-12)
