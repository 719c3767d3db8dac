"""One solver for the analytical model, over classes of identical clusters.

The paper's §4 model (a Super-Cluster of ``C`` identical clusters) and its
§7 Cluster-of-Clusters extension (clusters of different sizes, processor
types and network technologies) rest on the same finite-source fixed point
(Eqs. 6–7).  Both are solved here.  Identical clusters — same size,
processor type, ICN and ECN technology — form one *class* ``k`` of ``m_k``
clusters of ``N_k`` processors, so a Super-Cluster is exactly one class with
``m = C`` and the homogeneous model is the equal-cluster case of the
extension.

With ``N = Σ m_k·N_k`` and ``λ_k`` the per-processor rate of class ``k``:

* Eq. (8)   ``P_k = (N − N_k)/(N − 1)``;
* Eq. (1)   ``λ_I1,k = N_k·(1 − P_k)·λ_k``;
* Eq. (2)   forward ECN1 rate ``N_k·P_k·λ_k``; the class sends
  ``outflow_k = m_k·N_k·P_k·λ_k`` into the ICN2, and Eq. (3) sums them,
  ``λ_I2 = Σ outflow``;
* Eq. (4)   a message leaving a class-``j`` cluster picks one of the
  ``N − N_j`` outside nodes, a fraction ``share[j][k]`` of which lie in
  class ``k``, so one class-``k`` cluster receives
  ``Σ_j outflow_j·share[j][k] / m_k``;
* Eq. (5)   ``λ_E1,k`` = forward + return;
* Eq. (6)   class ``k`` holds ``m_k·(2·L_E1,k + L_I1,k)`` waiting processors
  plus its outflow share of ``L_I2``;
* Eq. (7)   ``λ_eff,k = (m_k·N_k − L_k)/(m_k·N_k)·λ_k``, iterated with 0.5
  damping;
* Eqs. (15)–(16)  ``T_k = (1 − P_k)·W_I1,k + P_k·R_k`` with
  ``R_k = W_I2 + (W_E1,k + Σ_j share[k][j]·W_E1,j)``, folded over classes
  by their share of generated messages.

With one class every share and weight is exactly 1.0, every sum has one
term and every product is taken in the order of the closed forms
(:func:`~repro.core.traffic.compute_traffic_rates`,
:meth:`~repro.core.latency.WaitingTimes.from_rates`,
:func:`~repro.core.latency.mean_message_latency`), so the solution equals
them bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul, sub
from typing import TYPE_CHECKING, Dict, NamedTuple, Sequence, Tuple

from ..cluster.processor import ProcessorType
from ..cluster.system import MultiClusterSystem
from ..errors import ConvergenceError, StabilityError
from ..network.models import build_network_model
from ..network.technologies import NetworkTechnology
from .latency import LatencyBreakdown, WaitingTimes, waiting_time
from .traffic import TrafficRates

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .model import ModelConfig

__all__ = [
    "ClusterClass",
    "ClusterClasses",
    "Solution",
    "cluster_classes",
    "mm1_queue_length",
    "solve",
]

#: Relative tolerance on successive Eq. (7) iterates (times the largest λ_k).
TOLERANCE = 1e-10
#: Iteration budget of the damped Eq. (7) iteration.
MAX_ITERATIONS = 10_000


class ClusterClass(NamedTuple):
    """``count`` identical clusters of ``size`` processors each."""

    count: int
    size: int
    processor_type: ProcessorType
    icn_technology: NetworkTechnology
    ecn_technology: NetworkTechnology


class ClusterClasses(NamedTuple):
    """A system's clusters grouped into classes."""

    classes: Tuple[ClusterClass, ...]
    #: The class index of each cluster, in ``system.clusters`` order.
    cluster_class: Tuple[int, ...]


@dataclass(frozen=True)
class Solution:
    """Eqs. (1)–(8) and (15)–(16) at the Eq. (7) solution, per class."""

    #: Canonical architecture label of the network models.
    architecture: str
    #: Nominal per-processor rate ``λ_k``: λ scaled by the processor speed.
    nominal_rates: Tuple[float, ...]
    traffic: Tuple[TrafficRates, ...]
    waits: Tuple[WaitingTimes, ...]
    latency: Tuple[LatencyBreakdown, ...]
    #: ``λ/µ`` of one cluster's ``"icn1"`` and ``"ecn1"`` and of the ``"icn2"``.
    utilizations: Tuple[Dict[str, float], ...]
    #: Each class's share of the generated messages (of the processors at
    #: zero rate); the weights of every per-point fold.
    weights: Tuple[float, ...]
    mean_latency: float
    #: Eq. (6) at the solution; NaN for the open model, which does not
    #: iterate.
    total_waiting: float
    iterations: int

    def fold(self, values: Sequence[float]) -> float:
        """Average per-class ``values`` by :attr:`weights`."""
        return math.fsum([w * v for w, v in zip(self.weights, values)])


def mm1_queue_length(arrival_rate: float, service_rate: float) -> float:
    """M/M/1 mean number in system ``ρ/(1 − ρ)``; +inf when saturated."""
    if arrival_rate >= service_rate:
        return math.inf
    rho = arrival_rate / service_rate
    return rho / (1.0 - rho)


def cluster_classes(system: MultiClusterSystem) -> ClusterClasses:
    """Group ``system``'s clusters into classes.

    Clusters with the same size, processor type, ICN and ECN technology form
    one class; a Super-Cluster is exactly one class.
    """
    index: Dict[tuple, int] = {}
    # Clusters usually share their type and technology objects: look those
    # up by identity and hash each distinct combination's values only once.
    by_identity: Dict[tuple, int] = {}
    cluster_class = []
    for cluster in system.clusters:
        parts = (
            cluster.num_processors,
            cluster.processor_type,
            cluster.icn_technology,
            cluster.ecn_technology,
        )
        identity = (parts[0], id(parts[1]), id(parts[2]), id(parts[3]))
        k = by_identity.get(identity)
        if k is None:
            k = by_identity[identity] = index.setdefault(parts, len(index))
        cluster_class.append(k)
    classes = tuple(
        ClusterClass(cluster_class.count(k), *parts) for k, parts in enumerate(index)
    )
    return ClusterClasses(classes, tuple(cluster_class))


def solve(
    system: MultiClusterSystem, grouping: ClusterClasses, config: "ModelConfig"
) -> Solution:
    """Solve the model for ``system``, grouped by :func:`cluster_classes`.

    Raises
    ------
    ConvergenceError
        If a multi-class Eq. (7) iteration exhausts its budget.  A one-class
        system instead bisects the monotone residual on ``[0, λ]``.
    StabilityError
        If a service centre is saturated at the solution.
    """
    classes = grouping.classes
    message_bytes = float(config.message_bytes)

    def network(technology, attached_nodes):
        return build_network_model(config.architecture, technology, system.switch, attached_nodes)

    nominal = [c.processor_type.scaled_rate(config.generation_rate) for c in classes]
    icn1_rates = [network(c.icn_technology, c.size).service_rate(message_bytes) for c in classes]
    ecn1_rates = [network(c.ecn_technology, c.size).service_rate(message_bytes) for c in classes]
    # The ICN2 interconnects the C cluster-level ECN uplinks.
    icn2_network = network(system.icn2_technology, max(system.num_clusters, 1))
    icn2_rate = icn2_network.service_rate(message_bytes)
    span = range(len(classes))
    populations = [c.count * c.size for c in classes]
    total = sum(populations)
    outgoing = [(total - c.size) / (total - 1) if total > 1 else 0.0 for c in classes]
    # Per-processor coefficients of Eqs. (1)–(3); ``coefficient * λ`` takes
    # the products in the closed forms' left-to-right order.
    icn1_coef = [c.size * (1.0 - p) for c, p in zip(classes, outgoing)]
    forward_coef = [c.size * p for c, p in zip(classes, outgoing)]
    outflow_coef = [pop * p for pop, p in zip(populations, outgoing)]
    # share[j][k]: the fraction of a class-j cluster's outside nodes that lie
    # in class k.  A lone cluster has no outside nodes; its share is 1.
    share = [
        [
            (populations[k] - (classes[k].size if j == k else 0)) / (total - classes[j].size)
            if total > classes[j].size
            else 1.0
            for k in span
        ]
        for j in span
    ]
    # Per class: m_k, m_k·N_k, λ_k, the Eq. (1)–(2) coefficients, the shares
    # of every class's outflow that return into one of its clusters, µ_ECN1
    # and µ_ICN1.
    constants = list(zip(
        [c.count for c in classes], populations, nominal, forward_coef, icn1_coef,
        [[share[j][k] for j in span] for k in span], ecn1_rates, icn1_rates,
    ))

    def evaluate(rates: Sequence[float]):
        """Eqs. (1)–(7) at ``rates``: the ICN2 rate, the return rate into one
        cluster of each class, each class's waiting processors (Eq. 6: its own
        ICN1 and ECN1 queues plus its outflow share of the ICN2 queue) and
        its Eq. (7) rate, with the waiting count clamped to the population."""
        outflow = list(map(mul, outflow_coef, rates))
        icn2 = math.fsum(outflow)
        icn2_length = mm1_queue_length(icn2, icn2_rate)
        returns, waiting, proposed = [], [], []
        for (m, pop, nominal_rate, fwd, icn1, inflow, ecn1_rate, icn1_rate), lam, out in zip(
            constants, rates, outflow
        ):
            ret = math.fsum(map(mul, outflow, inflow)) / m
            w = m * (
                2.0 * mm1_queue_length(fwd * lam + ret, ecn1_rate)
                + mm1_queue_length(icn1 * lam, icn1_rate)
            )
            if out > 0:
                w += out / icn2 * icn2_length
            returns.append(ret)
            waiting.append(w)
            proposed.append((pop - (w if w < pop else float(pop))) / pop * nominal_rate)
        return icn2, returns, waiting, proposed

    rates = nominal
    iterations = 0
    if config.finite_source_correction and max(nominal) > 0:
        threshold = TOLERANCE * max(max(nominal), 1e-300)
        for iterations in range(1, MAX_ITERATIONS + 1):
            # Damped Picard step: half the proposal, half the current rate.
            updated = [0.5 * new + 0.5 * old for new, old in zip(evaluate(rates)[3], rates)]
            step = max(map(abs, map(sub, updated, rates)))
            rates = updated
            if step <= threshold:
                break
        else:
            if len(classes) > 1:
                raise ConvergenceError(
                    f"Eq. (7) iteration did not converge in {MAX_ITERATIONS} iterations"
                )
            rates = [_bisect(lambda x: evaluate([x])[3][0], nominal[0], threshold)]

    icn2, returns, waiting, _ = evaluate(rates)
    total_waiting = math.nan
    if config.finite_source_correction:
        total_waiting = math.fsum(waiting)
        if not math.isfinite(total_waiting):
            raise StabilityError(
                "effective-rate solution still saturates a service centre; "
                "the offered load is infeasible for this configuration"
            )

    traffic = tuple(
        TrafficRates(
            icn1=icn1_coef[k] * rates[k],
            ecn1_forward=forward_coef[k] * rates[k],
            ecn1_return=returns[k],
            ecn1=forward_coef[k] * rates[k] + returns[k],
            icn2=icn2,
            outgoing_probability=outgoing[k],
            per_processor_rate=rates[k],
        )
        for k in span
    )
    # Eq. (16) at every centre, then Eq. (15) per class.
    icn2_wait = waiting_time(icn2, icn2_rate)
    waits = tuple(
        WaitingTimes(
            icn1=waiting_time(t.icn1, icn1_rate),
            ecn1=waiting_time(t.ecn1, ecn1_rate),
            icn2=icn2_wait,
        )
        for t, icn1_rate, ecn1_rate in zip(traffic, icn1_rates, ecn1_rates)
    )
    latency = []
    for k in span:
        local = waits[k].icn1
        remote = icn2_wait + (
            waits[k].ecn1 + math.fsum([share[k][j] * waits[j].ecn1 for j in span])
        )
        p = outgoing[k]
        latency.append(LatencyBreakdown(local, remote, p, (1.0 - p) * local + p * remote))

    generated = [pop * lam for pop, lam in zip(populations, rates)]
    total_generated = math.fsum(generated)
    if total_generated > 0:
        weights = tuple(g / total_generated for g in generated)
    else:
        weights = tuple(pop / total for pop in populations)
    mean = math.fsum([w * item.mean_latency for w, item in zip(weights, latency)])
    if not math.isfinite(mean):
        raise StabilityError("mean latency is not finite; a service centre is saturated")
    utilizations = tuple(
        {"icn1": t.icn1 / icn1_rate, "ecn1": t.ecn1 / ecn1_rate, "icn2": icn2 / icn2_rate}
        for t, icn1_rate, ecn1_rate in zip(traffic, icn1_rates, ecn1_rates)
    )
    return Solution(
        architecture=icn2_network.architecture,
        nominal_rates=tuple(nominal),
        traffic=traffic,
        waits=waits,
        latency=tuple(latency),
        utilizations=utilizations,
        weights=weights,
        mean_latency=mean,
        total_waiting=total_waiting,
        iterations=iterations,
    )


def _bisect(next_rate, nominal: float, threshold: float) -> float:
    """Root of the monotone residual ``next_rate(x) − x`` on ``[0, nominal]``."""
    lo, hi = 0.0, nominal
    if next_rate(hi) - hi >= 0:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = next_rate(mid) - mid
        if abs(g_mid) <= threshold:
            break
        if g_mid > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
