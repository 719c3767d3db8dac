"""Arrival-process generators for the simulator's processors.

The paper's assumption 1 is a Poisson process per processor; the other
processes here (deterministic, bursty MMPP) exist for sensitivity studies of
that assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..batching import DEFAULT_BLOCK_SIZE
from ..errors import ConfigurationError

if TYPE_CHECKING:
    from ..rng import VariateGenerator

__all__ = [
    "ArrivalProcess",
    "PoissonArrivals",
    "DeterministicArrivals",
    "ErlangArrivals",
    "HyperexponentialArrivals",
    "MMPPArrivals",
]


class ArrivalProcess:
    """Base class: an arrival process yields successive inter-arrival times."""

    #: Nominal mean rate (events per unit time) of the process.
    rate: float = 0.0

    def interarrival(self, rng: VariateGenerator) -> float:
        """Draw the next inter-arrival time."""
        raise NotImplementedError

    def sampler(
        self, rng: VariateGenerator, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> Callable[[], float]:
        """Return a zero-argument callable drawing successive inter-arrivals.

        The base implementation falls back to :meth:`interarrival` per
        call; memoryless processes override it with a batched stream that
        reproduces the scalar draw sequence bit-for-bit.  A batched
        sampler reads ahead on ``rng`` and must be its only consumer.
        """
        return lambda: self.interarrival(rng)

    def mean_interarrival(self) -> float:
        """Mean inter-arrival time ``1/rate``."""
        if self.rate <= 0:
            raise ConfigurationError("arrival process has a non-positive rate")
        return 1.0 / self.rate


@dataclass
class PoissonArrivals(ArrivalProcess):
    """Poisson process: exponential inter-arrival times (paper assumption 1)."""

    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate!r}")

    def interarrival(self, rng: VariateGenerator) -> float:
        return rng.exponential_rate(self.rate)

    def sampler(
        self, rng: VariateGenerator, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> Callable[[], float]:
        return rng.exponential_rate_stream(self.rate, block_size)


@dataclass
class DeterministicArrivals(ArrivalProcess):
    """Constant inter-arrival times (periodic sources)."""

    rate: float = 1.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate!r}")

    def interarrival(self, rng: VariateGenerator) -> float:
        return 1.0 / self.rate

    def sampler(
        self, rng: VariateGenerator, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> Callable[[], float]:
        interval = 1.0 / self.rate
        return lambda: interval


@dataclass
class ErlangArrivals(ArrivalProcess):
    """Erlang-``shape`` inter-arrival times (smoother than Poisson, CV² = 1/k).

    An Erlang-k renewal process models sources that go through ``k``
    exponential stages between requests — burst-*free* traffic relative to
    the paper's Poisson assumption 1.  The overall mean inter-arrival time
    is ``1/rate`` regardless of ``shape``; ``shape=1`` recovers Poisson.
    """

    rate: float = 1.0
    shape: int = 4

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate!r}")
        if self.shape < 1:
            raise ConfigurationError(f"shape must be a positive integer, got {self.shape!r}")

    def interarrival(self, rng: VariateGenerator) -> float:
        return rng.erlang(self.shape, 1.0 / self.rate)

    def sampler(
        self, rng: VariateGenerator, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> Callable[[], float]:
        return rng.erlang_stream(self.shape, 1.0 / self.rate, block_size)


@dataclass
class HyperexponentialArrivals(ArrivalProcess):
    """Two-phase hyperexponential inter-arrival times (bursty, CV² > 1).

    The classic balanced-means H2 fit: given the mean ``1/rate`` and a
    squared coefficient of variation ``cv2 >= 1``, phase 1 is chosen with
    probability ``p₁ = (1 + sqrt((cv2−1)/(cv2+1)))/2`` and each phase
    carries half the mean (``p₁·m₁ = p₂·m₂``).  ``cv2 = 1`` degenerates to
    Poisson; larger values produce increasingly bursty request trains while
    keeping the offered load identical.
    """

    rate: float = 1.0
    cv2: float = 4.0

    def __post_init__(self) -> None:
        if self.rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {self.rate!r}")
        if self.cv2 < 1.0:
            raise ConfigurationError(
                f"a hyperexponential needs cv2 >= 1, got {self.cv2!r} "
                "(use ErlangArrivals for sub-exponential variability)"
            )
        # The mixture fit is fixed at construction; computing it here keeps
        # the sqrt/divisions out of the simulator's per-arrival hot path.
        p1 = 0.5 * (1.0 + math.sqrt((self.cv2 - 1.0) / (self.cv2 + 1.0)))
        p2 = 1.0 - p1
        mean = 1.0 / self.rate
        self._phases = ((mean / (2.0 * p1), mean / (2.0 * p2)), (p1, p2))

    @property
    def phases(self):
        """The fitted ``((mean1, mean2), (p1, p2))`` mixture parameters."""
        return self._phases

    def interarrival(self, rng: VariateGenerator) -> float:
        means, probs = self._phases
        return rng.hyperexponential(means, probs)


@dataclass
class MMPPArrivals(ArrivalProcess):
    """Two-state Markov-modulated Poisson process (bursty traffic).

    The process alternates between a *low* and a *high* rate state; state
    holding times are exponential.  Used only by extension studies: the
    paper's model assumes plain Poisson arrivals, and this class quantifies
    how sensitive the latency predictions are to burstiness.
    """

    low_rate: float = 0.5
    high_rate: float = 2.0
    mean_low_duration: float = 10.0
    mean_high_duration: float = 10.0
    def __post_init__(self) -> None:
        if self.low_rate <= 0 or self.high_rate <= 0:
            raise ConfigurationError("both state rates must be positive")
        if self.mean_low_duration <= 0 or self.mean_high_duration <= 0:
            raise ConfigurationError("state durations must be positive")
        self._in_high = False
        self._state_left = 0.0
        # Long-run average rate (time-weighted over the two states).
        total = self.mean_low_duration + self.mean_high_duration
        self.rate = (
            self.low_rate * self.mean_low_duration + self.high_rate * self.mean_high_duration
        ) / total

    def interarrival(self, rng: VariateGenerator) -> float:
        # Advance through (possibly several) state changes until an arrival
        # falls inside the current state's remaining holding time.
        elapsed = 0.0
        for _ in range(10_000):
            current_rate = self.high_rate if self._in_high else self.low_rate
            if self._state_left <= 0.0:
                mean_dur = self.mean_high_duration if self._in_high else self.mean_low_duration
                self._state_left = rng.exponential(mean_dur)
            candidate = rng.exponential_rate(current_rate)
            if candidate <= self._state_left:
                self._state_left -= candidate
                return elapsed + candidate
            elapsed += self._state_left
            self._state_left = 0.0
            self._in_high = not self._in_high
        raise ConfigurationError("MMPP failed to produce an arrival (rates too small?)")
