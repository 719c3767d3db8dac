"""Distribution descriptors for inter-arrival and service processes.

These are lightweight value objects used both by the analytical formulas
(which only need the mean and the squared coefficient of variation, SCV) and
by the simulator (which samples them through a
:class:`repro.rng.VariateGenerator`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from ..batching import DEFAULT_BLOCK_SIZE
from ..rng import VariateGenerator

__all__ = [
    "Distribution",
    "Exponential",
    "Deterministic",
    "Erlang",
    "HyperExponential",
    "UniformDistribution",
]


class Distribution:
    """Abstract base class for positive-valued distributions.

    Subclasses expose :attr:`mean`, :attr:`variance`, :attr:`scv` (squared
    coefficient of variation) and :meth:`sample`.
    """

    @property
    def mean(self) -> float:
        """Expected value."""
        raise NotImplementedError

    @property
    def variance(self) -> float:
        """Variance."""
        raise NotImplementedError

    @property
    def scv(self) -> float:
        """Squared coefficient of variation ``Var/Mean^2``."""
        mean = self.mean
        if mean == 0:
            return math.nan
        return self.variance / (mean * mean)

    @property
    def rate(self) -> float:
        """Reciprocal of the mean (service or arrival rate)."""
        mean = self.mean
        if mean <= 0:
            raise ValueError("rate undefined for non-positive mean")
        return 1.0 / mean

    def sample(self, rng: VariateGenerator) -> float:
        """Draw one variate using ``rng``."""
        raise NotImplementedError

    def sampler(self, rng: VariateGenerator, block_size: int = DEFAULT_BLOCK_SIZE):
        """Return a zero-argument callable drawing successive variates.

        The default falls back to one :meth:`sample` call per invocation;
        distributions with a matching :class:`~repro.rng.VariateStream`
        family override this with a batched stream that reproduces the
        scalar draw sequence bit-for-bit.  A batched sampler reads ahead on
        ``rng``, so the stream must be this sampler's exclusive consumer.
        """
        return lambda: self.sample(rng)

    def scaled(self, factor: float) -> "Distribution":
        """Return a copy whose mean is multiplied by ``factor``."""
        raise NotImplementedError


@dataclass(frozen=True)
class Exponential(Distribution):
    """Exponential distribution with the given mean (Markovian, SCV = 1)."""

    mean_value: float

    def __post_init__(self) -> None:
        if self.mean_value <= 0:
            raise ValueError(f"mean must be positive, got {self.mean_value!r}")

    @property
    def mean(self) -> float:
        return self.mean_value

    @property
    def variance(self) -> float:
        return self.mean_value**2

    def sample(self, rng: VariateGenerator) -> float:
        return rng.exponential(self.mean_value)

    def sampler(self, rng: VariateGenerator, block_size: int = DEFAULT_BLOCK_SIZE):
        return rng.exponential_stream(self.mean_value, block_size)

    def scaled(self, factor: float) -> "Exponential":
        return Exponential(self.mean_value * factor)

    @classmethod
    def from_rate(cls, rate: float) -> "Exponential":
        """Construct from a rate (events per time unit)."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        return cls(1.0 / rate)


@dataclass(frozen=True)
class Deterministic(Distribution):
    """Degenerate distribution: every sample equals ``value`` (SCV = 0)."""

    value: float

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"value must be non-negative, got {self.value!r}")

    @property
    def mean(self) -> float:
        return self.value

    @property
    def variance(self) -> float:
        return 0.0

    def sample(self, rng: VariateGenerator) -> float:
        return rng.deterministic(self.value)

    def sampler(self, rng: VariateGenerator, block_size: int = DEFAULT_BLOCK_SIZE):
        value = float(self.value)
        return lambda: value

    def scaled(self, factor: float) -> "Deterministic":
        return Deterministic(self.value * factor)


@dataclass(frozen=True)
class Erlang(Distribution):
    """Erlang-k distribution (sum of k exponentials), SCV = 1/k < 1."""

    k: int
    mean_value: float

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if self.mean_value <= 0:
            raise ValueError(f"mean must be positive, got {self.mean_value!r}")

    @property
    def mean(self) -> float:
        return self.mean_value

    @property
    def variance(self) -> float:
        return self.mean_value**2 / self.k

    def sample(self, rng: VariateGenerator) -> float:
        return rng.erlang(self.k, self.mean_value)

    def sampler(self, rng: VariateGenerator, block_size: int = DEFAULT_BLOCK_SIZE):
        return rng.erlang_stream(self.k, self.mean_value, block_size)

    def scaled(self, factor: float) -> "Erlang":
        return Erlang(self.k, self.mean_value * factor)


@dataclass(frozen=True)
class HyperExponential(Distribution):
    """Mixture of exponentials (SCV > 1), for bursty service processes."""

    means: Tuple[float, ...]
    probabilities: Tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.means) != len(self.probabilities) or not self.means:
            raise ValueError("means and probabilities must be non-empty and equal length")
        if any(m <= 0 for m in self.means):
            raise ValueError("all means must be positive")
        if any(p < 0 for p in self.probabilities):
            raise ValueError("probabilities must be non-negative")
        if not math.isclose(sum(self.probabilities), 1.0, rel_tol=1e-9, abs_tol=1e-12):
            raise ValueError(f"probabilities must sum to 1, got {sum(self.probabilities)!r}")

    @property
    def mean(self) -> float:
        return sum(p * m for p, m in zip(self.probabilities, self.means))

    @property
    def second_moment(self) -> float:
        """E[X^2] of the mixture."""
        return sum(p * 2.0 * m * m for p, m in zip(self.probabilities, self.means))

    @property
    def variance(self) -> float:
        return self.second_moment - self.mean**2

    def sample(self, rng: VariateGenerator) -> float:
        return rng.hyperexponential(self.means, self.probabilities)

    def scaled(self, factor: float) -> "HyperExponential":
        return HyperExponential(tuple(m * factor for m in self.means), self.probabilities)

    @classmethod
    def from_mean_and_scv(cls, mean: float, scv: float) -> "HyperExponential":
        """Two-phase balanced-means fit for a target mean and SCV > 1."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        if scv <= 1:
            raise ValueError(f"SCV must exceed 1 for a hyperexponential fit, got {scv!r}")
        # Balanced-means two-phase fit (Whitt, 1982).
        p1 = 0.5 * (1.0 + math.sqrt((scv - 1.0) / (scv + 1.0)))
        p2 = 1.0 - p1
        m1 = mean / (2.0 * p1)
        m2 = mean / (2.0 * p2)
        return cls((m1, m2), (p1, p2))


@dataclass(frozen=True)
class UniformDistribution(Distribution):
    """Uniform distribution on ``[low, high]`` (used by extension workloads)."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError(f"need 0 <= low <= high, got [{self.low!r}, {self.high!r}]")

    @property
    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    @property
    def variance(self) -> float:
        return (self.high - self.low) ** 2 / 12.0

    def sample(self, rng: VariateGenerator) -> float:
        return rng.uniform(self.low, self.high)

    def sampler(self, rng: VariateGenerator, block_size: int = DEFAULT_BLOCK_SIZE):
        return rng.uniform_stream(self.low, self.high, block_size)

    def scaled(self, factor: float) -> "UniformDistribution":
        return UniformDistribution(self.low * factor, self.high * factor)
