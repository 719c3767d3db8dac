"""Unit tests for the service-time distribution descriptors."""

from __future__ import annotations

import numpy as np
import pytest

from repro.des.rng import RandomStreams
from repro.queueing.distributions import (
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    UniformDistribution,
)


@pytest.fixture
def rng():
    return RandomStreams(seed=99).stream("dist")


class TestExponential:
    def test_validation(self):
        with pytest.raises(ValueError):
            Exponential(0.0)

    def test_moments(self):
        d = Exponential(2.0)
        assert d.mean == 2.0
        assert d.variance == 4.0
        assert d.scv == pytest.approx(1.0)
        assert d.rate == pytest.approx(0.5)

    def test_from_rate(self):
        assert Exponential.from_rate(4.0).mean == pytest.approx(0.25)
        with pytest.raises(ValueError):
            Exponential.from_rate(0.0)

    def test_scaled(self):
        assert Exponential(2.0).scaled(3.0).mean == pytest.approx(6.0)

    def test_sampling_mean(self, rng):
        d = Exponential(3.0)
        samples = [d.sample(rng) for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(3.0, rel=0.05)


class TestDeterministic:
    def test_moments(self):
        d = Deterministic(5.0)
        assert d.mean == 5.0
        assert d.variance == 0.0
        assert d.scv == 0.0

    def test_sampling_is_constant(self, rng):
        d = Deterministic(1.5)
        assert {d.sample(rng) for _ in range(10)} == {1.5}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            Deterministic(-1.0)


class TestErlang:
    def test_moments(self):
        d = Erlang(k=4, mean_value=2.0)
        assert d.mean == 2.0
        assert d.variance == pytest.approx(1.0)
        assert d.scv == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            Erlang(0, 1.0)
        with pytest.raises(ValueError):
            Erlang(2, -1.0)

    def test_sampling(self, rng):
        d = Erlang(3, 6.0)
        samples = [d.sample(rng) for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(6.0, rel=0.05)


class TestHyperExponential:
    def test_moments(self):
        d = HyperExponential(means=(1.0, 3.0), probabilities=(0.5, 0.5))
        assert d.mean == pytest.approx(2.0)
        assert d.scv > 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            HyperExponential(means=(1.0,), probabilities=(0.5,))
        with pytest.raises(ValueError):
            HyperExponential(means=(1.0, -1.0), probabilities=(0.5, 0.5))

    @pytest.mark.parametrize(
        "means, probabilities, match",
        [
            ((), (), "non-empty"),
            ((1.0, 2.0), (1.0,), "equal length"),
            ((1.0, 2.0), (1.5, -0.5), "non-negative"),
        ],
    )
    def test_shape_and_probability_validation(self, means, probabilities, match):
        with pytest.raises(ValueError, match=match):
            HyperExponential(means=means, probabilities=probabilities)

    def test_fit_requires_positive_mean(self):
        with pytest.raises(ValueError, match="mean must be positive"):
            HyperExponential.from_mean_and_scv(0.0, 3.0)

    def test_scaled_keeps_scv(self):
        d = HyperExponential.from_mean_and_scv(mean=2.0, scv=3.0)
        scaled = d.scaled(2.5)
        assert scaled.mean == pytest.approx(5.0)
        assert scaled.scv == pytest.approx(d.scv)
        assert scaled.probabilities == d.probabilities

    def test_fit_from_mean_and_scv(self):
        d = HyperExponential.from_mean_and_scv(mean=4.0, scv=3.0)
        assert d.mean == pytest.approx(4.0)
        assert d.scv == pytest.approx(3.0, rel=1e-6)

    def test_fit_requires_scv_above_one(self):
        with pytest.raises(ValueError):
            HyperExponential.from_mean_and_scv(1.0, 0.8)

    def test_sampling(self, rng):
        d = HyperExponential.from_mean_and_scv(mean=2.0, scv=4.0)
        samples = [d.sample(rng) for _ in range(40_000)]
        assert np.mean(samples) == pytest.approx(2.0, rel=0.1)


class TestUniformDistribution:
    def test_moments(self):
        d = UniformDistribution(2.0, 6.0)
        assert d.mean == 4.0
        assert d.variance == pytest.approx(16.0 / 12.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            UniformDistribution(5.0, 2.0)

    def test_sampling_bounds(self, rng):
        d = UniformDistribution(1.0, 2.0)
        samples = [d.sample(rng) for _ in range(100)]
        assert all(1.0 <= s <= 2.0 for s in samples)


