"""Unit tests for random streams and variate generation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.rng import RandomStreams, VariateGenerator


def _reference_state(seed: int, name: str) -> dict:
    """PCG64 state of the list-entropy formulation every golden was made with."""
    digest = name.encode("utf-8")
    entropy = [seed, sum(digest), len(name), *digest[:16]]
    return np.random.default_rng(np.random.SeedSequence(entropy)).bit_generator.state


REFERENCE_SEEDS = (0, 2**32 - 1, 2**32, 2**64, 2**70 + 3)
REFERENCE_NAMES = (
    "",
    "service-icn2",
    "destination-255-0",  # over 16 bytes: only the first 16 enter as bytes
    "füße-λ-路由-κόμβος",  # non-ASCII: 16 characters, 29 UTF-8 bytes
    "x" * 5_000,
)


class TestRandomStreams:
    def test_same_seed_same_streams(self):
        a = RandomStreams(seed=7).stream("arrivals")
        b = RandomStreams(seed=7).stream("arrivals")
        assert [a.exponential(1.0) for _ in range(5)] == [b.exponential(1.0) for _ in range(5)]

    def test_different_names_independent(self):
        streams = RandomStreams(seed=7)
        a = streams.stream("arrivals")
        b = streams.stream("service")
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = RandomStreams(seed=1).stream("x")
        b = RandomStreams(seed=2).stream("x")
        assert [a.uniform() for _ in range(5)] != [b.uniform() for _ in range(5)]

    def test_stream_cache_returns_same_object(self):
        streams = RandomStreams(seed=3)
        assert streams.stream("a") is streams.stream("a")

    def test_streams_bulk(self):
        streams = RandomStreams(seed=3)
        bundle = streams.streams(["a", "b"])
        assert set(bundle) == {"a", "b"}

    def test_spawn_creates_independent_replication(self):
        base = RandomStreams(seed=5)
        rep = base.spawn(1)
        assert base.stream("x").uniform() != rep.stream("x").uniform()

    def test_order_of_creation_does_not_matter(self):
        s1 = RandomStreams(seed=11)
        s2 = RandomStreams(seed=11)
        # Create in different orders.
        a1 = s1.stream("alpha")
        _ = s1.stream("beta")
        _ = s2.stream("beta")
        a2 = s2.stream("alpha")
        assert a1.exponential(2.0) == a2.exponential(2.0)

    @pytest.mark.parametrize("seed", REFERENCE_SEEDS)
    @pytest.mark.parametrize("name", REFERENCE_NAMES)
    def test_stream_state_matches_reference(self, seed, name):
        state = RandomStreams(seed).stream(name).rng.bit_generator.state
        assert state == _reference_state(seed, name)

    @given(seed=st.integers(min_value=0, max_value=2**80 - 1), name=st.text())
    @settings(max_examples=200)
    def test_stream_state_matches_reference_property(self, seed, name):
        state = RandomStreams(seed).stream(name).rng.bit_generator.state
        assert state == _reference_state(seed, name)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(-1).stream("x")


class TestVariateGenerator:
    @pytest.fixture
    def gen(self) -> VariateGenerator:
        return RandomStreams(seed=42).stream("test")

    def test_exponential_mean(self, gen):
        samples = [gen.exponential(2.0) for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(2.0, rel=0.05)
        assert min(samples) > 0

    def test_exponential_rate(self, gen):
        samples = [gen.exponential_rate(4.0) for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(0.25, rel=0.05)

    def test_exponential_invalid(self, gen):
        with pytest.raises(ValueError):
            gen.exponential(0.0)
        with pytest.raises(ValueError):
            gen.exponential_rate(-1.0)

    def test_uniform_bounds(self, gen):
        samples = [gen.uniform(2.0, 5.0) for _ in range(1000)]
        assert all(2.0 <= s < 5.0 for s in samples)
        with pytest.raises(ValueError):
            gen.uniform(5.0, 2.0)

    def test_erlang_mean_and_lower_variance(self, gen):
        exp = [gen.exponential(3.0) for _ in range(20_000)]
        erl = [gen.erlang(4, 3.0) for _ in range(20_000)]
        assert np.mean(erl) == pytest.approx(3.0, rel=0.05)
        assert np.var(erl) < np.var(exp)

    def test_erlang_invalid(self, gen):
        with pytest.raises(ValueError):
            gen.erlang(0, 1.0)

    def test_hyperexponential_mean(self, gen):
        samples = [gen.hyperexponential([1.0, 4.0], [0.5, 0.5]) for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(2.5, rel=0.05)

    def test_hyperexponential_invalid_probs(self, gen):
        with pytest.raises(ValueError):
            gen.hyperexponential([1.0, 2.0], [0.7, 0.7])

    @pytest.mark.parametrize(
        "means, probs, match",
        [
            ([1.0, 2.0], [1.0], "equal-length"),
            ([], [], "equal-length"),
            ([1.0, 0.0], [0.5, 0.5], "positive"),
        ],
    )
    def test_hyperexponential_invalid_branches(self, gen, means, probs, match):
        with pytest.raises(ValueError, match=match):
            gen.hyperexponential(means, probs)

    def test_weibull_mean_is_the_requested_mean(self, gen):
        for shape in (0.7, 1.5):
            samples = [gen.weibull(shape, 2.0) for _ in range(20_000)]
            assert np.mean(samples) == pytest.approx(2.0, rel=0.05)
            assert min(samples) > 0

    @pytest.mark.parametrize(
        "shape, mean, match",
        [(0.0, 1.0, "shape"), (-1.5, 1.0, "shape"), (1.5, 0.0, "mean"), (1.5, -2.0, "mean")],
    )
    def test_weibull_invalid(self, gen, shape, mean, match):
        with pytest.raises(ValueError, match=match):
            gen.weibull(shape, mean)

    def test_integer_bounds_inclusive(self, gen):
        samples = {gen.integer(0, 3) for _ in range(500)}
        assert samples == {0, 1, 2, 3}

    def test_choice_and_weights(self, gen):
        items = ["a", "b", "c"]
        assert gen.choice(items) in items
        biased = [gen.choice(items, probs=[0.0, 1.0, 0.0]) for _ in range(20)]
        assert set(biased) == {"b"}

    def test_choice_empty_rejected(self, gen):
        with pytest.raises(ValueError):
            gen.choice([])

    def test_bernoulli_probability(self, gen):
        trues = sum(gen.bernoulli(0.3) for _ in range(20_000))
        assert trues / 20_000 == pytest.approx(0.3, abs=0.02)
        with pytest.raises(ValueError):
            gen.bernoulli(1.5)

    def test_deterministic(self, gen):
        assert gen.deterministic(3.5) == 3.5

    def test_geometric_positive(self, gen):
        assert gen.geometric(0.5) >= 1
        with pytest.raises(ValueError):
            gen.geometric(0.0)

    def test_normal_and_lognormal_validation(self, gen):
        with pytest.raises(ValueError):
            gen.normal(0.0, -1.0)
        with pytest.raises(ValueError):
            gen.lognormal(0.0, -1.0)
        assert gen.lognormal(0.0, 0.5) > 0


class TestVariateStreams:
    """Batched streams must reproduce the scalar draw sequence bit-for-bit."""

    def _pair(self, name: str = "s"):
        return RandomStreams(seed=42).stream(name), RandomStreams(seed=42).stream(name)

    def test_exponential_stream_matches_scalar_sequence(self):
        scalar, batched = self._pair()
        stream = batched.exponential_stream(2.5, block_size=16)
        assert [stream() for _ in range(50)] == [scalar.exponential(2.5) for _ in range(50)]

    def test_exponential_rate_stream_matches_scalar_sequence(self):
        scalar, batched = self._pair()
        stream = batched.exponential_rate_stream(0.25, block_size=8)
        assert [stream() for _ in range(30)] == [
            scalar.exponential_rate(0.25) for _ in range(30)
        ]

    def test_integer_stream_matches_scalar_sequence(self):
        scalar, batched = self._pair()
        stream = batched.integer_stream(0, 30, block_size=8)
        assert [stream() for _ in range(40)] == [scalar.integer(0, 30) for _ in range(40)]

    def test_uniform_stream_matches_scalar_sequence(self):
        scalar, batched = self._pair()
        stream = batched.uniform_stream(1.0, 3.0, block_size=4)
        assert [stream() for _ in range(20)] == [scalar.uniform(1.0, 3.0) for _ in range(20)]

    def test_erlang_stream_matches_scalar_sequence(self):
        scalar, batched = self._pair()
        stream = batched.erlang_stream(3, 2.0, block_size=4)
        assert [stream() for _ in range(20)] == [scalar.erlang(3, 2.0) for _ in range(20)]

    def test_sequence_independent_of_block_size(self):
        draws = {}
        for block in (1, 2, 7, 64, 1024):
            gen = RandomStreams(seed=7).stream("x")
            stream = gen.exponential_stream(1.0, block_size=block)
            draws[block] = [stream() for _ in range(25)]
        assert len({tuple(v) for v in draws.values()}) == 1

    def test_geometric_block_growth(self):
        from repro.des.rng import VariateStream

        sizes = []

        def draw(n):
            sizes.append(n)
            return [0.0] * n

        stream = VariateStream(draw, block_size=512)
        for _ in range(64 + 128 + 256 + 1):
            stream()
        assert sizes == [64, 128, 256, 512]

    def test_stream_returns_python_scalars(self):
        gen = RandomStreams(seed=1).stream("x")
        assert type(gen.exponential_stream(1.0)()) is float
        assert type(gen.integer_stream(0, 5)()) is int

    def test_remaining_counts_down(self):
        gen = RandomStreams(seed=1).stream("x")
        stream = gen.uniform_stream(block_size=4)
        assert stream.remaining == 0  # lazy: nothing drawn yet
        stream()
        assert stream.remaining == 3

    def test_parameter_validation(self):
        gen = RandomStreams(seed=1).stream("x")
        with pytest.raises(ValueError):
            gen.exponential_stream(0.0)
        with pytest.raises(ValueError):
            gen.exponential_rate_stream(-1.0)
        with pytest.raises(ValueError):
            gen.integer_stream(5, 4)
        with pytest.raises(ValueError):
            gen.uniform_stream(2.0, 1.0)
        with pytest.raises(ValueError):
            gen.erlang_stream(0, 1.0)
        with pytest.raises(ValueError):
            gen.exponential_stream(1.0, block_size=0)

    def test_generator_has_no_dict(self):
        gen = RandomStreams(seed=1).stream("x")
        assert not hasattr(gen, "__dict__")
        assert not hasattr(gen.exponential_stream(1.0), "__dict__")


class TestBatchedSamplersAndChoosers:
    """The batched plumbing through distributions, arrivals, destinations."""

    def test_exponential_distribution_sampler_matches_sample(self):
        from repro.queueing.distributions import Exponential

        dist = Exponential(0.125)
        scalar = RandomStreams(seed=9).stream("svc")
        batched = RandomStreams(seed=9).stream("svc")
        sampler = dist.sampler(batched)
        assert [sampler() for _ in range(40)] == [dist.sample(scalar) for _ in range(40)]

    def test_deterministic_distribution_sampler_is_constant(self):
        from repro.queueing.distributions import Deterministic

        sampler = Deterministic(2.5).sampler(RandomStreams(seed=9).stream("svc"))
        assert [sampler() for _ in range(3)] == [2.5, 2.5, 2.5]

    def test_poisson_arrivals_sampler_matches_interarrival(self):
        from repro.workload.arrivals import PoissonArrivals

        process = PoissonArrivals(rate=0.25)
        scalar = RandomStreams(seed=4).stream("arr")
        batched = RandomStreams(seed=4).stream("arr")
        sampler = process.sampler(batched)
        assert [sampler() for _ in range(30)] == [
            process.interarrival(scalar) for _ in range(30)
        ]

    def test_uniform_destinations_chooser_matches_choose(self):
        from repro.workload.destinations import UniformDestinations

        policy = UniformDestinations([4, 4, 4])
        scalar = RandomStreams(seed=6).stream("dest")
        batched = RandomStreams(seed=6).stream("dest")
        chooser = policy.chooser((1, 2), batched)
        assert [chooser() for _ in range(60)] == [
            policy.choose((1, 2), scalar) for _ in range(60)
        ]

    def test_localized_destinations_chooser_falls_back_to_scalar(self):
        from repro.workload.destinations import LocalizedDestinations

        policy = LocalizedDestinations([4, 4], locality=0.5)
        scalar = RandomStreams(seed=6).stream("dest")
        batched = RandomStreams(seed=6).stream("dest")
        chooser = policy.chooser((0, 1), batched)
        assert [chooser() for _ in range(40)] == [
            policy.choose((0, 1), scalar) for _ in range(40)
        ]
