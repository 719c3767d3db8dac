"""Random-variate generation with independent, reproducible streams.

Simulation studies need *independent* random number streams per stochastic
component (arrival process, service times, destination choice, ...) so that
variance-reduction techniques such as common random numbers work and results
are reproducible bit-for-bit from a single master seed.

:class:`RandomStreams` spawns named substreams from a master seed using
NumPy's :class:`~numpy.random.SeedSequence`; :class:`VariateGenerator` wraps
one stream with the variate families the simulator needs.

Batched draws
-------------
``np.random.Generator`` methods cost ~1 µs per *call* regardless of how
many variates they return, so drawing one scalar at a time (as a simulator
hot loop naturally does) is ~10x slower than drawing blocks.  The
``*_stream`` methods of :class:`VariateGenerator` return a
:class:`VariateStream` — a callable that serves variates from a pre-drawn
block of ``block_size`` and refills on exhaustion.  NumPy's vectorized
draws consume *exactly* the same underlying bit stream as the equivalent
sequence of scalar calls (the C implementations loop over the same
per-element kernels), so a batched stream reproduces the scalar sequence
bit-for-bit for every seed — this is asserted by the test suite.

The one correctness rule: a batched stream reads ahead on its underlying
:class:`~numpy.random.Generator`, so that generator must not be shared
with any other consumer (scalar or batched) while the stream is in use —
interleaved draws would observe the post-lookahead state.  The simulator
guarantees this by dedicating one named substream per (component,
distribution) pair.

Batched derivation
------------------
A run derives one stream per service centre and one per processor and
component, so a 256-node run derives hundreds before its first event.
Going through ``SeedSequence`` and ``PCG64`` one name at a time costs
≈18 µs per stream, most of it Python-level set-up around a few dozen
integer operations.  :meth:`RandomStreams.streams` therefore runs NumPy's
published ``SeedSequence`` hash over every new name's entropy at once, as
``uint32`` array arithmetic (which wraps modulo 2**32 exactly like the
reference's C ``uint32_t``), and seeds each ``PCG64`` with its row of the
result.  Every stream's state equals the one ``SeedSequence`` → ``PCG64``
gives for the same entropy; the test suite pins this.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .batching import DEFAULT_BLOCK_SIZE

__all__ = ["RandomStreams", "VariateGenerator", "VariateStream"]


class VariateStream:
    """Serve variates one at a time from pre-drawn blocks.

    Parameters
    ----------
    draw:
        ``draw(n)`` returns a list of ``n`` variates, consuming the
        underlying generator exactly as ``n`` successive scalar draws
        would.
    block_size:
        Variates drawn per refill.

    Calling the stream returns the next variate; blocks are refilled
    lazily, so a stream that is never called never touches the generator.
    Refills grow geometrically from a small first block up to
    ``block_size``, so short runs pay for few wasted lookahead draws while
    long runs amortize the per-refill call overhead over large blocks.
    (Block boundaries only group the draws; the consumed bit stream — and
    therefore every served variate — is independent of the block size.)
    """

    __slots__ = ("_draw", "_block_size", "_next_block", "_buffer", "_pos")

    #: First refill size (doubled per refill until ``block_size``).
    INITIAL_BLOCK = 64

    def __init__(self, draw: Callable[[int], List], block_size: int = DEFAULT_BLOCK_SIZE) -> None:
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size!r}")
        self._draw = draw
        self._block_size = block_size
        self._next_block = min(self.INITIAL_BLOCK, block_size)
        self._buffer: List = []
        self._pos = 0

    def __call__(self):
        """Return the next variate, refilling the block if exhausted."""
        pos = self._pos
        buffer = self._buffer
        if pos >= len(buffer):
            block = self._next_block
            if block < self._block_size:
                self._next_block = min(block * 2, self._block_size)
            buffer = self._buffer = self._draw(block)
            pos = 0
        self._pos = pos + 1
        return buffer[pos]

    @property
    def remaining(self) -> int:
        """Number of variates left in the current block."""
        return len(self._buffer) - self._pos

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<VariateStream block={self._block_size} remaining={self.remaining}>"


class VariateGenerator:
    """Random-variate generator bound to a single independent stream.

    Parameters
    ----------
    rng:
        A :class:`numpy.random.Generator` providing the underlying bits.

    All rate/mean parameters use the same time unit as the simulation
    (seconds in the multi-cluster simulator).
    """

    __slots__ = ("_rng",)

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng

    @property
    def rng(self) -> np.random.Generator:
        """The wrapped NumPy generator (for advanced use)."""
        return self._rng

    # -- continuous -----------------------------------------------------------

    def exponential(self, mean: float) -> float:
        """Draw an exponential variate with the given ``mean`` (> 0)."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        return float(self._rng.exponential(mean))

    def exponential_rate(self, rate: float) -> float:
        """Draw an exponential variate with the given ``rate`` (> 0)."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        return float(self._rng.exponential(1.0 / rate))

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Draw a uniform variate on ``[low, high)``."""
        if high < low:
            raise ValueError(f"high (={high!r}) must be >= low (={low!r})")
        return float(self._rng.uniform(low, high))

    def erlang(self, k: int, mean: float) -> float:
        """Draw an Erlang-k variate with overall ``mean``."""
        if k <= 0:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        return float(self._rng.gamma(shape=k, scale=mean / k))

    def hyperexponential(self, means: Sequence[float], probs: Sequence[float]) -> float:
        """Draw from a hyperexponential mixture of exponentials."""
        means = np.asarray(means, dtype=float)
        probs = np.asarray(probs, dtype=float)
        if means.shape != probs.shape or means.ndim != 1 or means.size == 0:
            raise ValueError("means and probs must be equal-length 1-D sequences")
        if np.any(means <= 0):
            raise ValueError("all means must be positive")
        if not np.isclose(probs.sum(), 1.0):
            raise ValueError(f"probabilities must sum to 1, got {probs.sum()!r}")
        branch = self._rng.choice(means.size, p=probs)
        return float(self._rng.exponential(means[branch]))

    def deterministic(self, value: float) -> float:
        """Return ``value`` unchanged (degenerate distribution)."""
        return float(value)

    def weibull(self, shape: float, mean: float) -> float:
        """Draw a Weibull variate with the given shape and *mean*.

        numpy's ``weibull(shape)`` is the scale-1 form with mean
        ``Γ(1 + 1/shape)``; rescaling by ``mean / Γ(1 + 1/shape)`` gives a
        mean-parameterised family consistent with :meth:`exponential`
        (``shape == 1`` degenerates to the exponential with that mean).
        """
        if shape <= 0:
            raise ValueError(f"shape must be positive, got {shape!r}")
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        scale = mean / math.gamma(1.0 + 1.0 / shape)
        return float(self._rng.weibull(shape)) * scale

    # -- discrete -------------------------------------------------------------

    def integer(self, low: int, high: int) -> int:
        """Draw a uniform integer from ``[low, high]`` inclusive."""
        if high < low:
            raise ValueError(f"high (={high!r}) must be >= low (={low!r})")
        return int(self._rng.integers(low, high + 1))

    def bernoulli(self, p: float) -> bool:
        """Return ``True`` with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"p must lie in [0, 1], got {p!r}")
        return bool(self._rng.random() < p)

    # -- batched streams ------------------------------------------------------
    #
    # Each factory validates its parameters once and returns a
    # :class:`VariateStream` whose refills are vectorized draws.  The block
    # draws consume the identical bit stream as repeated scalar calls, so
    # ``[s() for _ in range(n)] == [gen.exponential(m) for _ in range(n)]``
    # for generators seeded identically.  ``.tolist()`` converts the block
    # to plain Python floats/ints in C, so serving a variate is a list
    # index, not an ndarray scalar boxing.

    def exponential_stream(self, mean: float, block_size: int = DEFAULT_BLOCK_SIZE) -> VariateStream:
        """Batched equivalent of repeated :meth:`exponential` calls."""
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        rng = self._rng
        return VariateStream(lambda n: rng.exponential(mean, n).tolist(), block_size)

    def exponential_rate_stream(self, rate: float, block_size: int = DEFAULT_BLOCK_SIZE) -> VariateStream:
        """Batched equivalent of repeated :meth:`exponential_rate` calls."""
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate!r}")
        return self.exponential_stream(1.0 / rate, block_size)

    def uniform_stream(
        self, low: float = 0.0, high: float = 1.0, block_size: int = DEFAULT_BLOCK_SIZE
    ) -> VariateStream:
        """Batched equivalent of repeated :meth:`uniform` calls."""
        if high < low:
            raise ValueError(f"high (={high!r}) must be >= low (={low!r})")
        rng = self._rng
        return VariateStream(lambda n: rng.uniform(low, high, n).tolist(), block_size)

    def integer_stream(self, low: int, high: int, block_size: int = DEFAULT_BLOCK_SIZE) -> VariateStream:
        """Batched equivalent of repeated :meth:`integer` calls."""
        if high < low:
            raise ValueError(f"high (={high!r}) must be >= low (={low!r})")
        rng = self._rng
        return VariateStream(lambda n: rng.integers(low, high + 1, n).tolist(), block_size)

    def erlang_stream(self, k: int, mean: float, block_size: int = DEFAULT_BLOCK_SIZE) -> VariateStream:
        """Batched equivalent of repeated :meth:`erlang` calls."""
        if k <= 0:
            raise ValueError(f"k must be a positive integer, got {k!r}")
        if mean <= 0:
            raise ValueError(f"mean must be positive, got {mean!r}")
        rng = self._rng
        scale = mean / k
        return VariateStream(lambda n: rng.gamma(k, scale, n).tolist(), block_size)


def _words(value: int) -> List[int]:
    """Little-endian 32-bit words of a non-negative int, as SeedSequence splits it."""
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & 0xFFFFFFFF]
    value >>= 32
    while value:
        words.append(value & 0xFFFFFFFF)
        value >>= 32
    return words


# The constants of NumPy's SeedSequence (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = 16
#: Leading UTF-8 bytes of a name that enter its entropy as one word each.
_NAME_BYTES = 16
_UINT64 = np.dtype(np.uint64)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """``init * mult**i`` modulo 2**32 for ``i`` in ``range(count)``, as a column."""
    factors = np.full(count, mult, dtype=np.uint32)
    factors[0] = init
    return np.multiply.accumulate(factors, dtype=np.uint32)[:, None]


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    result ^= result >> _XSHIFT
    return result


def _entropy(seed_words: List[int], names: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """The words × names entropy matrix of ``names`` and each name's word count.

    A name's entropy is what a single name has always fed ``SeedSequence``:
    the master seed's words, the words of the name's UTF-8 byte sum and of
    its character count, and its first 16 UTF-8 bytes, one word each.
    """
    count = len(names)
    digests = [name.encode("utf-8") for name in names]
    n_bytes = np.fromiter(map(len, digests), dtype=np.int64, count=count)
    # Every digest back to back, zero-padded so each one's first 16 bytes can
    # be read even where the digest is shorter.
    data = np.frombuffer(b"".join(digests) + bytes(_NAME_BYTES), dtype=np.uint8)
    ends = np.cumsum(n_bytes)
    starts = ends - n_bytes
    running = np.zeros(len(data) + 1, dtype=np.uint64)
    np.cumsum(data, out=running[1:])
    return _pack_entropy(
        seed_words,
        running[ends] - running[starts],
        np.fromiter(map(len, names), dtype=np.uint64, count=count),
        data[starts[:, None] + np.arange(_NAME_BYTES)],
        n_bytes,
    )


def _pack_entropy(
    seed_words: List[int],
    sums: np.ndarray,
    lengths: np.ndarray,
    head: np.ndarray,
    n_bytes: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Lay each name's entropy words out as a column, zero past its end.

    Name ``i`` contributes the seed words, the little-endian 32-bit words of
    ``sums[i]`` and of ``lengths[i]`` (a high word only when it is
    non-zero, as ``SeedSequence`` splits an int) and one word per byte of
    ``head[i, :n_bytes[i]]``.  Returns the words × names matrix and each
    name's word count.
    """
    seed_width = len(seed_words)
    candidates = np.empty((len(sums), seed_width + 4 + _NAME_BYTES), dtype=np.uint32)
    keep = np.ones(candidates.shape, dtype=bool)
    candidates[:, :seed_width] = seed_words
    for column, value in ((seed_width, sums), (seed_width + 2, lengths)):
        candidates[:, column] = value & 0xFFFFFFFF
        candidates[:, column + 1] = high = value >> 32
        keep[:, column + 1] = high != 0
    candidates[:, seed_width + 4 :] = head
    keep[:, seed_width + 4 :] = np.arange(_NAME_BYTES) < n_bytes[:, None]
    # Pack each name's words to the front of its row, then lay names out as
    # columns so the hash reads one entropy word of every name at a time.
    n_words = keep.sum(axis=1)
    packed = np.zeros((len(sums), max(_POOL_SIZE, int(n_words.max()))), dtype=np.uint32)
    packed[np.arange(packed.shape[1]) < n_words[:, None]] = candidates[keep]
    return np.ascontiguousarray(packed.T), n_words


def _seed_states(entropy: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``SeedSequence(words).generate_state(4, uint64)`` for every column.

    ``entropy`` is words × names, zero past each name's ``lengths``.  This
    is NumPy's ``mix_entropy`` with a pool of 4 followed by its
    ``generate_state``, run on every name at once.  Returns names × 4
    ``uint64``.
    """
    width = entropy.shape[0]
    # hashmix's multiplier advances once per call: 4 calls fill the pool, 12
    # mix it and each further word takes one per pool word, 4 * width calls.
    consts = _hash_constants(_INIT_A, _MULT_A, 4 * width + 1)
    # Fill the pool; a zero entropy word stands in for a name that has
    # fewer than 4, exactly as the reference hashes 0 past the entropy.
    pool = entropy[:_POOL_SIZE] ^ consts[:_POOL_SIZE]
    pool *= consts[1 : _POOL_SIZE + 1]
    pool ^= pool >> _XSHIFT
    k = _POOL_SIZE
    # Mix all bits together so late bits can affect earlier bits.
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                hashed = pool[src] ^ consts[k]
                hashed *= consts[k + 1]
                hashed ^= hashed >> _XSHIFT
                pool[dst] = _mix(pool[dst], hashed)
                k += 1
    # Mix each remaining word into every pool word; a name whose entropy
    # has ended keeps its pool.
    for src in range(_POOL_SIZE, width):
        hashed = entropy[src] ^ consts[k : k + _POOL_SIZE]
        hashed *= consts[k + 1 : k + _POOL_SIZE + 1]
        hashed ^= hashed >> _XSHIFT
        np.copyto(pool, _mix(pool, hashed), where=lengths > src)
        k += _POOL_SIZE
    # generate_state(4, uint64): 8 words cycling over the pool, read as
    # little-endian pairs.
    consts = _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE + 1)
    state = pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ consts[:-1]
    state *= consts[1:]
    state ^= state >> _XSHIFT
    state = state.astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << np.uint64(32)).T)


class _DerivedSeed(ISeedSequence):
    """One name's ``SeedSequence`` output, handed to ``PCG64`` as its seed."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray) -> None:
        self._state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        """The derived state: 4 ``uint64`` words, the one request ``PCG64`` makes."""
        if n_words != 4 or _UINT64 != dtype:
            raise ValueError(
                f"a derived stream seed holds 4 uint64 words, not {n_words!r} of {dtype!r}"
            )
        return self._state


class RandomStreams:
    """Factory of independent, named random streams derived from one seed.

    Parameters
    ----------
    seed:
        Master seed.  The same master seed always yields the same named
        streams regardless of the order in which they are requested.

    Example
    -------
    >>> streams = RandomStreams(seed=42)
    >>> arrivals = streams.stream("arrivals")
    >>> service = streams.stream("service")
    >>> arrivals.exponential(1.0) != service.exponential(1.0)
    True
    """

    __slots__ = ("_seed", "_seed_words", "_cache")

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._seed_words = _words(self._seed)
        self._cache: Dict[str, VariateGenerator] = {}

    @property
    def seed(self) -> int:
        """The master seed."""
        return self._seed

    def stream(self, name: str) -> VariateGenerator:
        """Return the stream for ``name``, creating it deterministically."""
        generator = self._cache.get(name)
        if generator is None:
            generator = self.streams((name,))[name]
        return generator

    def streams(self, names: Iterable[str]) -> Dict[str, VariateGenerator]:
        """Return a dictionary of streams for all ``names``.

        Every name not yet cached is derived in one batch: a child seed
        from (master seed, name), hashed exactly as
        ``SeedSequence(entropy)`` would hash it and fed to ``PCG64``.  A
        batch costs a fixed ≈0.3 ms plus a few µs per name, so a caller that
        knows its names asks for all of them at once.
        """
        names = list(names)
        cache = self._cache
        missing = list(dict.fromkeys(name for name in names if name not in cache))
        if missing:
            states = _seed_states(*_entropy(self._seed_words, missing))
            pcg64 = np.random.PCG64
            generator = np.random.Generator
            for name, state in zip(missing, states):
                cache[name] = VariateGenerator(generator(pcg64(_DerivedSeed(state))))
        return {name: cache[name] for name in names}

    def spawn(self, offset: int) -> "RandomStreams":
        """Create a new :class:`RandomStreams` for an independent replication."""
        # Deliberate affine derivation: each stream still passes through the
        # SeedSequence hash in __init__, and the golden traces pin the exact
        # child seeds.
        return RandomStreams(seed=self._seed * 1_000_003 + int(offset))  # repro: noqa REP103

    def __repr__(self) -> str:
        return f"<RandomStreams seed={self._seed} streams={sorted(self._cache)}>"
