"""Portable, seedable pseudo-random generator.

Everything stochastic in the toolkit (synthetic data, weight init, shuffling,
augmentation draws) goes through this generator so that results reproduce
bit-for-bit across runs, platforms and reimplementations in other languages.

The algorithm is the splitmix64 counter generator (a 64-bit xorshift-multiply
scheme). State advances along a Weyl sequence and each output is a finalizer
of the state:

    state   <- (state + 0x9E3779B97F4A7C15) mod 2^64
    z       <- state
    z       <- ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z       <- ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output  <- z XOR (z >> 31)

Uniform doubles take the top 53 bits: u = (output >> 11) * 2^-53, in [0, 1).
Bounded integers use the Lemire multiply-shift: (output * n) >> 64.

Because the state is a counter, a batch of n draws can be produced in one
vectorized pass without changing the sequence, which keeps bulk noise
generation fast while staying identical to n scalar calls.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_TWO53_INV = 2.0 ** -53


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


class Prng:
    """splitmix64 stream; see module docstring for the exact recurrence."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:
            raise ValidationError(f"seed must be non-negative and below 2**64, got {seed}")
        self._state = seed

    @classmethod
    def _from_state(cls, state: int) -> "Prng":
        rng = cls(0)
        rng._state = state & _MASK64
        return rng

    def spawn(self, *keys: int) -> "Prng":
        """Derive an independent child stream from integer keys.

        Children are decorrelated from the parent and from siblings with
        different keys; the parent's own sequence is not consumed.
        """
        s = _mix64(self._state ^ 0x5851F42D4C957F2D)
        for k in keys:
            if k < 0:
                raise ValidationError(f"spawn keys must be non-negative, got {k}")
            s = _mix64((s + _GAMMA) ^ _mix64(k))
        return Prng._from_state(s)

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix64(self._state)

    def random(self, size=None):
        """Uniform doubles in [0, 1); scalar when size is None."""
        if size is None:
            return (self.next_u64() >> 11) * _TWO53_INV
        return random_rows([self], int(np.prod(size)))[0].reshape(size)

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size=None):
        return lo + (hi - lo) * self.random(size)

    def skip(self, n: int) -> int:
        """Advance past n draws without making them; returns the state they
        count from, for `uniform_at`."""
        state = self._state
        self._state = (state + _GAMMA * n) & _MASK64
        return state

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n)."""
        if n <= 0:
            raise ValidationError(f"randint bound must be positive, got {n}")
        return (self.next_u64() * n) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randint(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> list[int]:
        idx = list(range(n))
        self.shuffle(idx)
        return idx


def random_rows(rngs, n: int) -> np.ndarray:
    """Uniform doubles, shape (len(rngs), n): row i is ``rngs[i].random(n)``.

    All rows come from one vectorized pass over the counters, and each
    generator advances by n draws, exactly as that call would advance it.
    """
    states = np.array([rng.skip(n) for rng in rngs], dtype=np.uint64)
    return uniform_at(states[:, None], np.arange(1, n + 1, dtype=np.uint64))


def uniform_at(states: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The uniform double a generator in state ``states`` yields as its
    ``draws``-th draw (1-based); uint64 arrays, broadcast together."""
    with np.errstate(over="ignore"):
        # the finalizer runs in place on the counters, so at most one
        # temporary of the output's size lives beside them
        z = states + np.uint64(_GAMMA) * draws
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
    u = z.astype(np.float64)
    u *= _TWO53_INV
    return u
