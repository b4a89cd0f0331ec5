import numpy as np
import pytest

from taclearn.errors import ValidationError
from taclearn.prng import Prng, random_rows

# Reference outputs for seed 1234567, computed by hand from the documented
# recurrence (they agree with the widely published splitmix64 test vector).
REFERENCE_SEED = 1234567
REFERENCE_OUTPUTS = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_matches_reference_vector():
    rng = Prng(REFERENCE_SEED)
    assert [rng.next_u64() for _ in range(5)] == REFERENCE_OUTPUTS


def test_seeds_are_the_64_bit_range():
    assert Prng(2**64 - 1).next_u64() != Prng(0).next_u64()
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError, match="non-negative and below 2\\*\\*64"):
            Prng(seed)


def test_same_seed_same_sequence():
    a = Prng(99)
    b = Prng(99)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_bulk_draws_equal_scalar_draws():
    a = Prng(7)
    b = Prng(7)
    bulk = a.random(size=257)
    scalar = np.array([b.random() for _ in range(257)])
    assert np.array_equal(bulk, scalar)
    # sequence position advanced identically
    assert a.next_u64() == b.next_u64()


def test_random_rows_equal_per_generator_draws():
    rngs = [Prng(7).spawn(2, i) for i in range(5)]
    refs = [Prng(7).spawn(2, i) for i in range(5)]
    rows = random_rows(rngs, 33)
    assert rows.shape == (5, 33)
    for row, rng, ref in zip(rows, rngs, refs):
        assert np.array_equal(row, ref.random(size=33))
        assert rng.next_u64() == ref.next_u64()


def test_uniform_bounds_and_mean():
    rng = Prng(3)
    vals = rng.uniform(-2.0, 5.0, size=20000)
    assert vals.min() >= -2.0
    assert vals.max() < 5.0
    assert abs(vals.mean() - 1.5) < 0.1


def test_randint_bounds_and_coverage():
    rng = Prng(11)
    draws = [rng.randint(7) for _ in range(5000)]
    assert min(draws) == 0
    assert max(draws) == 6
    counts = np.bincount(draws, minlength=7)
    assert counts.min() > 5000 / 7 * 0.8


def test_permutation_is_a_permutation():
    rng = Prng(5)
    perm = rng.permutation(50)
    assert sorted(perm) == list(range(50))


def test_spawn_streams_are_decorrelated_and_reproducible():
    parent = Prng(42)
    before = parent._state
    c1 = parent.spawn(0)
    c2 = parent.spawn(1)
    c1_again = Prng(42).spawn(0)
    assert parent._state == before
    s1 = [c1.next_u64() for _ in range(4)]
    s2 = [c2.next_u64() for _ in range(4)]
    assert s1 != s2
    assert s1 == [c1_again.next_u64() for _ in range(4)]


def test_spawn_nested_keys_distinct():
    root = Prng(0)
    seen = set()
    for a in range(5):
        for b in range(5):
            seen.add(root.spawn(a, b).next_u64())
    assert len(seen) == 25
