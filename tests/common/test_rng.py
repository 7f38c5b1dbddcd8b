"""Unit tests for the deterministic RNG and its substreams."""

import pytest

import random

from repro.common.rng import DeterministicRng, randbelow


class TestDeterminism:
    def test_same_seed_same_sequence(self):
        a = DeterministicRng(7)
        b = DeterministicRng(7)
        assert [a.random() for _ in range(20)] == [
            b.random() for _ in range(20)
        ]

    def test_different_seeds_differ(self):
        a = DeterministicRng(1)
        b = DeterministicRng(2)
        assert [a.random() for _ in range(8)] != [
            b.random() for _ in range(8)
        ]


class TestSubstreams:
    def test_substreams_are_independent_of_parent_draws(self):
        a = DeterministicRng(11)
        sub_before = a.substream("work").random()
        b = DeterministicRng(11)
        b.random()  # extra parent draw must not perturb the substream
        sub_after = b.substream("work").random()
        assert sub_before == sub_after

    def test_named_substreams_differ(self):
        rng = DeterministicRng(5)
        assert (
            rng.substream("alpha").random()
            != rng.substream("beta").random()
        )

    def test_substream_reproducible_across_instances(self):
        x = DeterministicRng(9).substream("trace").randint(0, 10**9)
        y = DeterministicRng(9).substream("trace").randint(0, 10**9)
        assert x == y


class TestDraws:
    def test_randint_bounds_inclusive(self):
        rng = DeterministicRng(0)
        draws = {rng.randint(2, 4) for _ in range(200)}
        assert draws == {2, 3, 4}

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 100, 1650])
    def test_randbelow_is_stdlib_randrange(self, n):
        random_, getrandbits = DeterministicRng(5).draws()
        reference = random.Random(5)
        for _ in range(200):
            value = randbelow(getrandbits, n)
            assert 0 <= value < n
            assert value == reference.randrange(n)
            assert random_() == reference.random()

    def test_shuffle_is_permutation(self):
        rng = DeterministicRng(2)
        items = list(range(12))
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_geometric_p_one_is_zero(self):
        assert DeterministicRng(0).geometric(1.0) == 0

    def test_geometric_rejects_bad_p(self):
        rng = DeterministicRng(0)
        with pytest.raises(ValueError):
            rng.geometric(0.0)
        with pytest.raises(ValueError):
            rng.geometric(1.5)

    def test_geometric_mean_close_to_theory(self):
        rng = DeterministicRng(42)
        p = 0.4
        n = 4000
        mean = sum(rng.geometric(p) for _ in range(n)) / n
        assert abs(mean - (1 - p) / p) < 0.1
