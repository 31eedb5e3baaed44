import zlib

import numpy as np
from fedfraud.numeric import Rng


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(42).gen.uniform(0, 1, (4, 4))
        b = Rng(42).gen.uniform(0, 1, (4, 4))
        assert np.array_equal(a, b)

    def test_split_is_deterministic(self):
        a = Rng(42).split("client", 3).gen.uniform(0, 1, 10)
        b = Rng(42).split("client", 3).gen.uniform(0, 1, 10)
        assert np.array_equal(a, b)

    def test_split_streams_differ(self):
        a = Rng(42).split("client", 0).gen.uniform(0, 1, 10)
        b = Rng(42).split("client", 1).gen.uniform(0, 1, 10)
        assert not np.array_equal(a, b)

    def test_split_does_not_consume_parent(self):
        parent = Rng(7)
        parent.split("x")
        a = parent.gen.uniform(0, 1, 5)
        assert np.array_equal(a, Rng(7).gen.uniform(0, 1, 5))

    def test_split_chain_draws_the_eager_generator_stream(self):
        # Labels map to the spawn key: ints masked to 32 bits, str by CRC-32.
        chain = Rng(11).split("client", 3).split("round", 2**40 + 5).split("epoch", 0)
        path = (zlib.crc32(b"client"), 3, zlib.crc32(b"round"), 5,
                zlib.crc32(b"epoch"), 0)
        eager = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(11, spawn_key=path)))
        assert np.array_equal(chain.gen.permutation(50), eager.permutation(50))
        assert np.array_equal(chain.gen.uniform(-1.0, 1.0, 7), eager.uniform(-1.0, 1.0, 7))

    def test_empty_permutation(self):
        assert Rng(0).gen.permutation(0).size == 0

    def test_permutation_is_permutation(self):
        p = Rng(0).gen.permutation(100)
        assert np.array_equal(np.sort(p), np.arange(100))

    def test_law_of_large_numbers(self):
        draws = Rng(123).gen.uniform(0.0, 1.0, 100_000)
        assert abs(draws.mean() - 0.5) < 0.01
