"""Unit tests for the seeded RNG registry."""

import random

import pytest

from repro.sim.rng import BatchedUniform, RngRegistry, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a") == derive_seed(1, "a")

    def test_name_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_seed_sensitivity(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_fits_64_bits(self):
        assert 0 <= derive_seed(12345, "stream") < (1 << 64)


class TestRegistry:
    def test_same_name_returns_same_stream(self):
        reg = RngRegistry(7)
        assert reg.stream("x") is reg.stream("x")

    def test_different_names_are_independent(self):
        reg = RngRegistry(7)
        a = [reg.stream("a").random() for _ in range(5)]
        b = [reg.stream("b").random() for _ in range(5)]
        assert a != b

    def test_reproducible_across_registries(self):
        a = RngRegistry(7).stream("net").random()
        b = RngRegistry(7).stream("net").random()
        assert a == b

    def test_unrelated_stream_isolated_from_draw_order(self):
        # Drawing from one stream must not perturb another — the
        # variance-isolation property the paired experiments rely on.
        reg1 = RngRegistry(7)
        reg1.stream("noise").random()
        v1 = reg1.stream("signal").random()
        reg2 = RngRegistry(7)
        v2 = reg2.stream("signal").random()
        assert v1 == v2


class TestBatchedUniform:
    def test_bit_for_bit_matches_sequential_uniform(self):
        # The campaign-determinism contract: prefetched blocks produce
        # exactly the values the equivalent uniform() calls would.
        batched_rng = random.Random(99)
        plain_rng = random.Random(99)
        batched = BatchedUniform(batched_rng, 0.004, 0.04, block=7)
        assert [batched.next() for _ in range(100)] == \
            [plain_rng.uniform(0.004, 0.04) for _ in range(100)]

    def test_block_boundary_is_invisible(self):
        values = {}
        for block in (1, 3, 256):
            batched = BatchedUniform(random.Random(5), -1.0, 2.0, block=block)
            values[block] = [batched.next() for _ in range(10)]
        assert values[1] == values[3] == values[256]

    def test_degenerate_range_consumes_nothing(self):
        rng = random.Random(5)
        batched = BatchedUniform(rng, 0.25, 0.25)
        assert batched.next() == 0.25
        assert rng.random() == random.Random(5).random()

    def test_invalid_range_raises(self):
        with pytest.raises(ValueError):
            BatchedUniform(random.Random(1), 1.0, 0.5)
