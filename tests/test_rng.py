import tracemalloc

import numpy as np
import pytest

from gcs.rng import (
    draw_indices,
    draw_u64,
    draws_u64_at,
    mix64,
    mix64_array,
    seed_key,
    split_seed,
    split_seed_array,
    unit_draw,
    unit_draws_at,
    unit_draws_for_keys,
)

# Frozen reference: first three outputs of the standard splitmix64 stream
# seeded with 0.  Our counter scheme reproduces that stream at key 0.
SPLITMIX_FROM_ZERO = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


class TestMix64:
    def test_reference_stream(self):
        for n, expected in enumerate(SPLITMIX_FROM_ZERO):
            assert draw_u64(0, n) == expected

    def test_scalar_matches_vector(self, rng):
        xs = rng.integers(0, 2**64, 500, dtype=np.uint64)
        vec = mix64_array(xs)
        assert vec.dtype == np.uint64
        for x, m in zip(xs.tolist(), vec.tolist()):
            assert mix64(x) == m

    def test_wraps_modulo_2_64(self):
        assert mix64(2**64 + 5) == mix64(5)


class TestSeedKey:
    def test_deterministic(self):
        assert seed_key(42) == seed_key(42)
        assert seed_key(42) != seed_key(43)

    def test_negative_seed_folded(self):
        # Negative seeds are masked into the 64-bit domain, not rejected.
        assert seed_key(-1) == seed_key(2**64 - 1)


class TestSplitSeed:
    def test_deterministic_and_distinct(self):
        children = [split_seed(7, i) for i in range(64)]
        assert len(set(children)) == 64
        assert children == [split_seed(7, i) for i in range(64)]

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            split_seed(7, -1)

    def test_scalar_matches_vector(self):
        idx = np.arange(200)
        vec = split_seed_array(999, idx)
        for i, v in zip(idx.tolist(), vec.tolist()):
            assert split_seed(999, i) == v

    def test_seed_array_matches_scalar(self):
        seeds = np.array([0, 5, 2**63 + 9, 2**64 - 1], dtype=np.uint64)
        vec = split_seed_array(seeds, [3])
        assert vec.tolist() == [split_seed(s, 3) for s in seeds.tolist()]

    def test_children_decorrelated_from_parent_stream(self):
        # A child stream must not collide with the parent stream prefix.
        parent = [draw_u64(seed_key(3), n) for n in range(32)]
        child = [draw_u64(seed_key(split_seed(3, 0)), n) for n in range(32)]
        assert not set(parent) & set(child)


class TestUnitDraws:
    def test_range_and_determinism(self):
        key = seed_key(11)
        us = [unit_draw(key, n) for n in range(1000)]
        assert all(0.0 <= u < 1.0 for u in us)
        assert us == [unit_draw(key, n) for n in range(1000)]

    def test_counter_53_bit_resolution(self):
        # Draws come from the top 53 bits, so doubling is exact.
        key = seed_key(5)
        u = unit_draw(key, 17)
        assert u == (draw_u64(key, 17) >> 11) * 2.0**-53

    def test_keys_vector_matches_scalar(self):
        keys = split_seed_array(21, np.arange(300))
        keys = np.asarray([seed_key(int(k)) for k in keys.tolist()], dtype=np.uint64)
        vec = unit_draws_for_keys(keys, 9)
        for k, u in zip(keys.tolist(), vec.tolist()):
            assert unit_draw(k, 9) == u

    def test_keys_by_counters_matches_scalar(self):
        keys = split_seed_array(8, np.arange(50))
        counters = np.array([0, 1, 7, 1023, 2**40, 2**64 - 2], dtype=np.uint64)
        table = unit_draws_at(keys, counters)
        assert table.shape == (counters.size, keys.size)
        for row, counter in zip(table.tolist(), counters.tolist()):
            assert row == [unit_draw(k, counter) for k in keys.tolist()]

    def test_counters_vector_matches_scalar(self):
        key = seed_key(77)
        counters = np.arange(512)
        vec = unit_draws_at(np.array([key], dtype=np.uint64), counters)[:, 0]
        for n, u in zip(counters.tolist(), vec.tolist()):
            assert unit_draw(key, n) == u

    def test_bits_are_the_draws_integers(self):
        # One mixing path: the float draws are the raw draws' top 53 bits times 2^-53.
        keys = split_seed_array(13, np.arange(40))
        counters = np.array([0, 1, 99, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64)
        bits = draws_u64_at(keys, counters) >> np.uint64(11)
        assert bits.dtype == np.uint64 and (bits < 2**53).all()
        assert (bits * 2.0**-53).tobytes() == unit_draws_at(keys, counters).tobytes()
        for row, counter in zip(bits.tolist(), counters.tolist()):
            assert [b * 2.0**-53 for b in row] == [unit_draw(k, counter) for k in keys.tolist()]

    def test_raw_draws_are_the_bits_before_the_shift(self):
        # The raw 64-bit draws are the scalar ones, and shifted right by 11
        # they are the 53-bit integers of the unit draws.
        keys = split_seed_array(21, np.arange(40))
        counters = np.array([0, 1, 99, 2**63, 2**64 - 2, 2**64 - 1], dtype=np.uint64)
        raw = draws_u64_at(keys, counters)
        assert raw.dtype == np.uint64 and raw.shape == (counters.size, keys.size)
        assert ((raw >> np.uint64(11)) * 2.0**-53).tobytes() == unit_draws_at(keys, counters).tobytes()
        for row, counter in zip(raw.tolist(), counters.tolist()):
            assert row == [draw_u64(k, counter) for k in keys.tolist()]

    def test_draw_matrix_is_built_in_place(self):
        # The mixed sums and one scratch buffer (which becomes the draws):
        # two result-sized arrays, whatever the matrix shape.
        keys = split_seed_array(5, np.arange(2048))
        counters = np.arange(64)
        tracemalloc.start()
        try:
            table = unit_draws_at(keys, counters)
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * table.nbytes
        expected = [unit_draw(k, c) for c in (0, 63) for k in keys.tolist()]
        assert table[[0, 63]].tobytes() == np.array(expected).tobytes()

    def test_rough_uniformity(self):
        key = seed_key(123)
        us = unit_draws_at(np.array([key], dtype=np.uint64), np.arange(20000))[:, 0]
        counts, _ = np.histogram(us, bins=10, range=(0.0, 1.0))
        assert counts.min() > 1700 and counts.max() < 2300


class TestDrawIndices:
    def test_bounds_and_determinism(self):
        idx = draw_indices(37, 1000, seed=9)
        assert idx.shape == (1000,)
        assert idx.min() >= 0 and idx.max() < 37
        assert np.array_equal(idx, draw_indices(37, 1000, seed=9))

    def test_zero_count(self):
        assert draw_indices(5, 0, seed=9).size == 0

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            draw_indices(0, 10, seed=9)
        with pytest.raises(ValueError):
            draw_indices(5, -1, seed=9)

    def test_seed_changes_stream(self):
        a = draw_indices(6, 50, seed=1)
        b = draw_indices(6, 50, seed=2)
        assert not np.array_equal(a, b)

    def test_matches_scalar_stream(self):
        # Index draws are the seed's unit stream reduced mod the population.
        key = seed_key(4)
        idx = draw_indices(10, 8, seed=4)
        assert [draw_u64(key, n) % 10 for n in range(8)] == idx.tolist()
