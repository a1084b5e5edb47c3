"""Tests for deterministic RNG streams."""

import math

import numpy as np
import pytest

from repro.md.perfmodel import PerformanceModel
from repro.utils.rng import RNGRegistry, key_digest, spawn_streams


class TestSpawnStreams:
    def test_count(self):
        assert len(spawn_streams(0, 5)) == 5
        assert spawn_streams(0, 0) == []

    def test_reproducible(self):
        a = [g.random() for g in spawn_streams(42, 3)]
        b = [g.random() for g in spawn_streams(42, 3)]
        assert a == b

    def test_streams_differ(self):
        streams = spawn_streams(42, 4)
        draws = [g.random() for g in streams]
        assert len(set(draws)) == len(draws)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            spawn_streams(0, -1)


class TestRNGRegistry:
    def test_same_key_same_stream_object(self):
        reg = RNGRegistry(1)
        assert reg.stream("a", 1) is reg.stream("a", 1)

    def test_determinism_across_registries(self):
        r1 = RNGRegistry(99).stream("replica", 7)
        r2 = RNGRegistry(99).stream("replica", 7)
        assert r1.random() == r2.random()

    def test_order_independence(self):
        r1 = RNGRegistry(5)
        _ = r1.stream("x")
        a = r1.stream("y").random()
        r2 = RNGRegistry(5)
        b = r2.stream("y").random()
        assert a == b

    def test_different_keys_different_draws(self):
        reg = RNGRegistry(3)
        a = reg.stream("md", 0).random()
        b = reg.stream("md", 1).random()
        c = reg.stream("exchange", 0).random()
        assert len({a, b, c}) == 3

    def test_different_seeds_differ(self):
        a = RNGRegistry(1).stream("k").random()
        b = RNGRegistry(2).stream("k").random()
        assert a != b

    def test_rejects_unhashable_key_types(self):
        reg = RNGRegistry(0)
        with pytest.raises(TypeError):
            reg.stream(3.14)

    def test_len_counts_created_streams(self):
        reg = RNGRegistry(0)
        reg.stream("a")
        reg.stream("b")
        reg.stream("a")
        assert len(reg) == 2

    def test_numpy_int_keys_ok(self):
        reg = RNGRegistry(0)
        s = reg.stream("r", np.int64(4))
        assert isinstance(s, np.random.Generator)


class TestKeyDigest:
    def test_base_131_mod_2_32(self):
        assert key_digest("") == 0
        assert key_digest("ab") == 97 * 131 + 98
        wide = "md_r00042_c0003"
        acc = 0
        for ch in wide:
            acc = (acc * 131 + ord(ch)) % 2**32
        assert key_digest(wide) == acc

    def test_registry_and_perf_model_share_it(self):
        """String key parts of a stream and the perf model's task keys
        are seeded through the one digest."""

        def gen(seed, key):
            seq = np.random.SeedSequence([seed, key_digest(key)])
            return np.random.Generator(np.random.PCG64(seq))

        assert RNGRegistry(7).transient("ab").random() == gen(7, "ab").random()
        model = PerformanceModel(jitter=0.1, seed=11)
        expected = math.exp(0.1 * gen(11, "md_r1").standard_normal())
        assert model._jittered(1.0, "md_r1") == expected
