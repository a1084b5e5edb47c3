"""Tests for pair-selection strategies."""

import numpy as np
import pytest

from repro.core.exchange.pairing import (
    GibbsPairing,
    NeighborPairing,
    RandomPairing,
    get_pair_selector,
)
from repro.core.replica import Replica


def make_group(n):
    return [
        Replica(rid=i, coords=np.zeros(2), param_indices={"d": i})
        for i in range(n)
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestNeighborPairing:
    def test_even_cycle_pairs(self, rng):
        group = make_group(6)
        [pairs] = NeighborPairing().passes(group, cycle=0, rng=rng)
        assert [(a.rid, b.rid) for a, b in pairs] == [(0, 1), (2, 3), (4, 5)]

    def test_odd_cycle_pairs(self, rng):
        group = make_group(6)
        [pairs] = NeighborPairing().passes(group, cycle=1, rng=rng)
        assert [(a.rid, b.rid) for a, b in pairs] == [(1, 2), (3, 4)]

    def test_odd_group_size(self, rng):
        group = make_group(5)
        [pairs] = NeighborPairing().passes(group, cycle=0, rng=rng)
        assert [(a.rid, b.rid) for a, b in pairs] == [(0, 1), (2, 3)]

    def test_pairs_are_disjoint(self, rng):
        for cycle in (0, 1):
            [pairs] = NeighborPairing().passes(make_group(9), cycle, rng)
            seen = [r.rid for p in pairs for r in p]
            assert len(seen) == len(set(seen))

    def test_tiny_groups(self, rng):
        assert NeighborPairing().passes(make_group(1), 0, rng) == [[]]
        assert NeighborPairing().passes([], 0, rng) == [[]]


class TestRandomPairing:
    def test_disjoint(self, rng):
        [pairs] = RandomPairing().passes(make_group(8), 0, rng)
        seen = [r.rid for p in pairs for r in p]
        assert len(seen) == len(set(seen)) == 8

    def test_varies_with_rng(self):
        g = make_group(8)
        [p1] = RandomPairing().passes(g, 0, np.random.default_rng(1))
        [p2] = RandomPairing().passes(g, 0, np.random.default_rng(2))
        assert [(a.rid, b.rid) for a, b in p1] != [
            (a.rid, b.rid) for a, b in p2
        ]


class TestGibbsPairing:
    def test_more_attempts_than_neighbor(self, rng):
        g = make_group(8)
        passes = GibbsPairing(n_sweeps=3).passes(g, 0, rng)
        [pairs] = NeighborPairing().passes(g, 0, rng)
        assert len(passes) == 3
        assert sum(map(len, passes)) > len(pairs)

    def test_sweeps_alternate_offsets(self, rng):
        g = make_group(4)
        even, odd = GibbsPairing(n_sweeps=2).passes(g, 0, rng)
        assert [(a.rid, b.rid) for a, b in even] == [(0, 1), (2, 3)]
        assert [(a.rid, b.rid) for a, b in odd] == [(1, 2)]

    def test_validation(self):
        with pytest.raises(ValueError):
            GibbsPairing(n_sweeps=0)


class TestRegistry:
    def test_lookup(self):
        assert isinstance(get_pair_selector("neighbor"), NeighborPairing)
        assert isinstance(get_pair_selector("random"), RandomPairing)
        assert isinstance(
            get_pair_selector("gibbs", n_sweeps=5), GibbsPairing
        )

    def test_unknown(self):
        with pytest.raises(KeyError, match="unknown pair selector"):
            get_pair_selector("tournament")
