"""Property-based tests for pair selection and the Metropolis criterion.

Complements ``test_property_exchange.py`` (window-multiset invariance)
with the pairing-level invariants: disjointness of every pass of every
selector, adjacency of neighbour pairs, symmetry of the exchange exponent
under pair reversal, and the empirical acceptance rate of
:func:`metropolis_accept` against ``min(1, exp(-delta))``.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exchange.base import metropolis_accept, metropolis_delta
from repro.core.exchange.pairing import (
    GibbsPairing,
    NeighborPairing,
    RandomPairing,
    get_pair_selector,
)
from repro.core.exchange.temperature import TemperatureDimension
from repro.core.replica import Replica
from repro.md.toymd import ThermodynamicState


def make_group(n):
    return [
        Replica(
            rid=i, coords=np.zeros(2), param_indices={"temperature": i}
        )
        for i in range(n)
    ]


@given(
    n=st.integers(min_value=0, max_value=33),
    cycle=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=100, deadline=None)
def test_neighbor_pairs_disjoint_and_adjacent(n, cycle):
    """DEO pairing is one pass that touches each replica at most once,
    neighbours only."""
    [pairs] = NeighborPairing().passes(
        make_group(n), cycle, np.random.default_rng(0)
    )
    seen = [r.rid for p in pairs for r in p]
    assert len(seen) == len(set(seen))
    for a, b in pairs:
        assert b.rid - a.rid == 1
        assert a.rid % 2 == cycle % 2


@given(
    n=st.integers(min_value=0, max_value=33),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
@settings(max_examples=100, deadline=None)
def test_random_pairs_disjoint(n, seed):
    """Random pairing is one pass, a partial matching: no replica appears
    twice."""
    [pairs] = RandomPairing().passes(
        make_group(n), 0, np.random.default_rng(seed)
    )
    seen = [r.rid for p in pairs for r in p]
    assert len(seen) == len(set(seen))
    assert len(pairs) == n // 2


@given(
    n=st.integers(min_value=2, max_value=16),
    cycle=st.integers(min_value=0, max_value=5),
    n_sweeps=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=100, deadline=None)
def test_gibbs_pairs_are_neighbor_sweeps(n, cycle, n_sweeps):
    """Gibbs pairing is exactly n_sweeps alternating DEO passes."""
    rng = np.random.default_rng(0)
    group = make_group(n)
    got = GibbsPairing(n_sweeps=n_sweeps).passes(group, cycle, rng)
    expected = [
        NeighborPairing().passes(group, cycle + sweep, rng)[0]
        for sweep in range(n_sweeps)
    ]
    assert [[(a.rid, b.rid) for a, b in p] for p in got] == [
        [(a.rid, b.rid) for a, b in p] for p in expected
    ]


@given(
    n=st.integers(min_value=0, max_value=33),
    cycle=st.integers(min_value=0, max_value=7),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    name=st.sampled_from(["neighbor", "random", "gibbs"]),
)
@settings(max_examples=150, deadline=None)
def test_every_pass_of_every_selector_is_disjoint(n, cycle, seed, name):
    """No replica appears twice within one pass, whatever the selector:
    the exchange evaluates a pass against one window assignment."""
    passes = get_pair_selector(name).passes(
        make_group(n), cycle, np.random.default_rng(seed)
    )
    assert passes
    for pairs in passes:
        seen = [r.rid for p in pairs for r in p]
        assert len(seen) == len(set(seen))


@given(
    n=st.integers(min_value=2, max_value=24),
    cycle=st.integers(min_value=0, max_value=5),
)
@settings(max_examples=100, deadline=None)
def test_neighbor_pairing_is_positional(n, cycle):
    """Pairing depends only on ladder positions, not replica identity:
    relabelling rids leaves the selected positions unchanged."""
    rng = np.random.default_rng(0)
    [base] = NeighborPairing().passes(make_group(n), cycle, rng)
    relabeled = [
        Replica(
            rid=1000 - i, coords=np.zeros(2),
            param_indices={"temperature": i},
        )
        for i in range(n)
    ]
    [perm] = NeighborPairing().passes(relabeled, cycle, rng)
    base_pos = [(a.rid, b.rid) for a, b in base]
    perm_pos = [(1000 - a.rid, 1000 - b.rid) for a, b in perm]
    assert base_pos == perm_pos


@given(
    u_i=st.floats(min_value=-500.0, max_value=500.0, allow_nan=False),
    u_j=st.floats(min_value=-500.0, max_value=500.0, allow_nan=False),
    w_i=st.integers(min_value=0, max_value=7),
    w_j=st.integers(min_value=0, max_value=7),
)
@settings(max_examples=200, deadline=None)
def test_temperature_delta_symmetric_under_pair_reversal(u_i, u_j, w_i, w_j):
    """Delta(i, j) == Delta(j, i): the acceptance probability cannot
    depend on which replica of the pair is named first."""
    dim = TemperatureDimension.geometric(273.0, 373.0, 8)
    rep_i, rep_j = make_group(2)
    rep_i.last_energies = {"potential_energy": u_i}
    rep_j.last_energies = {"potential_energy": u_j}
    states = {
        rep_i.rid: ThermodynamicState(float(dim.value(w_i))),
        rep_j.rid: ThermodynamicState(float(dim.value(w_j))),
    }
    window_of = {rep_i.rid: w_i, rep_j.rid: w_j}
    [d_ij] = dim.batch_exchange_deltas(
        [(rep_i, rep_j)], window_of=window_of, states=states
    )
    [d_ji] = dim.batch_exchange_deltas(
        [(rep_j, rep_i)], window_of=window_of, states=states
    )
    assert d_ij == d_ji


@given(
    betas=st.tuples(
        st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=5.0, allow_nan=False),
    ),
    energies=st.tuples(
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
        st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    ),
)
@settings(max_examples=200, deadline=None)
def test_general_delta_symmetric_under_pair_reversal(betas, energies):
    """The generalized exponent is symmetric when both labels swap."""
    beta_i, beta_j = betas
    e_ii, e_ij, e_ji, e_jj = energies
    forward = metropolis_delta(beta_i, beta_j, e_ii, e_ij, e_ji, e_jj)
    # swapping i<->j relabels both the betas and the energy matrix
    backward = metropolis_delta(beta_j, beta_i, e_jj, e_ji, e_ij, e_ii)
    assert forward == backward


def test_metropolis_accepts_nonpositive_delta():
    rng = np.random.default_rng(3)
    for delta in (0.0, -1e-12, -0.5, -100.0):
        assert metropolis_accept(delta, rng)


def test_metropolis_empirical_rate_matches_probability():
    """Seeded empirical acceptance rate tracks min(1, exp(-delta))."""
    rng = np.random.default_rng(2016)
    n = 20000
    for delta in (0.25, 1.0, 3.0):
        accepted = sum(metropolis_accept(delta, rng) for _ in range(n))
        expected = math.exp(-delta)
        rate = accepted / n
        # three-sigma band of the binomial
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(rate - expected) < 4 * sigma


def test_metropolis_huge_delta_never_accepts():
    rng = np.random.default_rng(5)
    assert not any(metropolis_accept(1e6, rng) for _ in range(100))
