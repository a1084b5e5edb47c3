"""Batched Metropolis passes must be bit-identical to the scalar oracle.

``compute_exchange`` evaluates all pair exponents of a pass as one stacked
numpy expression (``ExchangeDimension.batch_exchange_deltas``) and then
runs the accept/reject loop sequentially.  Every batched exponent must
equal the scalar formula in ``tests/exchange_oracles.py`` *exactly* — the
golden traces compare Metropolis decisions, and a 1-ulp drift flips
marginal ones — so these tests assert float equality, not approx.
"""

import numpy as np
import pytest

from repro.core.exchange import (
    GibbsPairing,
    NeighborPairing,
    PHDimension,
    RandomPairing,
    SaltDimension,
    TemperatureDimension,
    UmbrellaDimension,
)
from repro.core.ram import compute_exchange
from repro.core.replica import Replica
from repro.md.toymd import ThermodynamicState

from tests.exchange_oracles import exchange_delta, reference_exchange


def make_group(n, dim_name, rng):
    """Replicas with randomized coords/energies on windows 0..n-1."""
    reps = []
    for i in range(n):
        r = Replica(
            rid=i,
            coords=rng.uniform(-np.pi, np.pi, size=2),
            param_indices={dim_name: i},
        )
        r.last_energies = {
            "potential_energy": float(rng.normal(-90.0, 15.0)),
            "protonation": float(i % 2),
        }
        reps.append(r)
    return reps


def make_states(dim, reps):
    return {
        r.rid: dim.apply(
            ThermodynamicState(temperature=300.0 + 2.0 * r.rid),
            r.window(dim.name),
        )
        for r in reps
    }


def dimensions(n):
    return [
        TemperatureDimension.geometric(280.0, 400.0, n),
        UmbrellaDimension(
            [i * 360.0 / n for i in range(n)],
            angle="phi", force_constant=0.01,
        ),
        UmbrellaDimension(
            [i * 360.0 / n for i in range(n)],
            angle="psi", force_constant=0.02,
        ),
        PHDimension.linear(4.0, 9.0, n),
    ]


def toy_salt_energy(coords, salt):
    """A pure stand-in for the engine's single-point energy."""
    return float(-40.0 + 8.0 * np.cos(coords[0] - salt)
                 + 3.0 * salt * np.sin(coords[1]))


@pytest.mark.parametrize("dim_index", range(4))
@pytest.mark.parametrize("seed", [0, 7])
def test_batch_deltas_equal_scalar_deltas_exactly(dim_index, seed):
    rng = np.random.default_rng(seed)
    n = 9
    dim = dimensions(n)[dim_index]
    reps = make_group(n, dim.name, rng)
    states = make_states(dim, reps)
    window_of = {r.rid: r.window(dim.name) for r in reps}
    [pairs] = NeighborPairing().passes(reps, cycle=seed, rng=rng)
    deltas = dim.batch_exchange_deltas(
        pairs, window_of=window_of, states=states,
    )
    assert len(deltas) == len(pairs)
    for k, (a, b) in enumerate(pairs):
        scalar = exchange_delta(
            dim, a, b, window_i=window_of[a.rid], window_j=window_of[b.rid],
            states=states,
        )
        assert float(deltas[k]) == scalar  # exact, not approx


def test_salt_batch_matches_scalar_with_energy_matrix():
    rng = np.random.default_rng(3)
    n = 8
    dim = SaltDimension([0.1 * i for i in range(n)])
    reps = make_group(n, dim.name, rng)
    states = make_states(dim, reps)
    window_of = {r.rid: r.window(dim.name) for r in reps}
    energy_matrix = {r.rid: rng.normal(-50.0, 5.0, size=n) for r in reps}
    [pairs] = NeighborPairing().passes(reps, cycle=0, rng=rng)
    deltas = dim.batch_exchange_deltas(
        pairs, window_of=window_of, states=states,
        energy_matrix=energy_matrix,
    )
    for k, (a, b) in enumerate(pairs):
        scalar = exchange_delta(
            dim, a, b, window_i=window_of[a.rid], window_j=window_of[b.rid],
            states=states, energy_matrix=energy_matrix,
        )
        assert float(deltas[k]) == scalar


def decisions(proposals):
    """What a sweep decided, in the oracle's tuple form."""
    return [
        (p.rid_i, p.rid_j, p.dimension, p.delta, p.accepted)
        for p in proposals
    ]


@pytest.mark.parametrize("dim_index", range(4))
def test_compute_exchange_identical_with_and_without_batching(dim_index):
    """Full neighbour sweep: the batched pass and the scalar loop make the
    same proposals and decisions, and consume the same draws."""
    n = 12
    outcomes = []
    for batched in (True, False):
        rng = np.random.default_rng(42)
        dim = dimensions(n)[dim_index]
        reps = make_group(n, dim.name, np.random.default_rng(17))
        states = make_states(dim, reps)
        if batched:
            decided = decisions(compute_exchange(
                dim, reps, states, NeighborPairing(), cycle=1, rng=rng,
            ))
        else:
            decided = reference_exchange(
                dim, reps, states, NeighborPairing(), 1, rng
            )
        # same stream position afterwards
        outcomes.append((decided, rng.random()))
    assert outcomes[0] == outcomes[1]


SELECTORS = {
    "neighbor": NeighborPairing,
    "random": RandomPairing,
    "gibbs": lambda: GibbsPairing(n_sweeps=3),
}
CASES = ["T", "U-phi", "U-psi", "pH", "salt-matrix", "salt-internal"]


def exchange_case(case, n, rng):
    """``(dimension, group, states, energy_matrix, calls)`` for one case;
    the internal salt evaluator records each ``(coords, salt)`` call in
    ``calls``."""
    if case.startswith("salt"):
        dim = SaltDimension.linear(0.0, 1.0, n, internal=case == "salt-internal")
    else:
        dim = dimensions(n)[CASES.index(case)]
    reps = make_group(n, dim.name, rng)
    states = make_states(dim, reps)
    energy_matrix = None
    if case == "salt-matrix":
        energy_matrix = {r.rid: rng.normal(-50.0, 5.0, size=n) for r in reps}
    calls = []
    if case == "salt-internal":
        def evaluator(coords, salt):
            calls.append((tuple(coords), salt))
            return toy_salt_energy(coords, salt)

        dim.evaluator = evaluator
    return dim, reps, states, energy_matrix, calls


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("selector", sorted(SELECTORS))
@pytest.mark.parametrize("n, cycle", [(9, 0), (12, 1)])
def test_compute_exchange_matches_oracle(n, cycle, selector, case):
    """Every selector x dimension: the pass-by-pass exchange makes the
    scalar loop's proposals and decisions, leaves the stream at the same
    position, and (internal salt) makes the same evaluator calls."""
    runs = []
    for batched in (True, False):
        rng = np.random.default_rng(2016 + n)
        dim, reps, states, matrix, calls = exchange_case(
            case, n, np.random.default_rng(n)
        )
        if batched:
            decided = decisions(compute_exchange(
                dim, reps, states, SELECTORS[selector](), cycle, rng,
                energy_matrix=matrix,
            ))
        else:
            decided = reference_exchange(
                dim, reps, states, SELECTORS[selector](), cycle, rng, matrix
            )
        runs.append((decided, rng.random(), calls))
    assert runs[0] == runs[1]
    assert runs[0][0]  # the case proposed something


@pytest.mark.parametrize("missing", ["potential_energy", "salt_row", "evaluator"])
def test_missing_input_raises_before_the_pass_draws(missing):
    """A missing MD energy or single-point row raises KeyError, and an
    internal salt dimension without an evaluator ValueError, before any
    pair of the pass is decided."""
    n = 6
    rng = np.random.default_rng(1)
    if missing == "potential_energy":
        dim = TemperatureDimension.geometric(280.0, 400.0, n)
    else:
        dim = SaltDimension.linear(0.0, 1.0, n, internal=missing == "evaluator")
    reps = make_group(n, dim.name, rng)
    states = make_states(dim, reps)
    matrix = None
    if missing == "potential_energy":
        del reps[4].last_energies["potential_energy"]
    elif missing == "salt_row":
        matrix = {r.rid: np.zeros(n) for r in reps if r.rid != 4}
    error = ValueError if missing == "evaluator" else KeyError
    stream = np.random.default_rng(5)
    before = stream.bit_generator.state
    with pytest.raises(error):
        compute_exchange(
            dim, reps, states, NeighborPairing(), 0, stream,
            energy_matrix=matrix,
        )
    assert stream.bit_generator.state == before
