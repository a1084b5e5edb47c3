"""Pair-selection strategies for the exchange phase.

Given one exchange group (replicas that differ only along the active
dimension, sorted by their window index), a strategy proposes which pairs
attempt a swap this cycle, as a list of *passes*.  A pass is a list of
pairs in which no replica appears twice; the exchange decides a pass's
pairs against the windows left by the earlier passes.  Three strategies
are provided; neighbour DEO is the default and the one the ablation
benchmark (``benchmarks/bench_ablation_pairsel.py``) compares against the
others.
"""

from __future__ import annotations

import abc
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.replica import Replica

#: pairs in which no replica appears twice
Pass = List[Tuple[Replica, Replica]]


def _neighbor_pass(group: Sequence[Replica], offset: int) -> Pass:
    """Pairs ``(offset, offset + 1), (offset + 2, offset + 3), ...``."""
    return [(group[k], group[k + 1]) for k in range(offset, len(group) - 1, 2)]


class PairSelector(abc.ABC):
    """Strategy interface: propose swap passes within one sorted group."""

    name: str = "abstract"

    @abc.abstractmethod
    def passes(
        self,
        group: Sequence[Replica],
        cycle: int,
        rng: np.random.Generator,
    ) -> List[Pass]:
        """Return the passes to attempt, in order.  ``group`` is sorted by
        window."""


class NeighborPairing(PairSelector):
    """Deterministic even-odd (DEO) neighbour pairing.

    Even exchange attempts pair windows (0,1), (2,3), ...; odd attempts
    pair (1,2), (3,4), ....  Alternation is what lets a configuration walk
    the whole ladder; it is the scheme used by Amber, Gromacs and the
    paper's RepEx.
    """

    name = "neighbor"

    def passes(self, group, cycle, rng):
        """One pass of neighbour pairs; the offset follows the cycle
        parity."""
        return [_neighbor_pass(group, cycle % 2)]


class RandomPairing(PairSelector):
    """Random disjoint pairing: shuffle, then pair consecutive entries.

    Mixes slower than DEO for ladder traversal (distant windows rarely
    accept) but is a useful baseline.
    """

    name = "random"

    def passes(self, group, cycle, rng):
        """One pass of shuffled pairs."""
        idx = rng.permutation(len(group))
        return [
            [
                (group[idx[k]], group[idx[k + 1]])
                for k in range(0, len(group) - 1, 2)
            ]
        ]


class GibbsPairing(PairSelector):
    """Multiple-sweep neighbour pairing (Gibbs-sampler flavoured).

    Runs ``n_sweeps`` alternating even/odd neighbour passes per exchange
    phase instead of one, approximating independence sampling over the
    permutation of windows.  More attempts per phase, better ladder mixing,
    at slightly higher exchange cost.
    """

    name = "gibbs"

    def __init__(self, n_sweeps: int = 3):
        if n_sweeps < 1:
            raise ValueError(f"n_sweeps must be >= 1, got {n_sweeps}")
        self.n_sweeps = n_sweeps

    def passes(self, group, cycle, rng):
        """``n_sweeps`` alternating neighbour passes.

        A later pass may pair replicas an earlier pass swapped; the caller
        decides each pass against the windows the earlier ones left, which
        is the Gibbs-style sequential update.
        """
        return [
            _neighbor_pass(group, (cycle + sweep) % 2)
            for sweep in range(self.n_sweeps)
        ]


_SELECTORS = {
    "neighbor": NeighborPairing,
    "random": RandomPairing,
    "gibbs": GibbsPairing,
}


def get_pair_selector(name: str, **kwargs) -> PairSelector:
    """Instantiate a pair selector by name.

    Raises
    ------
    KeyError
        If the name is unknown.
    """
    try:
        cls = _SELECTORS[name]
    except KeyError:
        raise KeyError(
            f"unknown pair selector {name!r}; known: {sorted(_SELECTORS)}"
        ) from None
    return cls(**kwargs)
