"""Exchange dimensions: the abstract interface plus the Metropolis engine.

An :class:`ExchangeDimension` packages everything RepEx needs to exchange
one kind of parameter: the window ladder, how a window modifies a replica's
:class:`~repro.md.toymd.ThermodynamicState`, and how to compute the
Metropolis exponent for a proposed swap.

The general swap criterion between replica ``i`` at state ``(beta_i, H_i)``
holding configuration ``x_i`` and replica ``j`` at ``(beta_j, H_j)``
holding ``x_j`` is::

    P = min(1, exp(-Delta))
    Delta = beta_i [H_i(x_j) - H_i(x_i)] + beta_j [H_j(x_i) - H_j(x_j)]

Every concrete dimension reduces to this with its own shortcut for the
cross energies: T-REMD needs none (the Hamiltonians are equal, energies
come straight from the MD info files); U-REMD evaluates only restraint
energies (everything else cancels); S-REMD needs genuine single-point
energies at swapped salt concentrations, computed by extra tasks.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.replica import Replica
from repro.md.toymd import ThermodynamicState
from repro.obs.metrics import get_registry
from repro.utils.units import beta_from_temperature


def metropolis_delta(
    beta_i: float,
    beta_j: float,
    e_i_of_xi: float,
    e_i_of_xj: float,
    e_j_of_xi: float,
    e_j_of_xj: float,
) -> float:
    """The generalized exchange exponent Delta (see module docstring)."""
    return beta_i * (e_i_of_xj - e_i_of_xi) + beta_j * (e_j_of_xi - e_j_of_xj)


def metropolis_accept(
    delta: float,
    rng: np.random.Generator,
    dimension: Optional[str] = None,
) -> bool:
    """Accept a swap with probability ``min(1, exp(-delta))``.

    Every call counts toward ``exchange.attempted`` /
    ``exchange.accepted`` in the process-local metrics registry — this
    is the single choke point every dimension's swap decision goes
    through, so the counters agree with the per-dimension
    :class:`~repro.core.results.ExchangeStats` by construction.  When
    ``dimension`` is given the labelled pair
    ``exchange.attempted{dim=<name>}`` / ``exchange.accepted{dim=<name>}``
    is incremented alongside the global counters.
    """
    registry = get_registry()
    registry.counter("exchange.attempted").inc()
    if dimension is not None:
        registry.counter(f"exchange.attempted{{dim={dimension}}}").inc()

    def _accept() -> None:
        registry.counter("exchange.accepted").inc()
        if dimension is not None:
            registry.counter(f"exchange.accepted{{dim={dimension}}}").inc()

    if delta <= 0.0:
        _accept()
        return True
    # exp underflows harmlessly to 0 for large delta
    accepted = bool(rng.random() < math.exp(-min(delta, 700.0)))
    if accepted:
        _accept()
    return accepted


def pair_state_betas(
    pairs: Sequence[Tuple[Replica, Replica]],
    states: Dict[int, "ThermodynamicState"],
    cache: Optional["GroupEnergyCache"],
) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked ``(beta_i, beta_j)`` arrays for a batch of pairs.

    Each entry comes from the same scalar ``beta_from_temperature`` call
    the per-pair path makes, so the arrays are bit-identical gathers.
    """
    n = len(pairs)
    if cache is not None:
        beta = cache.state_beta
        b_i = np.fromiter((beta(a.rid) for a, _ in pairs), dtype=float, count=n)
        b_j = np.fromiter((beta(b.rid) for _, b in pairs), dtype=float, count=n)
    else:
        b_i = np.fromiter(
            (beta_from_temperature(states[a.rid].temperature) for a, _ in pairs),
            dtype=float,
            count=n,
        )
        b_j = np.fromiter(
            (beta_from_temperature(states[b.rid].temperature) for _, b in pairs),
            dtype=float,
            count=n,
        )
    return b_i, b_j


class GroupEnergyCache:
    """Per-exchange-phase cache of reduced per-replica quantities.

    One instance lives for the duration of one exchange task's work
    callable and is shared across every group it sweeps (and every
    dimension that consults it in multi-dimensional setups), so
    state-derived reductions such as ``beta(state)`` are computed once per
    replica per phase instead of once per pair per sweep.  Values are
    produced by the exact scalar helpers the per-pair path uses, so cached
    and uncached sweeps yield bit-identical exponents.
    """

    def __init__(self, states: Dict[int, "ThermodynamicState"]):
        self.states = states
        self._state_beta: Dict[int, float] = {}

    def state_beta(self, rid: int) -> float:
        """``1/(kB T)`` of replica ``rid``'s MD-phase state, memoized."""
        beta = self._state_beta.get(rid)
        if beta is None:
            beta = beta_from_temperature(self.states[rid].temperature)
            self._state_beta[rid] = beta
        return beta


@dataclass
class SwapProposal:
    """A proposed (and possibly accepted) swap between two replicas."""

    rid_i: int
    rid_j: int
    dimension: str
    delta: float
    accepted: bool


class ExchangeDimension(abc.ABC):
    """One exchangeable parameter with its window ladder."""

    #: single-letter code used in type strings such as "TSU"
    code: str = "?"

    def __init__(self, name: str, values: Sequence):
        if not values:
            raise ValueError(f"dimension {name!r} needs at least one window")
        self.name = name
        self.values = list(values)
        #: reduced per-window ladders (betas, restraint centers, ...) —
        #: computed once per dimension, reused across every cycle and
        #: every group of a run (the window values are fixed at
        #: construction).
        self._ladder_cache: Dict[str, np.ndarray] = {}

    @property
    def n_windows(self) -> int:
        """Number of ladder rungs."""
        return len(self.values)

    def value(self, index: int) -> object:
        """Window value at ``index``.

        Raises
        ------
        IndexError
            For an out-of-range window index.
        """
        if not 0 <= index < len(self.values):
            raise IndexError(
                f"{self.name}: window {index} out of range "
                f"[0, {len(self.values)})"
            )
        return self.values[index]

    # -- state plumbing ------------------------------------------------------

    @abc.abstractmethod
    def apply(self, state: ThermodynamicState, index: int) -> ThermodynamicState:
        """Return ``state`` with this dimension set to window ``index``."""

    # -- exchange ------------------------------------------------------------

    #: Whether the exchange needs extra single-point-energy tasks
    #: (True only for salt concentration, per the paper).
    requires_single_point: bool = False

    @abc.abstractmethod
    def exchange_delta(
        self,
        rep_i: Replica,
        rep_j: Replica,
        *,
        window_i: int,
        window_j: int,
        states: Dict[int, ThermodynamicState],
        energy_matrix: Optional[Dict[int, np.ndarray]] = None,
    ) -> float:
        """Metropolis exponent for swapping ``rep_i`` and ``rep_j``.

        ``window_i``/``window_j`` are the replicas' *current* window indices
        along this dimension — passed explicitly because sequential pairing
        schemes (Gibbs sweeps) update windows within one exchange phase.
        ``states`` maps rid -> the replica's full thermodynamic state during
        the preceding MD phase (used for the parameters this dimension does
        not exchange).  ``energy_matrix`` (rid -> energies of that replica's
        coords in every window of this dimension) is only provided when
        :attr:`requires_single_point` is True.
        """

    def batch_exchange_deltas(
        self,
        pairs: Sequence[Tuple[Replica, Replica]],
        *,
        window_of: Dict[int, int],
        states: Dict[int, ThermodynamicState],
        energy_matrix: Optional[Dict[int, np.ndarray]] = None,
        cache: Optional[GroupEnergyCache] = None,
    ) -> Optional[np.ndarray]:
        """Metropolis exponents for a *disjoint* set of pairs, stacked.

        Returns one float64 exponent per pair — bit-identical to calling
        :meth:`exchange_delta` pair by pair — or ``None`` when this
        dimension has no vectorized path, in which case the caller falls
        back to the scalar method.  Only valid for pair sets in which no
        replica appears twice (``window_of`` must not evolve mid-batch);
        sequential schemes such as Gibbs sweeps must use the scalar path.

        The default implementation opts out; concrete dimensions override
        it by gathering their reduced quantities (ladder betas, restraint
        centers, MD energies, single-point ``energy_matrix`` rows) into
        stacked arrays and evaluating the exponent as one elementwise
        numpy expression whose operation order matches the scalar
        formula.  ``cache`` (when provided by the exchange task) memoizes
        state-level reductions across groups and dimensions of one phase.
        """
        return None

    def _ladder(self, key: str, fn: Callable[[object], float]) -> np.ndarray:
        """Memoized per-window reduction ``fn(value)`` over the ladder."""
        arr = self._ladder_cache.get(key)
        if arr is None:
            arr = np.array([fn(v) for v in self.values], dtype=float)
            self._ladder_cache[key] = arr
        return arr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name!r}, "
            f"{self.n_windows} windows)"
        )
