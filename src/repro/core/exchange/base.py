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
energies at swapped salt concentrations, computed by extra tasks or
inside the exchange task.  U and S evaluate :func:`metropolis_delta`
itself, on the stacked arrays of a pass.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.replica import Replica
from repro.md.toymd import ThermodynamicState
from repro.utils.units import beta_from_temperature


def metropolis_delta(
    beta_i: float | np.ndarray,
    beta_j: float | np.ndarray,
    e_i_of_xi: float | np.ndarray,
    e_i_of_xj: float | np.ndarray,
    e_j_of_xi: float | np.ndarray,
    e_j_of_xj: float | np.ndarray,
) -> float | np.ndarray:
    """The generalized exchange exponent Delta (see module docstring),
    elementwise when given the stacked arrays of a pass."""
    return beta_i * (e_i_of_xj - e_i_of_xi) + beta_j * (e_j_of_xi - e_j_of_xj)


def metropolis_accept(delta: float, rng: np.random.Generator) -> bool:
    """Accept a swap with probability ``min(1, exp(-delta))``.

    Draws from ``rng`` only for uphill proposals (``delta > 0``).
    """
    if delta <= 0.0:
        return True
    # exp underflows harmlessly to 0 for large delta
    return bool(rng.random() < math.exp(-min(delta, 700.0)))


def pair_state_betas(
    pairs: Sequence[Tuple[Replica, Replica]],
    states: Dict[int, ThermodynamicState],
) -> Tuple[np.ndarray, np.ndarray]:
    """Stacked ``(beta_i, beta_j)`` of the pairs' MD-phase states, each
    from one scalar ``beta_from_temperature`` call."""
    n = len(pairs)
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
    def batch_exchange_deltas(
        self,
        pairs: Sequence[Tuple[Replica, Replica]],
        *,
        window_of: Dict[int, int],
        states: Dict[int, ThermodynamicState],
        energy_matrix: Optional[Dict[int, np.ndarray]] = None,
    ) -> np.ndarray:
        """Metropolis exponents of one pass, one float64 per pair.

        ``pairs`` is a pass: no replica appears in two of its pairs, so
        the windows in ``window_of`` (rid -> current window along this
        dimension) hold for every pair of it.  ``states`` maps rid -> the
        replica's full thermodynamic state during the preceding MD phase
        (the parameters this dimension does not exchange).
        ``energy_matrix`` (rid -> energies of that replica's coords in the
        windows of this dimension) comes from the single-point tasks when
        :attr:`requires_single_point` is True.

        Each dimension gathers its reduced quantities (ladder betas,
        restraint centers, MD energies, energy rows) into stacked arrays
        and evaluates its exponent as one elementwise numpy expression.
        A missing input raises before any pair of the pass is decided.
        """

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
