"""pH exchange — the paper's named future-work extension.

"A number of additional exchange parameters can be added to support other
types of multi-dimensional REMD simulations (for example pH exchange)."
(paper, Sec. 5.)  This module adds it, demonstrating that a new dimension
needs nothing beyond subclassing :class:`ExchangeDimension`.

Model: a discrete two-state protonation site following Meng & Roitberg's
discrete-protonation constant-pH REMD.  The site's protonation free energy
at pH ``p`` is ``G(p) = kT ln(10) (p - pKa)``; the configurational coupling
is a shift of the electrostatic term when protonated.  The exchange swaps
pH values between replicas: replica ``i``'s configuration (occupancy
``n_i``) moves from ``pH_i`` to ``pH_j`` and replica ``j``'s the other way,
so with ``P = min(1, exp(-Delta))``::

    Delta = ln(10) (n_i - n_j) (pH_j - pH_i)

with ``n_k`` the protonation occupancy of replica ``k`` (the standard
constant-pH exchange criterion): moving a protonated site to a higher pH
costs.  The exponent carries no beta, because ``G(p) / kT`` leaves
``ln(10) (p - pKa)`` and temperature drops out.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.exchange.base import ExchangeDimension
from repro.core.replica import Replica
from repro.md.toymd import ThermodynamicState

LN10 = math.log(10.0)


class PHDimension(ExchangeDimension):
    """Exchange dimension over pH values for a single titratable site."""

    code = "H"

    def __init__(
        self,
        values: Sequence[float],
        *,
        pka: float = 6.5,
        name: str = "ph",
    ):
        super().__init__(name, values)
        self.pka = pka

    @classmethod
    def linear(
        cls, ph_min: float, ph_max: float, n_windows: int, *, pka: float = 6.5
    ) -> "PHDimension":
        """Evenly spaced pH ladder."""
        if n_windows < 1:
            raise ValueError(f"n_windows must be >= 1, got {n_windows}")
        if n_windows == 1:
            return cls([ph_min], pka=pka)
        step = (ph_max - ph_min) / (n_windows - 1)
        return cls([ph_min + i * step for i in range(n_windows)], pka=pka)

    def apply(self, state: ThermodynamicState, index: int) -> ThermodynamicState:
        """pH does not alter the toy Hamiltonian's continuous part.

        The protonation degree of freedom is sampled per cycle (see
        :meth:`protonation_occupancy`); the MD phase itself is unchanged,
        as in discrete-protonation constant-pH MD where titration moves
        happen between MD segments.
        """
        self.value(index)  # validates the index
        return state

    def protonation_occupancy(
        self, ph: float, rng: np.random.Generator
    ) -> int:
        """Sample the site's protonation (1 = protonated) at ``ph``.

        Henderson-Hasselbalch: P(protonated) = 1 / (1 + 10^(pH - pKa)).
        """
        p_prot = 1.0 / (1.0 + 10.0 ** (ph - self.pka))
        return int(rng.random() < p_prot)

    def batch_exchange_deltas(
        self,
        pairs: Sequence[Tuple[Replica, Replica]],
        *,
        window_of: Dict[int, int],
        states: Dict[int, ThermodynamicState],
        energy_matrix: Optional[Dict[int, np.ndarray]] = None,
    ) -> np.ndarray:
        """Constant-pH exchange exponents from protonation occupancies.

        Occupancies are read from ``last_energies['protonation']`` (written
        by the AMM's pH bookkeeping after each MD phase); a replica without
        one counts as deprotonated.
        """
        n = len(pairs)
        phs = self._ladder("ph", float)
        ph_i = phs[
            np.fromiter((window_of[a.rid] for a, _ in pairs), np.intp, count=n)
        ]
        ph_j = phs[
            np.fromiter((window_of[b.rid] for _, b in pairs), np.intp, count=n)
        ]
        n_i = np.fromiter(
            (a.last_energies.get("protonation", 0.0) for a, _ in pairs),
            dtype=float,
            count=n,
        )
        n_j = np.fromiter(
            (b.last_energies.get("protonation", 0.0) for _, b in pairs),
            dtype=float,
            count=n,
        )
        return LN10 * (n_i - n_j) * (ph_j - ph_i)
