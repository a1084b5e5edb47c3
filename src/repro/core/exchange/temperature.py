"""Temperature exchange (T-REMD).

The original REMD dimension (Sugita & Okamoto 1999).  The Hamiltonians of
the two replicas are identical, so the general criterion collapses to::

    Delta = (beta_i - beta_j) (U(x_j) - U(x_i))

with ``U`` the total potential energy already reported by the MD phase —
no extra energy evaluations are needed, which is why T exchange is cheap
(paper Fig. 6: a single MPI task performs the exchange).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.exchange.base import ExchangeDimension
from repro.core.replica import Replica
from repro.md.toymd import ThermodynamicState
from repro.utils.units import beta_from_temperature, geometric_temperature_ladder


class TemperatureDimension(ExchangeDimension):
    """Exchange dimension over a temperature ladder (Kelvin)."""

    code = "T"

    def __init__(self, values: Sequence[float], name: str = "temperature"):
        super().__init__(name, values)
        for t in self.values:
            if t <= 0:
                raise ValueError(f"temperatures must be > 0 K, got {t}")

    @classmethod
    def geometric(
        cls,
        t_min: float,
        t_max: float,
        n_windows: int,
        name: str = "temperature",
    ) -> "TemperatureDimension":
        """The standard geometric ladder (paper: 273-373 K, 6 windows)."""
        return cls(
            geometric_temperature_ladder(t_min, t_max, n_windows), name=name
        )

    def apply(self, state: ThermodynamicState, index: int) -> ThermodynamicState:
        """Set the state's temperature to window ``index``."""
        return state.with_temperature(float(self.value(index)))

    def batch_exchange_deltas(
        self,
        pairs: Sequence[Tuple[Replica, Replica]],
        *,
        window_of: Dict[int, int],
        states: Dict[int, ThermodynamicState],
        energy_matrix: Optional[Dict[int, np.ndarray]] = None,
    ) -> np.ndarray:
        """``(beta_i - beta_j)(U_j - U_i)`` from the MD phase energies.

        The per-window betas come from the cached ladder.

        Raises
        ------
        KeyError
            If a replica of the pass has no recorded ``potential_energy``.
        """
        n = len(pairs)
        betas = self._ladder("beta", lambda t: beta_from_temperature(float(t)))
        beta_i = betas[
            np.fromiter((window_of[a.rid] for a, _ in pairs), np.intp, count=n)
        ]
        beta_j = betas[
            np.fromiter((window_of[b.rid] for _, b in pairs), np.intp, count=n)
        ]
        u_i = np.fromiter(
            (a.last_energies["potential_energy"] for a, _ in pairs),
            dtype=float,
            count=n,
        )
        u_j = np.fromiter(
            (b.last_energies["potential_energy"] for _, b in pairs),
            dtype=float,
            count=n,
        )
        return (beta_i - beta_j) * (u_j - u_i)
