"""Umbrella-sampling (biasing potential) exchange — U-REMD.

A Hamiltonian exchange where the Hamiltonians differ only by the harmonic
restraint, so every other term cancels from the Metropolis exponent::

    Delta = beta_i [W_i(x_j) - W_i(x_i)] + beta_j [W_j(x_i) - W_j(x_j)]

with ``W_k`` the restraint energy of window ``k``.  The restraint is
analytic, so RepEx computes these four numbers internally ("In case of
U-REMD we have implemented a single point energy calculation internally",
paper Sec. 4.2) — no extra tasks, which is why U exchange times track T
exchange times in Figs. 6 and 9.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.exchange.base import (
    ExchangeDimension,
    metropolis_delta,
    pair_state_betas,
)
from repro.core.replica import Replica
from repro.md.forcefield import UmbrellaRestraint, _deg, wrap_angle
from repro.md.toymd import ThermodynamicState
from repro.utils.units import uniform_ladder


class UmbrellaDimension(ExchangeDimension):
    """Exchange dimension over umbrella-window centers on one torsion."""

    code = "U"

    def __init__(
        self,
        centers_deg: Sequence[float],
        *,
        angle: str = "phi",
        force_constant: float = 0.02,
        name: Optional[str] = None,
    ):
        if angle not in ("phi", "psi"):
            raise ValueError(f"angle must be 'phi' or 'psi', got {angle!r}")
        if force_constant < 0:
            raise ValueError(
                f"force_constant must be >= 0, got {force_constant}"
            )
        super().__init__(name or f"umbrella_{angle}", centers_deg)
        self.angle = angle
        self.force_constant = force_constant

    @classmethod
    def uniform(
        cls,
        n_windows: int,
        *,
        lo: float = 0.0,
        hi: float = 360.0,
        angle: str = "phi",
        force_constant: float = 0.02,
        name: Optional[str] = None,
    ) -> "UmbrellaDimension":
        """Evenly spaced periodic windows (paper: 8 windows over 0-360 deg)."""
        return cls(
            uniform_ladder(lo, hi, n_windows, periodic=True),
            angle=angle,
            force_constant=force_constant,
            name=name,
        )

    def restraint(self, index: int) -> UmbrellaRestraint:
        """The harmonic restraint of window ``index``."""
        return UmbrellaRestraint(
            angle=self.angle,
            center_deg=float(self.value(index)),
            k=self.force_constant,
        )

    def apply(self, state: ThermodynamicState, index: int) -> ThermodynamicState:
        """Replace this dimension's restraint in ``state``.

        Restraints owned by *other* umbrella dimensions (distinguished by
        their angle) are preserved, so TUU setups with phi and psi windows
        compose.
        """
        kept = tuple(
            r for r in state.restraints if r.angle != self.angle
        )
        return state.with_restraints(kept + (self.restraint(index),))

    def batch_exchange_deltas(
        self,
        pairs: Sequence[Tuple[Replica, Replica]],
        *,
        window_of: Dict[int, int],
        states: Dict[int, ThermodynamicState],
        energy_matrix: Optional[Dict[int, np.ndarray]] = None,
    ) -> np.ndarray:
        """Cross restraint energies, computed analytically for the pass.

        Evaluates ``k * degrees(wrap(theta - center))**2`` — the exact
        elementwise operation sequence of
        :meth:`UmbrellaRestraint.energy` — on arrays of the pairs'
        torsions and window centers.
        """
        n = len(pairs)
        centers = self._ladder("center_rad", lambda c: _deg(float(c)))
        k = self.force_constant
        axis = 0 if self.angle == "phi" else 1
        theta_i = np.fromiter(
            (a.coords[axis] for a, _ in pairs), dtype=float, count=n
        )
        theta_j = np.fromiter(
            (b.coords[axis] for _, b in pairs), dtype=float, count=n
        )
        c_i = centers[
            np.fromiter((window_of[a.rid] for a, _ in pairs), np.intp, count=n)
        ]
        c_j = centers[
            np.fromiter((window_of[b.rid] for _, b in pairs), np.intp, count=n)
        ]
        beta_i, beta_j = pair_state_betas(pairs, states)

        def energy(theta: np.ndarray, center: np.ndarray) -> np.ndarray:
            d_deg = np.degrees(wrap_angle(theta - center))
            return k * d_deg**2

        return metropolis_delta(
            beta_i,
            beta_j,
            energy(theta_i, c_i),
            energy(theta_j, c_i),
            energy(theta_i, c_j),
            energy(theta_j, c_j),
        )
