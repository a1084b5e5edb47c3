"""Salt-concentration exchange — S-REMD.

A Hamiltonian exchange where the electrostatic screening differs between
windows.  Unlike the umbrella case, the energy difference is *not* a cheap
analytic term of the replica's own Hamiltonian: it requires full potential
energies of each configuration evaluated at the other window's salt
concentration.  "Due to the mathematical complexity, the single point
energy calculation for S-REMD is calculated using Amber for each replica
in each state.  This implies that for each replica, an additional task is
required." (paper, Sec. 4.2) — hence :attr:`requires_single_point` and the
``energy_matrix`` argument, filled in by the group-file tasks the AMM
spawns.  This doubling of tasks is what makes S exchange the expensive
dimension in Figs. 6, 9 and 10.
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
from repro.md.toymd import ThermodynamicState


class SaltDimension(ExchangeDimension):
    """Exchange dimension over salt concentrations (molar).

    ``internal=True`` enables the paper's first named future-work item —
    "single point energy calculations for salt concentration exchange can
    be implemented [internally]" — the cross energies are then evaluated
    inside the exchange task through :attr:`evaluator` (set by the AMM to
    the engine's energy function) instead of spawning extra Amber group
    tasks.  The ablation benchmark compares both.
    """

    code = "S"

    def __init__(
        self,
        values: Sequence[float],
        name: str = "salt",
        *,
        internal: bool = False,
    ):
        super().__init__(name, values)
        for c in self.values:
            if c < 0:
                raise ValueError(f"salt concentrations must be >= 0, got {c}")
        self.internal = internal
        #: callable ``(coords, salt_molar) -> energy`` injected by the AMM
        #: when ``internal`` is set
        self.evaluator = None

    @property
    def requires_single_point(self) -> bool:
        """Extra SP tasks are needed unless internal evaluation is on."""
        return not self.internal

    @classmethod
    def linear(
        cls,
        c_min: float,
        c_max: float,
        n_windows: int,
        name: str = "salt",
        *,
        internal: bool = False,
    ) -> "SaltDimension":
        """Evenly spaced concentrations between ``c_min`` and ``c_max``."""
        if n_windows < 1:
            raise ValueError(f"n_windows must be >= 1, got {n_windows}")
        if n_windows == 1:
            return cls([c_min], name=name, internal=internal)
        step = (c_max - c_min) / (n_windows - 1)
        return cls(
            [c_min + i * step for i in range(n_windows)],
            name=name,
            internal=internal,
        )

    def apply(self, state: ThermodynamicState, index: int) -> ThermodynamicState:
        """Set the state's salt concentration to window ``index``."""
        return state.with_salt(float(self.value(index)))

    def batch_exchange_deltas(
        self,
        pairs: Sequence[Tuple[Replica, Replica]],
        *,
        window_of: Dict[int, int],
        states: Dict[int, ThermodynamicState],
        energy_matrix: Optional[Dict[int, np.ndarray]] = None,
    ) -> np.ndarray:
        """Cross single-point energies gathered from the energy rows.

        ``energy_matrix[rid][w]`` is the potential energy of replica
        ``rid``'s configuration evaluated at salt window ``w`` (all other
        parameters at that replica's own values), from the group-file
        tasks.  Without one, an internal dimension fills the rows this
        pass reads through :attr:`evaluator`.

        Raises
        ------
        KeyError
            If a replica of the pass has no energy at a window it needs.
        ValueError
            If neither an energy matrix nor an internal evaluator is
            available.
        """
        if energy_matrix is None:
            if not (self.internal and self.evaluator is not None):
                raise ValueError(
                    f"{self.name}: salt exchange requires the single-point "
                    "energy matrix (run the SP tasks first) or internal=True "
                    "with an evaluator"
                )
            energy_matrix = self._evaluate_rows(pairs, window_of)
        n = len(pairs)

        def gather(energy_of) -> np.ndarray:
            return np.fromiter(
                (energy_of(a, b) for a, b in pairs), dtype=float, count=n
            )

        e_i_xi = gather(lambda a, b: energy_matrix[a.rid][window_of[a.rid]])
        e_i_xj = gather(lambda a, b: energy_matrix[b.rid][window_of[a.rid]])
        e_j_xi = gather(lambda a, b: energy_matrix[a.rid][window_of[b.rid]])
        e_j_xj = gather(lambda a, b: energy_matrix[b.rid][window_of[b.rid]])
        beta_i, beta_j = pair_state_betas(pairs, states)
        return metropolis_delta(beta_i, beta_j, e_i_xi, e_i_xj, e_j_xi, e_j_xj)

    def _evaluate_rows(
        self,
        pairs: Sequence[Tuple[Replica, Replica]],
        window_of: Dict[int, int],
    ) -> Dict[int, Dict[int, float]]:
        """The energy rows a pass reads, from :attr:`evaluator`: each
        replica of a pair at both of the pair's windows."""
        rows: Dict[int, Dict[int, float]] = {}
        for a, b in pairs:
            for w in (window_of[a.rid], window_of[b.rid]):
                salt = float(self.value(w))
                for rep in (a, b):
                    rows.setdefault(rep.rid, {})[w] = self.evaluator(
                        rep.coords, salt
                    )
        return rows
