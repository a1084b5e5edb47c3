"""Replica objects and their per-cycle history.

A replica is one copy of the physical system holding a point in the
exchange-parameter lattice: ``param_indices`` maps each exchange dimension's
name to the window index this replica currently owns.  Exchanges swap
*parameters* between replicas (not coordinates), the standard REMD
bookkeeping — a replica's coordinates evolve continuously while its
thermodynamic state hops.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


class ReplicaStatus(enum.Enum):
    """Health of a replica within a running simulation."""

    ACTIVE = "ACTIVE"
    #: MD task failed this cycle; may be relaunched or skipped by policy.
    FAILED = "FAILED"
    #: Permanently dropped (CONTINUE policy after exhausted relaunches).
    RETIRED = "RETIRED"


@dataclass(slots=True)
class CycleRecord:
    """What happened to one replica in one simulation cycle."""

    cycle: int
    #: active exchange dimension this cycle (None if no exchange phase)
    dimension: Optional[str]
    #: window indices held *during* the MD phase; the records a run
    #: builds share one map per lattice point, so never mutate it
    param_indices: Dict[str, int]
    potential_energy: float
    restraint_energy: float
    #: bath-free torsional energy (NaN if the engine did not report one)
    torsional_energy: float = float("nan")
    #: rid of the partner we attempted to exchange with (None = no attempt)
    partner: Optional[int] = None
    accepted: bool = False
    #: MD task failed and was not recovered this cycle
    failed: bool = False
    #: sampled (phi, psi) trajectory of the MD phase, shape (n, 2)
    trajectory: Optional[np.ndarray] = None


@dataclass
class Replica:
    """One replica of the simulated system."""

    rid: int
    coords: np.ndarray  # (phi, psi) in radians
    param_indices: Dict[str, int]
    status: ReplicaStatus = ReplicaStatus.ACTIVE
    cycle: int = 0
    #: energies parsed from the last MD phase's info file
    last_energies: Dict[str, float] = field(default_factory=dict)
    history: List[CycleRecord] = field(default_factory=list)
    n_failures: int = 0
    cores: int = 1

    def __post_init__(self):
        self.coords = np.asarray(self.coords, dtype=float)
        if self.coords.shape != (2,):
            raise ValueError(
                f"replica coords must have shape (2,), got {self.coords.shape}"
            )
        if self.rid < 0:
            raise ValueError(f"rid must be >= 0, got {self.rid}")
        if self.cores <= 0:
            raise ValueError(f"cores must be > 0, got {self.cores}")

    def window(self, dimension: str) -> int:
        """Window index held along ``dimension``.

        Raises
        ------
        KeyError
            If this replica has no such dimension.
        """
        return self.param_indices[dimension]

    def group_key(self, active_dimension: str) -> tuple:
        """Indices along every *other* dimension, sorted by name.

        Replicas with equal group keys form one exchange group along the
        active dimension (M-REMD grouping, DESIGN.md decision 5).
        """
        return tuple(
            (name, idx)
            for name, idx in sorted(self.param_indices.items())
            if name != active_dimension
        )

    @property
    def n_exchanges_accepted(self) -> int:
        """Accepted exchanges across the whole history."""
        return sum(1 for rec in self.history if rec.accepted)

    @property
    def n_exchanges_attempted(self) -> int:
        """Attempted exchanges across the whole history."""
        return sum(1 for rec in self.history if rec.partner is not None)


def swap_parameters(a: Replica, b: Replica, dimension: str) -> None:
    """Swap the two replicas' window indices along ``dimension``."""
    ia, ib = a.param_indices[dimension], b.param_indices[dimension]
    a.param_indices[dimension] = ib
    b.param_indices[dimension] = ia
