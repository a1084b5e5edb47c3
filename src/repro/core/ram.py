"""Remote Application Modules (RAM).

"RAM is responsible for creation of individual input files for replicas,
reading data from simulation output files and performing exchange
procedures.  Unlike EMM and AMM which are client side, these modules
execute on HPC cluster." (paper, Sec. 3.3.)

Accordingly, every function here is the *body of a compute unit's work
callable* — it sees only the sandbox (files) and explicit arguments, never
the EMM/session.  Energies are parsed back from the engine's output files
rather than passed through memory, keeping the adapters' file round-trips
on the critical path.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.exchange.base import (
    ExchangeDimension,
    SwapProposal,
    metropolis_accept,
)
from repro.core.exchange.pairing import PairSelector
from repro.core.replica import Replica
from repro.md.engine import EngineAdapter
from repro.md.sandbox import Sandbox
from repro.md.toymd import MDResult, ThermodynamicState


def execute_md(adapter: EngineAdapter, sandbox: Sandbox, tag: str) -> MDResult:
    """Run one MD phase task (called inside its compute unit)."""
    return adapter.run_md(sandbox, tag)


def read_md_outputs(
    adapter: EngineAdapter, sandbox: Sandbox, tags: Sequence[str]
) -> List[Tuple[Dict[str, float], np.ndarray]]:
    """Parse the info files and restart coordinates of a group of finished
    MD tasks, in order."""
    return adapter.read_outputs(sandbox, tags)


def execute_single_point_group(
    adapter: EngineAdapter,
    sandbox: Sandbox,
    tag: str,
    coords: np.ndarray,
    states: Sequence[ThermodynamicState],
) -> np.ndarray:
    """Run one replica's single-point group task (S-REMD exchange input).

    Writes the group file, executes every entry, and returns the energy
    row (one energy per window of the exchanged dimension); the group's
    files are discarded once the row is computed, since nothing reads
    them again.
    """
    if not hasattr(adapter, "write_groupfile"):
        raise TypeError(
            f"engine {adapter.name!r} does not support group-file single "
            "points (the paper runs S-REMD with Amber only)"
        )
    files = adapter.write_groupfile(sandbox, tag, coords, states)
    row = adapter.run_single_point_group(sandbox, tag)
    adapter.discard(sandbox, files)
    return row


def compute_exchange(
    dimension: ExchangeDimension,
    group: Sequence[Replica],
    states: Dict[int, ThermodynamicState],
    selector: PairSelector,
    cycle: int,
    rng: np.random.Generator,
    energy_matrix: Optional[Dict[int, np.ndarray]] = None,
) -> List[SwapProposal]:
    """Perform the exchange procedure for one group.

    The selector's passes are decided in order against the evolving window
    assignment (``window_of``): each pass's exponents come from one
    :meth:`ExchangeDimension.batch_exchange_deltas` call, and its pairs
    are then accepted one by one, updating ``window_of`` before the next
    pass.  The accept loop stays sequential because ``metropolis_accept``
    draws from ``rng`` only for uphill proposals, and that consumption
    order is part of the reproducible trace.  The returned proposals
    record what was attempted and accepted; the caller (AMM) applies the
    accepted ones to the replica objects.
    """
    window_of = {rep.rid: rep.window(dimension.name) for rep in group}
    proposals: List[SwapProposal] = []
    for pairs in selector.passes(list(group), cycle, rng):
        if not pairs:
            continue
        deltas = dimension.batch_exchange_deltas(
            pairs, window_of=window_of, states=states, energy_matrix=energy_matrix
        )
        for (rep_i, rep_j), delta in zip(pairs, deltas.tolist()):
            accepted = metropolis_accept(delta, rng)
            if accepted:
                window_of[rep_i.rid], window_of[rep_j.rid] = (
                    window_of[rep_j.rid],
                    window_of[rep_i.rid],
                )
            proposals.append(
                SwapProposal(
                    rid_i=rep_i.rid,
                    rid_j=rep_j.rid,
                    dimension=dimension.name,
                    delta=delta,
                    accepted=accepted,
                )
            )
    return proposals


def final_windows(
    group: Sequence[Replica],
    dimension: ExchangeDimension,
    proposals: Sequence[SwapProposal],
) -> Dict[int, int]:
    """Replay ``proposals`` to get each replica's post-exchange window."""
    window_of = {rep.rid: rep.window(dimension.name) for rep in group}
    for p in proposals:
        if p.accepted:
            window_of[p.rid_i], window_of[p.rid_j] = (
                window_of[p.rid_j],
                window_of[p.rid_i],
            )
    return window_of
