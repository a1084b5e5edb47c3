#!/usr/bin/env python
"""Execution tracing + mixing diagnostics for a REMD run.

Drives a small T-REMD simulation; ``RepEx`` traces every compute unit's
state transitions into the run manifest, from which this prints:

* where the virtual time went (per-state dwell totals — the raw material
  behind the paper's Fig. 5 overhead characterization),
* how busy the pilot's cores were,
* the per-cycle critical path and the Fig.-5 phase decomposition,
* the mixing diagnostics of the temperature ladder (occupancy uniformity,
  ladder traversals, replica flow).

Run:  python examples/trace_timeline.py
"""

import numpy as np

from repro.analysis.convergence import mixing_report, replica_flow
from repro.core import RepEx
from repro.core.config import (
    DimensionSpec,
    ResourceSpec,
    SimulationConfig,
)
from repro.obs.critical_path import render_report
from repro.obs.export import unit_intervals
from repro.utils.tables import render_table

N_REPLICAS = 8
N_CYCLES = 20


def main():
    config = SimulationConfig(
        title="traced-tremd",
        dimensions=[
            DimensionSpec("temperature", N_REPLICAS, 290.0, 315.0)
        ],
        resource=ResourceSpec("supermic", cores=N_REPLICAS),
        n_cycles=N_CYCLES,
        steps_per_cycle=6000,
        numeric_steps=50,
        seed=21,
    )
    result = RepEx(config).run()
    manifest = result.manifest

    print(f"{config.title}: {N_REPLICAS} replicas, {N_CYCLES} cycles, "
          f"{manifest.n_units} units traced\n")

    totals = {}
    for chain in unit_intervals(manifest).values():
        for state, t0, t1 in chain:
            totals[state] = totals.get(state, 0.0) + (t1 - t0)
    rows = sorted(totals.items(), key=lambda kv: -kv[1])
    print(
        render_table(
            ["state", "total dwell (s)"],
            [[k, v] for k, v in rows],
            title="Where the virtual time went",
        )
    )

    busy = manifest.busy_core_seconds()
    print(f"\nbusy core-seconds  : {busy:,.0f}")
    print(f"mean busy cores    : {busy / manifest.wallclock:.2f} "
          f"/ {N_REPLICAS}")

    print()
    print(render_report(manifest, max_segments=1))

    report = mixing_report(result, "temperature", N_REPLICAS)
    print("\nLadder mixing diagnostics:")
    for k, v in report.items():
        print(f"  {k:24s} {v}")

    flow = replica_flow(result, "temperature", N_REPLICAS)
    print("\nReplica flow f(window) (ideal: linear 1 -> 0):")
    print(
        "  "
        + "  ".join(
            f"{x:.2f}" if np.isfinite(x) else " -- " for x in flow
        )
    )


if __name__ == "__main__":
    main()
