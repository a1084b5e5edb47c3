#!/usr/bin/env python
"""Multiple HPC resources for a single workload (paper future work).

"RepEx can be extended to use multiple HPC resources simultaneously for a
single REMD simulation" is the paper's final future-work item.  The
pilot layer here supports it natively: one Session can hold pilots on
several clusters and a UnitManager distributes tasks round-robin.

This example drives the pilot API directly (the level below the RepEx
facade): it places one pilot on simulated Stampede and one on simulated
SuperMIC, runs an ensemble of MD tasks across both, and reports where
each task executed and the per-cluster makespan.

Run:  python examples/multi_cluster.py
"""

import numpy as np

from repro.md import AmberAdapter, MDParams, Sandbox, ThermodynamicState
from repro.md.perfmodel import PerformanceModel
from repro.pilot import (
    PilotDescription,
    PilotManager,
    Session,
    UnitDescription,
)
from repro.utils.tables import render_table


def main():
    adapter = AmberAdapter()
    sandbox = Sandbox()
    perf = PerformanceModel()
    n_tasks = 32

    with Session() as session:
        pmgr = PilotManager(session)
        pilots = pmgr.submit_pilots(
            [
                PilotDescription(resource="stampede", cores=16),
                PilotDescription(resource="supermic", cores=16),
            ]
        )
        pmgr.wait_pilots(pilots)
        print(
            f"two pilots active at t={session.now:.1f}s: "
            + ", ".join(p.cluster.name for p in pilots)
        )

        # Build each task against the cluster it will run on, so the
        # cluster's per-core speed factor enters the duration (Stampede's
        # cores are ~18% slower than SuperMIC's in the paper's timings).
        units_by_pilot = {}
        all_units = []
        tags = [f"md_{i:03d}" for i in range(n_tasks)]
        adapter.write_inputs(
            sandbox,
            tags,
            [np.radians([-63.0, -42.0])] * n_tasks,
            [ThermodynamicState(temperature=300.0 + i) for i in range(n_tasks)],
            MDParams(n_steps=100),
            list(range(n_tasks)),
        )
        for i, tag in enumerate(tags):
            pilot = pilots[i % len(pilots)]
            desc = UnitDescription(
                name=tag,
                cores=1,
                duration=pilot.cluster.speed_factor
                * perf.md_duration(
                    "sander", adapter.system, 6000, task_key=tag
                ),
                work=lambda tag=tag: adapter.run_md(sandbox, tag),
                metadata={"phase": "md"},
            )
            units = session.submit_units(pilot, [desc])
            units_by_pilot.setdefault(pilot, []).extend(units)
            all_units.extend(units)

        session.wait_units(all_units)

        rows = []
        for p in pilots:
            p_units = units_by_pilot[p]
            makespan = max(u.end_time for u in p_units) - min(
                u.timestamps[list(u.timestamps)[0]] for u in p_units
            )
            rows.append(
                [
                    p.cluster.name,
                    len(p_units),
                    sum(u.succeeded for u in p_units),
                    makespan,
                ]
            )
        print()
        print(
            render_table(
                ["cluster", "tasks", "succeeded", "makespan (s)"],
                rows,
                title="Single workload across two simulated clusters",
            )
        )
        print(
            "\nStampede's cores are ~18% slower per the paper's MD timings,"
            "\nso its makespan is proportionally longer for equal shares."
        )


if __name__ == "__main__":
    main()
