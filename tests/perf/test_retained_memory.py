"""What a finished run keeps in memory per unit.

A run's result holds its replicas' cycle records and its manifest's
unit rows, so the memory it keeps grows with replicas x cycles.  Both
are kept at their encoded size: the unit rows as the bytes of the
manifest lines a dump writes, in one buffer, each cycle record slotted
and sharing its lattice point's window map (and, when it sampled
nothing, the one empty trajectory).  Measured as the tracemalloc growth
across one ``RepEx(config).run()`` with the result held, after a
warm-up run, per manifest unit: about 840 B on the T-REMD config below
and 740 B on the NAMD one, about 1,400 B when the run log kept each row
as a dict and each record its own window map.

Holding the ``RepEx`` too adds what it still reaches: about 1,020 B
per unit in all, 1,260 B when its run log kept its ``(name, line)``
pairs after the manifest took the lines.  A resumed run keeps within a
few percent of the uninterrupted run, not 17% more as when each
restored record had its own window map and dimension name.

While a run goes on, its log holds each finished unit as its line's
bytes: about 231 B per unit for a 213 B line, where a ``str`` line, a
``(name, line)`` pair and the name held 391 B.
"""

import functools
import gc
import json
import tracemalloc

import pytest

from repro import RepEx, SimulationConfig
from repro.obs.manifest import ManifestStream
from repro.pilot.unit import ComputeUnit, UnitDescription, UnitState

#: bytes a finished run may keep per unit
BOUND = 1_100

#: the smoke-scale shapes of the end-to-end benchmark's T-REMD and
#: asynchronous NAMD workloads
CONFIGS = {
    "tremd": {
        "title": "tremd-sync",
        "engine": {"name": "amber", "system": "ala2"},
        "resource": {"name": "supermic", "cores": 64},
        "dimensions": [
            {"kind": "temperature", "n_windows": 64,
             "min_value": 273.0, "max_value": 373.0},
        ],
        "execution_mode": "I",
        "n_cycles": 10,
        "numeric_steps": 100,
        "seed": 2016,
    },
    "async-namd": {
        "title": "async-namd",
        "engine": {"name": "namd", "system": "ala2"},
        "resource": {"name": "supermic", "cores": 64},
        "pattern": {"kind": "asynchronous", "window_seconds": 90.0},
        "dimensions": [
            {"kind": "temperature", "n_windows": 64,
             "min_value": 273.0, "max_value": 373.0},
        ],
        "n_cycles": 6,
        "numeric_steps": 1,
        "failure": {"probability": 0.05, "policy": "relaunch",
                    "max_relaunches": 3},
        "seed": 2016,
    },
}


def kept_bytes_per_unit(build, hold_repex: bool = False) -> float:
    """The memory ``build().run()`` leaves behind per manifest unit, with
    the result held (and the ``RepEx`` too if ``hold_repex``)."""
    build().run()  # warm-up: imports and lazily built caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        repex = build()
        result = repex.run()
        if not hold_repex:
            del repex
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept / result.manifest.n_units


@functools.cache
def kept_by_a_finished_run(name: str) -> float:
    config = SimulationConfig.from_dict(CONFIGS[name])
    return kept_bytes_per_unit(lambda: RepEx(config))


@pytest.mark.parametrize("name", list(CONFIGS))
def test_a_finished_run_keeps_its_units_at_their_encoded_size(name):
    assert kept_by_a_finished_run(name) < BOUND


@pytest.mark.parametrize("name", list(CONFIGS))
def test_a_held_repex_keeps_its_units_once(name):
    config = SimulationConfig.from_dict(CONFIGS[name])
    assert kept_bytes_per_unit(lambda: RepEx(config), hold_repex=True) < BOUND


def test_a_resumed_run_keeps_what_the_uninterrupted_run_keeps(tmp_path):
    config = SimulationConfig.from_dict(CONFIGS["tremd"])
    RepEx(
        config, checkpoint_every=5, checkpoint_dir=tmp_path, stop_after_cycle=5
    ).run()
    resumed = kept_bytes_per_unit(
        lambda: RepEx(config, resume_from=tmp_path / "latest.json")
    )
    assert resumed < 1.05 * kept_by_a_finished_run("tremd")


def finished_md_unit(rid: int, cycle: int) -> ComputeUnit:
    """An MD unit that went through every state to DONE."""
    unit = ComputeUnit(
        UnitDescription(
            name=f"md_r{rid:05d}_c{cycle:04d}",
            metadata={"phase": "md", "rid": rid, "cycle": cycle},
        )
    )
    t = 100.0 * cycle + 0.123457 * rid
    for state in (
        UnitState.SCHEDULING,
        UnitState.STAGING_INPUT,
        UnitState.AGENT_EXECUTING_PENDING,
        UnitState.EXECUTING,
        UnitState.STAGING_OUTPUT,
        UnitState.DONE,
    ):
        t += 1.618034
        unit.advance(state, t)
    return unit


def test_the_run_log_keeps_each_unit_as_its_line_bytes():
    """A run log holds no Python object per finished unit: it grows by
    each unit's line and the growth slack of the buffer that holds the
    lines, not by a per-line string, a name and a pair too (about 175 B
    more per unit)."""
    config = SimulationConfig.from_dict(CONFIGS["tremd"])
    n_replicas, n_cycles = 500, 6
    ManifestStream(None, config).on_unit(finished_md_unit(0, 0))  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = ManifestStream(None, config)
        for cycle in range(n_cycles):
            for rid in range(n_replicas):
                log.on_unit(finished_md_unit(rid, cycle))
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    n_units = n_replicas * n_cycles
    mean_line = sum(
        len(json.dumps({"kind": "unit", **row}, sort_keys=True)) + 1
        for row in log.rows_since(0)
    ) / n_units
    assert grown / n_units <= 1.15 * mean_line + 16
