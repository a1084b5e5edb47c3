"""What a finished run keeps in memory per unit.

A run's result holds its replicas' cycle records and its manifest's
unit rows, so the memory it keeps grows with replicas x cycles.  Both
are kept at their encoded size: each unit row as the manifest line a
dump writes, each cycle record slotted and sharing its lattice point's
window map.  Measured as the tracemalloc growth across one
``RepEx(config).run()`` with the result held, after a warm-up run, per
manifest unit: about 850 B on both configs below, about 1,400 B when the
run log kept each row as a dict and each record its own window map.
"""

import gc
import tracemalloc

import pytest

from repro import RepEx, SimulationConfig

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


def kept_bytes_per_unit(config: SimulationConfig) -> float:
    RepEx(config).run()  # warm-up: imports and lazily built caches
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = RepEx(config).run()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return kept / result.manifest.n_units


@pytest.mark.parametrize("name", list(CONFIGS))
def test_a_finished_run_keeps_its_units_at_their_encoded_size(name):
    config = SimulationConfig.from_dict(CONFIGS[name])
    assert kept_bytes_per_unit(config) < BOUND
