"""Determinism matrix: every configuration class replays bit-identically.

HPC reproducibility guarantee: with a fixed seed, the virtual-clock
timeline, exchange decisions and final replica states are exact functions
of the configuration — across patterns, engines, modes and dimensions.
"""

import numpy as np
import pytest

from repro.core import RepEx
from repro.core.config import (
    AdaptiveSpec,
    DimensionSpec,
    EngineSpec,
    FailureSpec,
    PatternSpec,
    ResourceSpec,
)

from tests.conftest import small_tremd_config

SCENARIOS = {
    "sync-t": dict(),
    "async-t": dict(
        pattern=PatternSpec(kind="asynchronous", window_seconds=60.0)
    ),
    "mode2": dict(
        dimensions=[DimensionSpec("temperature", 8, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=2),
    ),
    "namd": dict(engine=EngineSpec(name="namd"), steps_per_cycle=4000),
    "salt": dict(
        dimensions=[DimensionSpec("salt", 4, 0.0, 1.0)],
    ),
    "tsu": dict(
        dimensions=[
            DimensionSpec("temperature", 2, 273.0, 373.0),
            DimensionSpec("salt", 2, 0.0, 1.0),
            DimensionSpec(
                "umbrella", 2, 0.0, 360.0, force_constant=0.0005
            ),
        ],
        resource=ResourceSpec("supermic", cores=8),
        n_cycles=3,
    ),
    "failures": dict(
        failure=FailureSpec(probability=0.3, policy="relaunch"),
        numeric_steps=10,
    ),
    # A node crash and a pilot preemption each fail many running units in
    # one event; the order they fail in decides relaunch and pooling order.
    "async-node-crash": dict(
        dimensions=[DimensionSpec("temperature", 32, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=32),
        pattern=PatternSpec(kind="asynchronous", window_seconds=60.0),
        failure=FailureSpec(policy="relaunch", node_crashes=[[30.0, 0]]),
    ),
    "async-preempt": dict(
        dimensions=[DimensionSpec("temperature", 64, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=64),
        pattern=PatternSpec(kind="asynchronous", window_seconds=60.0),
        failure=FailureSpec(preempt_after_s=100.0),
    ),
}


def fingerprint(result):
    """A structural digest of everything a run produced."""
    return (
        round(result.t_end, 9),
        tuple(
            (round(c.t_md, 9), round(c.t_ex, 9), round(c.span, 9))
            for c in result.cycle_timings
        ),
        tuple(
            (p.rid_i, p.rid_j, p.accepted, round(p.delta, 9))
            for p in result.proposals
        ),
        tuple(
            (r.rid, tuple(sorted(r.param_indices.items())),
             tuple(np.round(r.coords, 12)))
            for r in result.replicas
        ),
        result.n_failures,
        result.n_relaunches,
    )


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_replay_is_bit_identical(name):
    overrides = SCENARIOS[name]
    a = RepEx(small_tremd_config(**overrides)).run()
    b = RepEx(small_tremd_config(**overrides)).run()
    assert fingerprint(a) == fingerprint(b)


def test_different_seeds_differ():
    a = RepEx(small_tremd_config(seed=1)).run()
    b = RepEx(small_tremd_config(seed=2)).run()
    assert fingerprint(a) != fingerprint(b)


# -- crash/resume matrix ----------------------------------------------------
#
# Kill a checkpointing run at a chosen point in its timeline, restart it
# from the newest on-disk snapshot, and require the stitched run to be
# bit-identical — result fingerprint AND all-zero manifest diff — to the
# uninterrupted cadence-matched golden.  Cells cover both patterns, 1D
# T-REMD and a 2D TU ladder, and three kill classes: mid-cycle (or
# mid-flight), right at/after a quiet point, and during staging (shortly
# after a boundary, while the next cycle's inputs are being staged; the
# staging-fault cells additionally have transient faults in flight).

from repro.core.config import PatternSpec  # noqa: E402
from repro.obs.diff import diff_manifests  # noqa: E402
from repro.pilot.events import SimulatedCrash  # noqa: E402

TU2D = dict(
    dimensions=[
        DimensionSpec("temperature", 2, 273.0, 373.0),
        DimensionSpec("umbrella", 2, 0.0, 360.0, force_constant=0.0005),
    ],
    resource=ResourceSpec("supermic", cores=4),
    n_cycles=3,
)

STAGING_FAULTS = dict(
    failure=FailureSpec(
        policy="continue",
        staging_fault_probability=0.3,
        staging_max_retries=6,
    )
)

#: FIFO exchange: by a late quiesce some replicas have finished, and the
#: pool may already meet the FIFO count
FIFO = dict(
    dimensions=[DimensionSpec("temperature", 8, 273.0, 373.0)],
    resource=ResourceSpec("supermic", cores=8),
    pattern=PatternSpec(kind="asynchronous", fifo_count=3),
)

#: ``adaptive_config()`` of tests/core/test_adaptive.py: replicas retire
#: early and spawned replacements take fresh replica ids
ADAPTIVE_SPAWN = dict(
    dimensions=[DimensionSpec("temperature", 6, 290.0, 315.0)],
    resource=ResourceSpec("supermic", cores=6),
    pattern=PatternSpec(kind="asynchronous", window_seconds=60.0),
    adaptive=AdaptiveSpec(
        enabled=True,
        min_cycles=2,
        energy_tolerance=1000.0,
        spawn_replacements=True,
    ),
    n_cycles=6,
)

#: name -> (pattern kind, config overrides, kill fraction of the golden span)
RESUME_MATRIX = {
    "sync/tremd/mid-cycle": ("synchronous", {}, 0.45),
    "sync/tremd/at-boundary": ("synchronous", {}, 0.52),
    "sync/tremd/during-staging": ("synchronous", {}, 0.27),
    "sync/tu/mid-cycle": ("synchronous", TU2D, 0.5),
    "sync/staging-faults/during-staging": ("synchronous", STAGING_FAULTS, 0.27),
    "async/tremd/mid-flight": ("asynchronous", {}, 0.55),
    "async/tremd/at-quiesce": ("asynchronous", {}, 0.78),
    "async/tu/mid-flight": ("asynchronous", TU2D, 0.7),
    "async/staging-faults/mid-flight": ("asynchronous", STAGING_FAULTS, 0.6),
    "async/fifo/late-quiesce": ("asynchronous", FIFO, 0.8),
    "async/adaptive-spawn/mid-flight": ("asynchronous", ADAPTIVE_SPAWN, 0.5),
}


@pytest.mark.parametrize("name", sorted(RESUME_MATRIX))
def test_crash_resume_is_bit_identical(name, tmp_path):
    kind, overrides, kill_frac = RESUME_MATRIX[name]
    params = dict(n_cycles=4)
    params.update(overrides)
    if kind == "asynchronous":
        params.setdefault("pattern", PatternSpec(kind="asynchronous"))

    def build(**kwargs):
        return RepEx(small_tremd_config(**params), **kwargs)

    if kind == "synchronous":
        cadence = {"checkpoint_every": 1}
    else:
        span = build().run().wallclock
        cadence = {"checkpoint_every_s": span / 3}
    golden_repex = build(**cadence)
    golden = golden_repex.run()
    # a resume that never ends quiesces forever: stop it one capture past
    # the golden's so the failure shows instead of a hang
    guard = (
        {"stop_after_checkpoint": len(golden_repex.checkpoints) + 1}
        if kind == "asynchronous"
        else {}
    )

    crash_at = golden.t_start + kill_frac * golden.wallclock
    with pytest.raises(SimulatedCrash):
        build(
            checkpoint_dir=tmp_path, crash_at_time=crash_at, **cadence
        ).run()
    assert (tmp_path / "latest.json").exists(), "no checkpoint before kill"

    resumed = build(
        resume_from=tmp_path / "latest.json", **cadence, **guard
    ).run()
    assert not resumed.interrupted
    assert resumed.fingerprint() == golden.fingerprint()
    if "staging-faults" not in name:
        # fault injection races the drain, so the manifest's fault log
        # may shift in time; clean cells must diff all-zero
        assert diff_manifests(golden.manifest, resumed.manifest).identical


# -- resume from a stop at a quiet point ------------------------------------
#
# Two restore paths the kill matrix above never reached: a pending event
# whose effect the snapshot already holds, and one it must re-arm.

from repro.core.config import SimulationConfig  # noqa: E402

#: name -> (config, checkpoint cadence, where the first run stops)
STOP_RESUME_CELLS = {
    # the node crash strikes at t_start + 300 s, the very instant the
    # first quiesce drain ends: it fired before the capture at that same
    # virtual time, so the resumed replay must not fire it again
    "async/node-crash-at-capture": (
        {
            "title": "bug1",
            "engine": {"name": "namd", "system": "ala2"},
            "resource": {"name": "supermic", "cores": 40},
            "pattern": {"kind": "asynchronous"},
            "dimensions": [
                {"kind": "temperature", "n_windows": 3,
                 "min_value": 280.0, "max_value": 360.0},
            ],
            "n_cycles": 3,
            "numeric_steps": 1,
            "seed": 657805,
            "failure": {"node_crashes": [[300.0, 0]]},
        },
        {"checkpoint_every_s": 100.0},
        {"stop_after_checkpoint": 1},
    ),
    # hangs plus speculative duplicates: the watchdog heartbeat is still
    # armed at the cycle-1 boundary and must resume in the same phase
    "sync/hangs-speculative": (
        {
            "title": "bug2",
            "engine": {"name": "amber", "system": "ala2"},
            "resource": {"name": "stampede", "cores": 2},
            "execution_mode": "II",
            "dimensions": [
                {"kind": "temperature", "n_windows": 3,
                 "min_value": 280.0, "max_value": 360.0},
            ],
            "n_cycles": 2,
            "numeric_steps": 5,
            "seed": 383113,
            "failure": {"hang_probability": 0.1},
            "watchdog": {"enabled": True, "speculative": True},
        },
        {"checkpoint_every": 1},
        {"stop_after_cycle": 1},
    ),
}


@pytest.mark.parametrize("name", sorted(STOP_RESUME_CELLS))
def test_stop_resume_is_bit_identical(name, tmp_path):
    raw, cadence, stop = STOP_RESUME_CELLS[name]
    config = SimulationConfig.from_dict(raw)
    golden = RepEx(config, **cadence).run()
    partial = RepEx(config, checkpoint_dir=tmp_path, **cadence, **stop).run()
    assert partial.interrupted
    resumed = RepEx(
        config, resume_from=tmp_path / "latest.json", **cadence
    ).run()
    assert resumed.fingerprint() == golden.fingerprint()
    assert diff_manifests(golden.manifest, resumed.manifest).identical
