"""Nothing a task wrote outlives the run: once every MD task is folded (or
its replica retired) and every single-point group has its energy row,
the in-memory sandbox holds no file and the adapter's parse store holds
no entry, whatever the pattern, engine or fault policy."""

import pytest

from repro.core import RepEx
from repro.core.config import (
    DimensionSpec,
    EngineSpec,
    FailureSpec,
    PatternSpec,
    ResourceSpec,
    SimulationConfig,
    WatchdogSpec,
)
from repro.md.amber import AmberAdapter
from repro.obs.metrics import MetricsRegistry

ASYNC = PatternSpec(kind="asynchronous", window_seconds=60.0)


def make_config(**over) -> SimulationConfig:
    defaults = dict(
        title="sandbox-after-run",
        dimensions=[DimensionSpec("temperature", 4, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=4),
        n_cycles=4,
        steps_per_cycle=6000,
        numeric_steps=8,
        sample_stride=4,
        seed=5,
    )
    defaults.update(over)
    return SimulationConfig(**defaults)


def run(config):
    repex = RepEx(config, registry=MetricsRegistry())
    return repex, repex.run()


def assert_nothing_left(repex):
    assert repex.amm.sandbox.listdir() == []
    assert repex.amm.adapter._parsed == {}


@pytest.mark.parametrize("policy", ["continue", "relaunch", "retire"])
@pytest.mark.parametrize("engine", ["amber", "namd"])
@pytest.mark.parametrize("pattern", ["sync", "async"])
def test_fault_policies_leave_nothing(pattern, engine, policy):
    config = make_config(
        engine=EngineSpec(name=engine),
        pattern=ASYNC if pattern == "async" else PatternSpec(),
        failure=FailureSpec(probability=0.3, policy=policy, retire_after=0),
    )
    repex, result = run(config)
    assert result.n_failures > 0
    if policy == "relaunch":
        assert result.n_relaunches > 0
    if policy == "retire":
        assert result.n_retired > 0
    assert_nothing_left(repex)


def test_bounded_barrier_with_late_stragglers_leaves_nothing():
    config = make_config(
        pattern=PatternSpec(kind="synchronous", barrier_deadline_s=300.0),
        failure=FailureSpec(policy="continue", slow_nodes=[[0, 4.0]]),
        watchdog=WatchdogSpec(
            enabled=True, deadline_factor=6.0, speculative=True
        ),
    )
    repex, result = run(config)
    assert sum(t.n_late for t in result.cycle_timings) > 0
    assert_nothing_left(repex)


def test_tsu_mode2_with_single_point_groups_leaves_nothing(monkeypatch):
    groups = []
    run_group = AmberAdapter.run_single_point_group

    def counted(self, sandbox, tag):
        groups.append(tag)
        return run_group(self, sandbox, tag)

    monkeypatch.setattr(AmberAdapter, "run_single_point_group", counted)
    config = make_config(
        dimensions=[
            DimensionSpec("temperature", 2, 300.0, 340.0),
            DimensionSpec("salt", 2, 0.0, 1.0),
            DimensionSpec(
                "umbrella", 2, 0.0, 360.0, angle="phi", force_constant=0.0005
            ),
        ],
        resource=ResourceSpec("stampede", cores=4),
        execution_mode="II",
        n_cycles=3,
    )
    repex, _ = run(config)
    assert groups
    assert_nothing_left(repex)
