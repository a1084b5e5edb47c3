"""Property-based tests for the gray-failure watchdog.

Two invariants, checked across seeds:

1. **Speculative exactly-once** — a run with speculative relaunch
   completes each unit exactly once: ``scheduler.completed`` and the
   exchange attempt/accept counts match a run of the same config with
   speculation disabled, every speculative launch is settled as exactly
   one win or loss, and the physics (coordinates, exchange decisions)
   is unchanged — speculation may only move *time*, never results.

2. **Healthy cohorts are untouched** — with no gray faults injected,
   an enabled watchdog never kills, relaunches, escalates or
   speculates, and the run is bit-identical (fingerprint included) to
   one with the watchdog disabled.
"""

import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    DimensionSpec,
    FailureSpec,
    ResourceSpec,
    SimulationConfig,
    WatchdogSpec,
)
from repro.core.framework import RepEx
from repro.obs.metrics import MetricsRegistry


def _gray_config(seed: int, slow_factor: float, watchdog: WatchdogSpec):
    # 40 cores on SuperMIC's 20-core nodes, 5-core replicas: node 0's
    # four replicas are slow, node 1's four form the healthy cohort
    # whose completions feed the straggler median.
    return SimulationConfig(
        title="prop-watchdog",
        dimensions=[DimensionSpec("temperature", 8, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=40),
        cores_per_replica=5,
        n_cycles=2,
        steps_per_cycle=6000,
        numeric_steps=10,
        sample_stride=0,
        failure=FailureSpec(policy="continue", slow_nodes=[[0, slow_factor]]),
        watchdog=watchdog,
        seed=seed,
    )


def _run(config):
    registry = MetricsRegistry()
    result = RepEx(config, registry=registry).run()
    return result, registry.snapshot()["counters"]


def _physics(result):
    """Everything time-independent a run produces."""
    return [
        (
            [
                (rep.rid, tuple(map(float, rep.coords)),
                 tuple(sorted(rep.param_indices.items())), rep.cycle)
                for rep in result.replicas
            ]
        ),
        {
            name: (s.attempted, s.accepted)
            for name, s in sorted(result.exchange_stats.items())
        },
        [(p.rid_i, p.rid_j, p.dimension, p.accepted)
         for p in result.proposals],
    ]


@given(
    seed=st.integers(min_value=0, max_value=2**16),
    slow_factor=st.sampled_from([3.0, 4.0, 6.0]),
)
@settings(max_examples=15, deadline=None)
def test_speculative_completion_is_exactly_once(seed, slow_factor):
    watchdog = WatchdogSpec(
        enabled=True,
        deadline_factor=2 * slow_factor,  # speculation, not deadline kills
        check_interval_s=10.0,
        speculative=True,
    )
    spec_result, spec_counters = _run(_gray_config(seed, slow_factor, watchdog))
    plain_result, plain_counters = _run(
        _gray_config(
            seed, slow_factor, dataclasses.replace(watchdog, speculative=False)
        )
    )

    launches = spec_counters.get("watchdog.speculative_launches", 0)
    wins = spec_counters.get("watchdog.speculative_wins", 0)
    losses = spec_counters.get("watchdog.speculative_losses", 0)
    assert launches > 0, "scenario never speculated — it tests nothing"
    assert wins + losses == launches
    # the duplicate never double-completes: the scheduler's completion
    # count matches the run where no duplicate ever existed
    assert (
        spec_counters["scheduler.completed"]
        == plain_counters["scheduler.completed"]
    )
    assert spec_result.n_failures == plain_result.n_failures
    assert _physics(spec_result) == _physics(plain_result)


@given(seed=st.integers(min_value=0, max_value=2**16))
@settings(max_examples=15, deadline=None)
def test_watchdog_never_fires_on_healthy_cohorts(seed):
    base = SimulationConfig(
        title="prop-healthy",
        dimensions=[DimensionSpec("temperature", 8, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=8),
        n_cycles=2,
        steps_per_cycle=6000,
        numeric_steps=10,
        sample_stride=0,
        seed=seed,
    )
    watched = dataclasses.replace(
        base,
        watchdog=WatchdogSpec(
            enabled=True, check_interval_s=10.0, speculative=True
        ),
    )
    ref_result, _ = _run(base)
    dog_result, dog_counters = _run(watched)

    for name in (
        "watchdog.deadline_kills",
        "watchdog.relaunches",
        "watchdog.escalations",
        "watchdog.stragglers",
        "watchdog.speculative_launches",
    ):
        assert dog_counters.get(name, 0) == 0, name
    assert dog_result.fingerprint() == ref_result.fingerprint()
