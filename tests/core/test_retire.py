"""Retire policy and node-level correlated failures through both EMMs."""

import pytest

from repro.core import RepEx
from repro.core.config import FailureSpec, PatternSpec
from repro.core.config import ResourceSpec
from repro.core.replica import ReplicaStatus
from repro.obs.metrics import MetricsRegistry
from repro.pilot.scheduler import SchedulerError
from tests.conftest import small_tremd_config


def run(config):
    registry = MetricsRegistry()
    return RepEx(config, registry=registry).run(), registry


def retire_config(retire_after, pattern_kind="synchronous", **over):
    return small_tremd_config(
        failure=FailureSpec(
            probability=1.0, policy="retire", retire_after=retire_after
        ),
        pattern=PatternSpec(kind=pattern_kind),
        **over,
    )


def crash_config(policy="relaunch", node_crashes=((40.0, 0),), **over):
    """Two supermic nodes (40 cores); 5-core replicas all land on node 0."""
    failure_over = over.pop("failure_over", {})
    return small_tremd_config(
        resource=ResourceSpec("supermic", cores=40),
        cores_per_replica=5,
        failure=FailureSpec(
            policy=policy,
            node_crashes=[list(e) for e in node_crashes],
            **failure_over,
        ),
        **over,
    )


class TestRetirePolicy:
    @pytest.mark.parametrize("pattern_kind", ["synchronous", "asynchronous"])
    def test_one_relaunch_then_retired(self, pattern_kind):
        result, _ = run(retire_config(1, pattern_kind))
        assert result.n_retired == 4  # every replica poisoned, all dropped
        assert result.n_relaunches == 4  # one retry each before giving up
        assert result.n_failures == 8
        assert all(
            rep.status is ReplicaStatus.RETIRED for rep in result.replicas
        )

    @pytest.mark.parametrize("pattern_kind", ["synchronous", "asynchronous"])
    def test_zero_budget_retires_on_first_failure(self, pattern_kind):
        result, _ = run(retire_config(0, pattern_kind))
        assert result.n_retired == 4
        assert result.n_relaunches == 0
        assert result.n_failures == 4

    def test_partial_retirement_keeps_survivors_exchanging(self):
        # flaky rather than fatal: some replicas survive to exchange
        config = small_tremd_config(
            failure=FailureSpec(
                probability=0.5, policy="retire", retire_after=1
            ),
            n_cycles=3,
        )
        result, _ = run(config)
        statuses = {rep.status for rep in result.replicas}
        assert len(result.cycle_timings) == 3  # the run itself completed
        if ReplicaStatus.RETIRED in statuses:
            assert result.n_retired == sum(
                rep.status is ReplicaStatus.RETIRED for rep in result.replicas
            )


class TestNodeCrashRecovery:
    def test_sync_relaunch_lands_on_surviving_node(self):
        result, registry = run(crash_config("relaunch"))
        counters = registry.snapshot()["counters"]
        assert counters["fault.node_crashes"] == 1
        assert result.n_failures == 4  # all four replicas were co-resident
        assert result.n_relaunches == 4
        assert len(result.cycle_timings) == 2
        for rep in result.replicas:  # relaunches recovered every cycle
            assert len(rep.history) == 2

    def test_sync_continue_skips_the_lost_cycle(self):
        result, registry = run(crash_config("continue"))
        assert registry.snapshot()["counters"]["fault.units_killed"] == 4
        assert result.n_failures == 4
        assert result.n_relaunches == 0
        assert len(result.cycle_timings) == 2

    def test_sync_zero_relaunch_budget_still_completes(self):
        result, _ = run(
            crash_config("relaunch", failure_over={"max_relaunches": 0})
        )
        assert result.n_relaunches == 0
        assert len(result.cycle_timings) == 2

    def test_sync_total_capacity_loss_is_fatal(self):
        # both nodes die: nothing can ever be placed again, the run dies
        config = crash_config(
            "relaunch", node_crashes=((40.0, 0), (45.0, 1))
        )
        with pytest.raises(SchedulerError):
            run(config)

    def test_async_relaunch_after_crash(self):
        # async cycles are shorter; crash early so MD is in flight
        result, registry = run(
            crash_config(
                "relaunch",
                node_crashes=((20.0, 0),),
                pattern=PatternSpec(kind="asynchronous"),
            )
        )
        assert registry.snapshot()["counters"]["fault.node_crashes"] == 1
        assert result.n_failures >= 4
        assert result.n_relaunches >= 4

    def test_async_capacity_loss_retires_unplaceable_replicas(self):
        # stampede carves 20 cores into a 16-core and a 4-core node; losing
        # the big node leaves 4 cores: too few for any 5-core MD task (all
        # replicas retire) but enough for 1-core bookkeeping tasks
        result, _ = run(
            small_tremd_config(
                resource=ResourceSpec("stampede", cores=20),
                cores_per_replica=5,
                failure=FailureSpec(
                    policy="continue", node_crashes=[[20.0, 0]]
                ),
                pattern=PatternSpec(kind="asynchronous"),
            )
        )
        assert result.n_retired == 4
        assert all(
            rep.status is ReplicaStatus.RETIRED for rep in result.replicas
        )

    def test_fault_events_reach_the_manifest(self):
        result, _ = run(crash_config("relaunch"))
        assert result.manifest is not None
        faults = result.manifest.fault_events
        assert [e["fault"] for e in faults] == ["node_crash"]
        assert faults[0]["units_killed"] == 4
