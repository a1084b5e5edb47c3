"""Tests for the agent scheduler (core allocation + unit pipeline)."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.pilot.cluster import ClusterSpec, FilesystemModel, LaunchOverheadModel
from repro.pilot.events import EventQueue
from repro.pilot.failures import FailureModel
from repro.pilot.scheduler import AgentScheduler, SchedulerError
from repro.pilot.staging import StagingAction, StagingDirective
from repro.pilot.unit import ComputeUnit, UnitDescription, UnitState

import numpy as np


def make_cluster(**kwargs):
    defaults = dict(
        name="test",
        nodes=8,
        cores_per_node=8,
        launcher=LaunchOverheadModel(base_s=0.1, per_concurrent_s=0.0),
        filesystem=FilesystemModel(
            latency_s=0.01, bandwidth_mb_s=100.0, contention=0.0,
            metadata_op_s=0.0,
        ),
    )
    defaults.update(kwargs)
    return ClusterSpec(**defaults)


def make_scheduler(capacity=8, clock=None, cluster=None, failure_model=None):
    clock = clock or EventQueue()
    return (
        AgentScheduler(
            clock=clock,
            cluster=cluster or make_cluster(),
            capacity=capacity,
            failure_model=failure_model,
        ),
        clock,
    )


def submit(sched, n, cores=1, duration=10.0, **desc_kwargs):
    units = []
    for i in range(n):
        u = ComputeUnit(
            UnitDescription(
                name=f"u{i}", cores=cores, duration=duration, **desc_kwargs
            )
        )
        sched.submit(u)
        units.append(u)
    return units


class TestBasicExecution:
    def test_single_unit_completes(self):
        sched, clock = make_scheduler()
        (u,) = submit(sched, 1)
        clock.run()
        assert u.succeeded
        assert u.execution_time == pytest.approx(10.0)

    def test_concurrent_when_cores_allow(self):
        sched, clock = make_scheduler(capacity=4)
        units = submit(sched, 4, duration=10.0)
        clock.run()
        starts = {u.start_time for u in units}
        assert len(starts) == 1  # identical launch overhead => same start

    def test_waves_when_oversubscribed(self):
        sched, clock = make_scheduler(capacity=2)
        units = submit(sched, 4, duration=10.0)
        clock.run()
        assert all(u.succeeded for u in units)
        starts = sorted(u.start_time for u in units)
        assert starts[2] > starts[0] + 9.0  # second wave after first

    def test_work_result_stored(self):
        sched, clock = make_scheduler()
        u = ComputeUnit(
            UnitDescription(name="w", duration=1.0, work=lambda: 42)
        )
        sched.submit(u)
        clock.run()
        assert u.result == 42

    def test_raising_work_fails_unit(self):
        sched, clock = make_scheduler()

        def boom():
            raise RuntimeError("kaput")

        u = ComputeUnit(UnitDescription(name="b", duration=1.0, work=boom))
        sched.submit(u)
        clock.run()
        assert u.state is UnitState.FAILED
        assert "kaput" in str(u.exception)

    def test_cores_released_after_failure(self):
        sched, clock = make_scheduler(capacity=1)

        def boom():
            raise RuntimeError("x")

        u1 = ComputeUnit(UnitDescription(name="f", duration=1.0, work=boom))
        u2 = ComputeUnit(UnitDescription(name="ok", duration=1.0))
        sched.submit(u1)
        sched.submit(u2)
        clock.run()
        assert u2.succeeded


class TestBackfill:
    def test_small_unit_fills_hole(self):
        sched, clock = make_scheduler(capacity=4)
        big = ComputeUnit(UnitDescription(name="big", cores=3, duration=100.0))
        big2 = ComputeUnit(UnitDescription(name="big2", cores=3, duration=10.0))
        small = ComputeUnit(UnitDescription(name="small", cores=1, duration=1.0))
        sched.submit(big)
        sched.submit(big2)  # doesn't fit alongside big
        sched.submit(small)  # fits in the 1 free core
        clock.run()
        assert small.end_time < big.end_time


class TestValidation:
    def test_oversized_unit_rejected(self):
        sched, _ = make_scheduler(capacity=4)
        u = ComputeUnit(UnitDescription(name="huge", cores=8))
        with pytest.raises(SchedulerError, match="only has"):
            sched.submit(u)

    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            AgentScheduler(EventQueue(), make_cluster(), capacity=0)

    def test_cancel_all(self):
        sched, clock = make_scheduler(capacity=1)
        units = submit(sched, 3, duration=5.0)
        sched.cancel_all()
        clock.run()
        # first one already staged/running; the queued ones are cancelled
        assert units[1].state is UnitState.CANCELED
        assert units[2].state is UnitState.CANCELED

    def test_submit_after_drain_rejected(self):
        sched, _ = make_scheduler()
        sched.cancel_all()
        with pytest.raises(SchedulerError):
            sched.submit(ComputeUnit(UnitDescription(name="late")))


class TestStagingPipeline:
    def test_staging_charged(self):
        sched, clock = make_scheduler()
        d_in = StagingDirective("a", "b", 100.0)  # 1 s at 100 MB/s
        u = ComputeUnit(
            UnitDescription(name="s", duration=1.0, input_staging=[d_in])
        )
        sched.submit(u)
        clock.run()
        assert u.staging_in_time == pytest.approx(1.01, abs=0.01)

    def test_staged_files_counted_in_and_out(self):
        registry = MetricsRegistry()
        clock = EventQueue()
        sched = AgentScheduler(
            clock=clock, cluster=make_cluster(), capacity=8, registry=registry
        )
        d_in = StagingDirective("a", "staging:///in", 2.5)
        outputs = [
            StagingDirective("x", "staging:///out", 1.0),
            StagingDirective("y", "staging:///link", 0.5, StagingAction.LINK),
        ]
        first = ComputeUnit(
            UnitDescription(
                name="s", duration=1.0, input_staging=[d_in],
                output_staging=outputs,
            )
        )
        # a relaunch stages the same input again and is counted again
        again = ComputeUnit(
            UnitDescription(name="r", duration=1.0, input_staging=[d_in])
        )
        sched.submit(first)
        sched.submit(again)
        clock.run()
        counters = registry.snapshot()["counters"]
        assert counters["staging.bytes_mb"] == 2.5 + 2.5 + 1.0 + 0.5
        assert counters["staging.transfers"] == 4

    def test_link_faster_than_copy(self):
        sched, clock = make_scheduler()
        u_link = ComputeUnit(
            UnitDescription(
                name="l",
                duration=0.0,
                input_staging=[
                    StagingDirective("a", "b", 100.0, StagingAction.LINK)
                ],
            )
        )
        u_copy = ComputeUnit(
            UnitDescription(
                name="c",
                duration=0.0,
                input_staging=[StagingDirective("a", "c", 100.0)],
            )
        )
        sched.submit(u_link)
        sched.submit(u_copy)
        clock.run()
        assert u_link.staging_in_time < u_copy.staging_in_time


class TestLaunchOverheadAccounting:
    def test_launch_stagger_grows_with_burst_size(self):
        cluster = make_cluster(
            launcher=LaunchOverheadModel(base_s=0.0, per_concurrent_s=0.1)
        )
        sched, clock = make_scheduler(capacity=64, cluster=cluster)
        units = submit(sched, 32, duration=1.0)
        clock.run()
        overheads = [u.launch_overhead for u in units]
        assert max(overheads) > min(overheads)
        assert max(overheads) >= 0.1 * 16  # later launches see contention


class TestFailureInjection:
    def test_injected_failures(self):
        fm = FailureModel(probability=1.0, rng=np.random.default_rng(0))
        sched, clock = make_scheduler(failure_model=fm)
        units = submit(sched, 3, duration=10.0)
        clock.run()
        assert all(u.state is UnitState.FAILED for u in units)

    def test_failure_before_duration_elapses(self):
        fm = FailureModel(probability=1.0, rng=np.random.default_rng(0))
        sched, clock = make_scheduler(failure_model=fm)
        (u,) = submit(sched, 1, duration=10.0)
        clock.run()
        fail_t = u.timestamps[UnitState.FAILED]
        assert fail_t - u.start_time < 10.0

    def test_phase_filter(self):
        fm = FailureModel(
            probability=1.0,
            rng=np.random.default_rng(0),
            only_phase="md",
        )
        sched, clock = make_scheduler(failure_model=fm)
        safe = ComputeUnit(
            UnitDescription(
                name="ex", duration=1.0, metadata={"phase": "exchange"}
            )
        )
        doomed = ComputeUnit(
            UnitDescription(name="md", duration=1.0, metadata={"phase": "md"})
        )
        sched.submit(safe)
        sched.submit(doomed)
        clock.run()
        assert safe.succeeded
        assert doomed.state is UnitState.FAILED
