"""Tests for transient staging faults: retry, backoff, determinism."""

import numpy as np

from repro.obs.metrics import MetricsRegistry
from repro.pilot.cluster import ClusterSpec, FilesystemModel, LaunchOverheadModel
from repro.pilot.events import EventQueue
from repro.pilot.faultdomain import FaultDomainModel, TransientFaultModel
from repro.pilot.scheduler import AgentScheduler
from repro.pilot.staging import StagingDirective
from repro.pilot.unit import ComputeUnit, UnitDescription, UnitState


def make_cluster():
    return ClusterSpec(
        name="test",
        nodes=8,
        cores_per_node=4,
        launcher=LaunchOverheadModel(base_s=0.1, per_concurrent_s=0.0),
        filesystem=FilesystemModel(
            latency_s=0.01, bandwidth_mb_s=100.0, contention=0.0,
            metadata_op_s=0.0,
        ),
    )


def run_workload(staging_model, n_units=4):
    """Run ``n_units`` units with one input directive each; return the
    (units, finish_time, counters) triple."""
    registry = MetricsRegistry()
    clock = EventQueue()
    fd = FaultDomainModel(staging=staging_model, registry=registry)
    sched = AgentScheduler(
        clock=clock, cluster=make_cluster(), capacity=8, fault_domain=fd,
        registry=registry,
    )
    units = []
    for i in range(n_units):
        u = ComputeUnit(
            UnitDescription(
                name=f"u{i}",
                cores=1,
                duration=5.0,
                input_staging=[
                    StagingDirective(
                        source=f"in{i}.dat", target=f"in{i}.dat",
                        size_mb=1.0,
                    )
                ],
            )
        )
        sched.submit(u)
        units.append(u)
    clock.run()
    return units, clock.now, registry.snapshot()["counters"]


def flaky(probability=0.5, seed=42, **kwargs):
    kwargs.setdefault("backoff_base_s", 0.5)
    kwargs.setdefault("max_retries", 10)
    return TransientFaultModel(
        probability=probability, rng=np.random.default_rng(seed), **kwargs
    )


class TestRetry:
    def test_flaky_staging_retried_to_success(self):
        units, _, counters = run_workload(flaky(probability=0.5))
        assert all(u.succeeded for u in units)
        assert counters["fault.staging_transients"] > 0
        # every transient was retried (nothing exhausted its budget)
        assert counters["staging.retries"] == counters["fault.staging_transients"]

    def test_retries_delay_completion(self):
        _, t_clean, _ = run_workload(None)
        _, t_flaky, _ = run_workload(flaky(probability=0.7))
        assert t_flaky > t_clean  # backoff + re-charged transfers cost time

    def test_exhaustion_fails_unit(self):
        model = flaky(probability=1.0, max_retries=2)
        units, _, counters = run_workload(model, n_units=1)
        assert units[0].state is UnitState.FAILED
        assert "staging failed after 3 attempts" in str(units[0].exception)
        # attempts = 1 first try + max_retries retries, all faulted
        assert counters["fault.staging_transients"] == 3
        assert counters["staging.retries"] == 2

    def test_zero_retries_fails_on_first_fault(self):
        model = flaky(probability=1.0, max_retries=0)
        units, _, counters = run_workload(model, n_units=1)
        assert units[0].state is UnitState.FAILED
        assert counters["fault.staging_transients"] == 1
        assert counters["staging.retries"] == 0

    def test_fault_events_recorded_per_attempt(self):
        clock = EventQueue()
        fd = FaultDomainModel(staging=flaky(probability=1.0, max_retries=1))
        sched = AgentScheduler(
            clock=clock, cluster=make_cluster(), capacity=8, fault_domain=fd
        )
        u = ComputeUnit(
            UnitDescription(
                name="u0", cores=1, duration=1.0,
                input_staging=[
                    StagingDirective(source="a", target="a", size_mb=1.0)
                ],
            )
        )
        sched.submit(u)
        clock.run()
        assert [e.kind for e in fd.events] == ["staging_fault"] * 2
        assert [e.detail["attempt"] for e in fd.events] == [1, 2]
        assert all(e.detail["unit"] == "u0" for e in fd.events)


class TestDeterminism:
    def test_same_seed_same_trajectory(self):
        a_units, a_t, a_counters = run_workload(flaky(seed=7))
        b_units, b_t, b_counters = run_workload(flaky(seed=7))
        assert a_t == b_t
        assert a_counters == b_counters
        for ua, ub in zip(a_units, b_units):
            assert ua.timestamps == ub.timestamps

    def test_different_seed_different_trajectory(self):
        _, a_t, _ = run_workload(flaky(seed=7, probability=0.6))
        _, b_t, _ = run_workload(flaky(seed=8, probability=0.6))
        assert a_t != b_t  # distinct fault draws land on the clock

    def test_output_staging_also_covered(self):
        # faults strike output staging too: probability 1, tiny budget
        clock = EventQueue()
        fd = FaultDomainModel(staging=flaky(probability=1.0, max_retries=0))
        sched = AgentScheduler(
            clock=clock, cluster=make_cluster(), capacity=8, fault_domain=fd
        )
        u = ComputeUnit(
            UnitDescription(
                name="u0", cores=1, duration=1.0,
                output_staging=[
                    StagingDirective(source="o", target="o", size_mb=1.0)
                ],
            )
        )
        sched.submit(u)
        clock.run()
        # it reached EXECUTING (no input directives), then failed on output
        assert UnitState.EXECUTING in u.timestamps
        assert u.state is UnitState.FAILED
