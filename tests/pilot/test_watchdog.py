"""Gray-failure watchdog: deadlines, stragglers, speculation, backoff.

Covers the supervision stack at the pilot level — the
:class:`~repro.pilot.watchdog.Watchdog` driving an
:class:`~repro.pilot.scheduler.AgentScheduler` directly on a virtual
clock, plus the :class:`~repro.core.fault.WatchdogRetryPolicy` backoff
arithmetic and the fault domain's gray-injection primitives.
"""

import numpy as np
import pytest

from repro.core.config import WatchdogSpec
from repro.core.fault import WatchdogRetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.pilot.cluster import ClusterSpec, FilesystemModel, LaunchOverheadModel
from repro.pilot.events import EventQueue
from repro.pilot.faultdomain import FaultDomainModel
from repro.pilot.scheduler import AgentScheduler
from repro.pilot.unit import ComputeUnit, UnitDescription, UnitState
from repro.pilot.watchdog import Watchdog


class ScriptedRNG:
    """Returns pre-scripted uniform draws (for exact hang control)."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0) if self.values else 1.0


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


def make_stack(spec, capacity=8, fault_domain=None):
    clock = EventQueue()
    registry = MetricsRegistry()
    watchdog = Watchdog(
        spec, clock, fault_domain=fault_domain, registry=registry
    )
    sched = AgentScheduler(
        clock=clock,
        cluster=make_cluster(),
        capacity=capacity,
        fault_domain=fault_domain,
        watchdog=watchdog,
        registry=registry,
    )
    return sched, clock, watchdog, registry


def submit(sched, n, cores=1, duration=10.0):
    units = []
    for i in range(n):
        u = ComputeUnit(
            UnitDescription(name=f"u{i}", cores=cores, duration=duration)
        )
        sched.submit(u)
        units.append(u)
    return units


def counters(registry):
    return registry.snapshot()["counters"]


class TestRetryPolicy:
    def test_backoff_doubles_and_caps(self):
        policy = WatchdogRetryPolicy(
            max_retries=5, backoff_base_s=4.0, backoff_cap_s=20.0, jitter=0.0
        )
        assert policy.backoff(1) == 4.0
        assert policy.backoff(2) == 8.0
        assert policy.backoff(3) == 16.0
        assert policy.backoff(4) == 20.0  # capped, not 32

    def test_jitter_bounded(self):
        policy = WatchdogRetryPolicy(
            backoff_base_s=10.0, backoff_cap_s=1000.0, jitter=0.5,
            rng=np.random.default_rng(7),
        )
        for attempt in (1, 2, 3):
            nominal = 10.0 * 2 ** (attempt - 1)
            for _ in range(20):
                delay = policy.backoff(attempt)
                assert nominal <= delay <= nominal * 1.5

    def test_should_relaunch_boundary(self):
        policy = WatchdogRetryPolicy(max_retries=2)
        assert policy.should_relaunch(1)
        assert policy.should_relaunch(2)
        assert not policy.should_relaunch(3)

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            WatchdogRetryPolicy().backoff(0)

    def test_from_spec(self):
        spec = WatchdogSpec(
            enabled=True, max_retries=7, backoff_base_s=2.0,
            backoff_cap_s=64.0, backoff_jitter=0.0,
        )
        policy = WatchdogRetryPolicy.from_spec(spec)
        assert policy.max_retries == 7
        assert policy.backoff(6) == 64.0


class TestGrayInjectionPrimitives:
    def test_dilation_is_max_over_nodes(self):
        fd = FaultDomainModel(slow_nodes=[(0, 2.0)])
        fd.node_dilation = {0: 2.0, 2: 5.0}
        assert fd.dilation_for([0, 1]) == 2.0
        assert fd.dilation_for([0, 2]) == 5.0
        assert fd.dilation_for([1, 3]) == 1.0

    def test_disabled_hangs_consume_no_rng(self):
        rng = np.random.default_rng(3)
        before = rng.bit_generator.state
        fd = FaultDomainModel(slow_nodes=[(0, 2.0)], hang_rng=rng)
        assert not fd.draw_hang()
        assert rng.bit_generator.state == before

    def test_explicit_slow_nodes_max_merge(self):
        fd = FaultDomainModel(slow_nodes=[(0, 2.0), (0, 3.0)])
        fd._resolve_slow_nodes(2, EventQueue())
        assert fd.node_dilation == {0: 3.0}
        assert [e.kind for e in fd.events] == ["slowdown"]


class TestSlowNodeDilation:
    def test_execution_time_dilated_by_placement(self):
        fd = FaultDomainModel(slow_nodes=[(0, 3.0)])
        fd.node_dilation = {0: 3.0}
        spec = WatchdogSpec(enabled=True, deadline_factor=10.0)
        sched, clock, _, _ = make_stack(spec, capacity=4, fault_domain=fd)
        (unit,) = submit(sched, 1, duration=10.0)
        clock.run_until(lambda: unit.done)
        assert unit.state is UnitState.DONE
        # 0.1s launch + 3 x 10s dilated execution
        assert clock.now == pytest.approx(30.1)


class TestDeadlineRecovery:
    def test_single_hang_killed_and_relaunched(self):
        fd = FaultDomainModel(
            hang_probability=0.5, hang_rng=ScriptedRNG([0.1, 0.9])
        )
        spec = WatchdogSpec(
            enabled=True, deadline_factor=3.0, backoff_base_s=5.0,
            backoff_jitter=0.0,
        )
        sched, clock, _, registry = make_stack(spec, capacity=4, fault_domain=fd)
        (unit,) = submit(sched, 1, duration=10.0)
        clock.run_until(lambda: unit.done)
        assert unit.state is UnitState.DONE
        snap = counters(registry)
        assert snap["watchdog.deadline_kills"] == 1
        assert snap["watchdog.relaunches"] == 1
        assert snap["watchdog.escalations"] == 0
        # launch + 30s deadline + 5s backoff + clean 10s attempt
        assert clock.now == pytest.approx(0.1 + 30.0 + 5.0 + 10.0)
        kinds = [e.kind for e in fd.events]
        assert kinds == ["hang", "watchdog_kill", "watchdog_relaunch"]

    def test_persistent_hang_escalates_to_failure(self):
        fd = FaultDomainModel(hang_probability=1.0, hang_rng=ScriptedRNG([0.0] * 10))
        spec = WatchdogSpec(
            enabled=True, max_retries=2, backoff_jitter=0.0
        )
        sched, clock, _, registry = make_stack(spec, capacity=4, fault_domain=fd)
        (unit,) = submit(sched, 1, duration=10.0)
        clock.run_until(lambda: unit.done)
        assert unit.state is UnitState.FAILED
        assert "watchdog" in str(unit.exception)
        snap = counters(registry)
        assert snap["watchdog.deadline_kills"] == 3  # attempts 1..max+1
        assert snap["watchdog.relaunches"] == 2
        assert snap["watchdog.escalations"] == 1

    def test_watchdog_idle_on_healthy_units(self):
        spec = WatchdogSpec(enabled=True, check_interval_s=2.0)
        sched, clock, watchdog, registry = make_stack(spec, capacity=8)
        units = submit(sched, 8, duration=10.0)
        clock.run_until(lambda: all(u.done for u in units))
        snap = counters(registry)
        assert snap["watchdog.deadline_kills"] == 0
        assert snap["watchdog.stragglers"] == 0
        assert watchdog.n_watched == 0


class TestSpeculativeExecution:
    def _slow_node_stack(self, *, speculative):
        fd = FaultDomainModel(slow_nodes=[(0, 4.0)])
        fd.node_dilation = {0: 4.0}
        spec = WatchdogSpec(
            enabled=True,
            deadline_factor=10.0,  # speculation resolves first
            check_interval_s=5.0,
            speculative=speculative,
            backoff_jitter=0.0,
        )
        # 8 cores = 2 nodes: node 0's four units are 4x slow, node 1's
        # four finish on time and seed the cohort median
        return make_stack(spec, capacity=8, fault_domain=fd)

    def test_speculative_duplicate_wins_exactly_once(self):
        sched, clock, _, registry = self._slow_node_stack(speculative=True)
        units = submit(sched, 8, duration=10.0)
        clock.run_until(lambda: all(u.done for u in units))
        snap = counters(registry)
        assert snap["scheduler.completed"] == 8
        assert snap["watchdog.stragglers"] == 4
        assert snap["watchdog.speculative_launches"] == 4
        assert (
            snap["watchdog.speculative_wins"]
            + snap["watchdog.speculative_losses"]
            == 4
        )
        # duplicates ran on the fast node, so the run beats the 40s the
        # slow originals would have needed
        assert clock.now < 40.0
        assert sched.free_cores == 8  # every shadow's cores were freed

    def test_stragglers_flagged_but_not_duplicated_without_speculation(self):
        sched, clock, _, registry = self._slow_node_stack(speculative=False)
        units = submit(sched, 8, duration=10.0)
        clock.run_until(lambda: all(u.done for u in units))
        snap = counters(registry)
        assert snap["scheduler.completed"] == 8
        assert snap["watchdog.stragglers"] == 4
        assert snap["watchdog.speculative_launches"] == 0
        # the slow originals had to finish on their own: 4x10s + launch
        assert clock.now > 40.0
