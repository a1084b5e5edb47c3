"""Indexed-scheduler equivalence: the fast path is the linear scan.

``AgentScheduler`` places units through a sorted free-node index and
skips waiting-queue rescans that cannot place anything.  That is a pure
data-structure choice: for any sequence of submits, completions, crashes
and preemptions it must make byte-for-byte the same placement decisions
as the original linear node scan with full queue rescans, kept here as
the test-local oracle :class:`LinearScanScheduler`.  These tests drive
both through randomized schedules and compare everything observable —
placements, unit lifecycles, timings and final resource accounting — and
replay the golden sync trace against the oracle to pin the equivalence to
the committed fixture as well.
"""

import json
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.execution_modes as execution_modes
import repro.pilot.pilot as pilot_mod
from repro.core import RepEx
from repro.pilot.cluster import ClusterSpec, FilesystemModel, LaunchOverheadModel
from repro.pilot.events import EventQueue
from repro.pilot.scheduler import AgentScheduler, SchedulerError
from repro.pilot.unit import ComputeUnit, UnitDescription
from tests.conftest import small_tremd_config


class LinearScanScheduler(AgentScheduler):
    """Oracle: a full queue rescan on every change, linear first-fit nodes.

    The scheduler's sorted free-node index and its rescan-skipping bound
    are never consulted here, so stale entries in them are harmless.
    """

    def _scan_queue(self) -> None:
        still_waiting = deque()
        staging_batch = []
        while self._queue:
            unit = self._queue.popleft()
            if (
                unit.description.cores <= self.free_cores
                and unit.description.gpus <= self.free_gpus
            ):
                self._place(unit)
                self._running[unit] = None
                self._begin_staging_in(unit, batch=staging_batch)
            else:
                still_waiting.append(unit)
        self._queue = still_waiting
        if staging_batch:
            self._clock.schedule_many(staging_batch)
        self._update_occupancy()

    def _take_cores(self, need):
        placement = {}
        for node in range(self.n_nodes):
            if need == 0:
                break
            if node in self._quarantined or self._node_free[node] == 0:
                continue
            take = min(need, self._node_free[node])
            self._node_free[node] -= take
            placement[node] = take
            need -= take
        assert need == 0, "free_cores disagreed with the node map"
        return placement


def make_scheduler(capacity, indexed):
    clock = EventQueue()
    cluster = ClusterSpec(
        name="p",
        nodes=max(1, capacity // 4 + 1),
        cores_per_node=4,
        launcher=LaunchOverheadModel(base_s=0.01, per_concurrent_s=0.001),
        filesystem=FilesystemModel(latency_s=0.001, metadata_op_s=0.0),
    )
    cls = AgentScheduler if indexed else LinearScanScheduler
    return cls(clock, cluster, capacity=capacity), clock


def run_script(specs, crashes, capacity, indexed):
    """Drive one scheduler variant through a submit/crash schedule.

    Returns every observable outcome: per-unit node placements, the full
    unit lifecycles with timings, and the final resource accounting.
    """
    sched, clock = make_scheduler(capacity, indexed)
    placements = {}
    orig_place = sched._place

    def recording_place(unit):
        orig_place(unit)
        placements[unit.description.name] = dict(sched._placement[unit])

    sched._place = recording_place

    units = []
    rejected = []

    def submit(unit):
        # a crash may shrink capacity below the unit's request before its
        # submit event fires; both variants must reject identically
        try:
            sched.submit(unit)
        except SchedulerError:
            rejected.append(unit.description.name)

    for i, (delay, cores, dur) in enumerate(specs):
        unit = ComputeUnit(
            UnitDescription(name=f"u{i}", cores=cores, duration=dur)
        )
        clock.schedule(delay, lambda u=unit: submit(u))
        units.append(unit)
    for delay, node in crashes:
        clock.schedule(delay, lambda n=node: sched.crash_node(n))
    clock.run()
    lifecycle = [
        (u.description.name, u.state.name, u.start_time, u.end_time)
        for u in units
    ]
    accounting = (
        sched.free_cores,
        sched.capacity,
        sched.n_running,
        sched.n_waiting,
        frozenset(sched.quarantined_nodes),
    )
    return placements, lifecycle, accounting, rejected


unit_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=50.0, allow_nan=False),  # delay
        st.integers(min_value=1, max_value=8),  # cores
        st.floats(min_value=0.0, max_value=20.0, allow_nan=False),  # duration
    ),
    min_size=1,
    max_size=30,
)

crash_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=60.0, allow_nan=False),  # when
        st.integers(min_value=0, max_value=15),  # node (may not exist)
    ),
    max_size=3,
)


@given(specs=unit_specs, capacity=st.integers(min_value=8, max_value=48))
@settings(max_examples=80, deadline=None)
def test_indexed_placements_match_linear_reference(specs, capacity):
    indexed = run_script(specs, [], capacity, indexed=True)
    linear = run_script(specs, [], capacity, indexed=False)
    assert indexed == linear


@given(
    specs=unit_specs,
    crashes=crash_specs,
    capacity=st.integers(min_value=8, max_value=48),
)
@settings(max_examples=80, deadline=None)
def test_equivalence_survives_crashes_and_quarantine(specs, crashes, capacity):
    indexed = run_script(specs, crashes, capacity, indexed=True)
    linear = run_script(specs, crashes, capacity, indexed=False)
    assert indexed == linear


def test_golden_sync_trace_identical_with_linear_reference(monkeypatch):
    """The committed golden trace is scheduler-index independent (on the
    reference engine, which places through the queue scan)."""
    from tests.integration.test_golden_trace import FIXTURES

    monkeypatch.setattr(pilot_mod, "AgentScheduler", LinearScanScheduler)
    monkeypatch.setattr(execution_modes, "try_fast_phase", lambda *a: None)
    result = RepEx(small_tremd_config()).run()
    produced = json.dumps(result.manifest.timeline, separators=(",", ":"))
    expected = (FIXTURES / "golden_sync_timeline.json").read_text()
    assert produced == expected
