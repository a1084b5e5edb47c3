"""Tests for pilot lifecycle."""

import pytest

from repro.pilot.cluster import ClusterSpec, QueueModel
from repro.pilot.events import EventQueue
from repro.pilot.pilot import Pilot, PilotDescription, PilotState
from repro.pilot.scheduler import SchedulerError
from repro.pilot.unit import UnitDescription, UnitState


def make_pilot(clock=None, cores=8, walltime_minutes=60.0, queue_wait=10.0):
    clock = clock or EventQueue()
    cluster = ClusterSpec(
        name="t",
        nodes=4,
        cores_per_node=4,
        queue=QueueModel(base_wait_s=queue_wait, per_core_s=0.0),
    )
    desc = PilotDescription(
        resource=cluster, cores=cores, walltime_minutes=walltime_minutes
    )
    return Pilot(desc, clock), clock


class TestDescription:
    def test_rejects_bad_cores(self):
        with pytest.raises(ValueError):
            PilotDescription(resource="supermic", cores=0)

    def test_rejects_bad_walltime(self):
        with pytest.raises(ValueError):
            PilotDescription(resource="supermic", cores=4, walltime_minutes=0)

    def test_resolves_named_resource(self):
        d = PilotDescription(resource="supermic", cores=4)
        assert d.cluster().name == "supermic"

    def test_oversized_request_rejected(self):
        cluster = ClusterSpec(name="tiny", nodes=1, cores_per_node=2)
        with pytest.raises(ValueError, match="only has"):
            Pilot(
                PilotDescription(resource=cluster, cores=100),
                EventQueue(),
            )


class TestLifecycle:
    def test_queue_wait_before_active(self):
        pilot, clock = make_pilot(queue_wait=30.0)
        pilot.launch()
        assert pilot.state is PilotState.PENDING
        clock.run_until(lambda: pilot.state is PilotState.ACTIVE)
        assert pilot.timestamps[PilotState.ACTIVE] == pytest.approx(30.0)

    def test_double_launch_rejected(self):
        pilot, clock = make_pilot()
        pilot.launch()
        with pytest.raises(RuntimeError):
            pilot.launch()

    def test_cancel(self):
        pilot, clock = make_pilot()
        pilot.launch()
        clock.run_until(lambda: pilot.state is PilotState.ACTIVE)
        pilot.cancel()
        assert pilot.state is PilotState.CANCELED

    def test_cancel_idempotent(self):
        pilot, clock = make_pilot()
        pilot.launch()
        clock.run_until(lambda: pilot.state is PilotState.ACTIVE)
        pilot.cancel()
        pilot.cancel()
        assert pilot.state is PilotState.CANCELED

    def test_callbacks(self):
        pilot, clock = make_pilot()
        pilot.launch()
        clock.run_until(lambda: pilot.state is PilotState.ACTIVE)
        # timestamps record every state change, in order
        assert list(pilot.timestamps) == [
            PilotState.NEW, PilotState.PENDING, PilotState.ACTIVE
        ]
        stamps = list(pilot.timestamps.values())
        assert stamps == sorted(stamps)


class TestWorkload:
    def test_units_before_activation_run_after(self):
        pilot, clock = make_pilot(queue_wait=10.0)
        pilot.launch()
        units = pilot.submit_units(
            [UnitDescription(name="early", duration=5.0)]
        )
        clock.run_until(lambda: units[0].done)
        assert units[0].succeeded
        assert units[0].start_time >= 10.0

    def test_units_after_activation(self):
        pilot, clock = make_pilot()
        pilot.launch()
        clock.run_until(lambda: pilot.state is PilotState.ACTIVE)
        units = pilot.submit_units([UnitDescription(name="late", duration=5.0)])
        clock.run_until(lambda: units[0].done)
        assert units[0].succeeded

    def test_submit_to_final_pilot_rejected(self):
        pilot, clock = make_pilot()
        pilot.launch()
        clock.run_until(lambda: pilot.state is PilotState.ACTIVE)
        pilot.cancel()
        with pytest.raises(SchedulerError):
            pilot.submit_units([UnitDescription(name="x")])

    def test_walltime_expiry_cancels_queue(self):
        pilot, clock = make_pilot(cores=1, walltime_minutes=1.0, queue_wait=0.0)
        pilot.launch()
        # unit "a" is still running at the 60 s walltime (it gets a grace
        # period to finish); queued unit "b" is cancelled at expiry.
        units = pilot.submit_units(
            [
                UnitDescription(name="a", duration=70.0),
                UnitDescription(name="b", duration=70.0),
            ]
        )
        clock.run()
        assert pilot.state is PilotState.DONE
        assert units[0].succeeded
        assert units[1].state is UnitState.CANCELED
