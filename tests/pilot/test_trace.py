"""Tests for the execution tracer."""

import gc
import weakref

import pytest

from repro.pilot import (
    PilotDescription,
    Session,
    UnitDescription,
)
from repro.pilot.trace import Tracer
from repro.pilot.unit import ComputeUnit, UnitState

LIFECYCLE = (
    UnitState.SCHEDULING,
    UnitState.STAGING_INPUT,
    UnitState.AGENT_EXECUTING_PENDING,
    UnitState.EXECUTING,
    UnitState.STAGING_OUTPUT,
    UnitState.DONE,
)


def run_traced(n_units=4, cores=2, duration=10.0):
    tracer = Tracer()
    with Session() as s:
        pilot = s.submit_pilot(
            PilotDescription(resource="small-cluster", cores=cores)
        )
        s.wait_pilot(pilot)
        units = s.submit_units(
            pilot,
            [
                UnitDescription(
                    name=f"u{i}",
                    cores=1,
                    duration=duration,
                    metadata={"phase": "md", "rid": i},
                )
                for i in range(n_units)
            ],
        )
        tracer.watch_all(units)
        s.wait_units(units)
    return tracer


class TestTracer:
    def test_records_all_units(self):
        tracer = run_traced(n_units=4)
        assert len(tracer.records) == 4

    def test_transitions_reach_done(self):
        tracer = run_traced(n_units=1)
        (rec,) = tracer.records.values()
        assert rec.final_state == "DONE"
        names = [s for s, _ in rec.transitions]
        assert names[0] == "SCHEDULING"
        assert "EXECUTING" in names

    def test_watch_idempotent(self):
        tracer = Tracer()
        with Session() as s:
            pilot = s.submit_pilot(
                PilotDescription(resource="small-cluster", cores=1)
            )
            s.wait_pilot(pilot)
            units = s.submit_units(
                pilot, [UnitDescription(name="x", duration=1.0)]
            )
            tracer.watch(units[0])
            tracer.watch(units[0])
            s.wait_units(units)
        (rec,) = tracer.records.values()
        names = [s for s, _ in rec.transitions]
        # each state appears once despite double-watching
        assert len(names) == len(set(names))

    @pytest.mark.parametrize("with_sink", [False, True])
    def test_keeps_no_finished_unit_alive(self, with_sink):
        """A record shares the unit's timestamps, never the unit, so a
        dropped unit is freed along with its result and work closure.
        A sink receives the record once, when the unit finishes."""
        tracer = Tracer()
        seen = []
        if with_sink:
            tracer.add_sink(seen.append)
        payload = bytearray(1 << 16)
        unit = ComputeUnit(UnitDescription(name="u", work=lambda: payload))
        unit.advance(UnitState.SCHEDULING, 0.0)
        tracer.watch(unit)
        for t, state in enumerate(LIFECYCLE[1:], start=1):
            unit.advance(state, float(t))
        unit.result = payload
        ref = weakref.ref(unit)
        del unit
        gc.collect()
        assert ref() is None
        (rec,) = tracer.records.values()
        assert rec.transitions == [
            (state.value, float(t)) for t, state in enumerate(LIFECYCLE)
        ]
        assert rec.final_state == "DONE"
        assert seen == ([rec] if with_sink else [])

    def test_unit_final_before_watch_goes_to_sink_at_once(self):
        tracer = Tracer()
        seen = []
        tracer.add_sink(seen.append)
        unit = ComputeUnit(UnitDescription(name="u"))
        unit.advance(UnitState.CANCELED, 2.0)
        tracer.watch(unit)
        assert seen == [tracer.records[unit.uid]]
        assert seen[0].final_state == "CANCELED"
