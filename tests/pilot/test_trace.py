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

    def test_dwell_times(self):
        tracer = run_traced(n_units=1, duration=10.0)
        (rec,) = tracer.records.values()
        assert rec.dwell(UnitState.EXECUTING) == pytest.approx(10.0)

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
        dropped unit is freed along with its result and work closure."""
        tracer = Tracer()
        seen = []
        if with_sink:
            tracer.add_sink(lambda *event: seen.append(event))
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
        assert rec.dwell(UnitState.EXECUTING) == 1.0
        assert seen == ([("u", s, t) for s, t in rec.transitions]
                        if with_sink else [])

    def test_concurrency_profile_respects_capacity(self):
        tracer = run_traced(n_units=6, cores=2, duration=10.0)
        profile = tracer.concurrency_profile()
        assert tracer.peak_concurrency() <= 2
        # ends at zero busy cores
        assert profile[-1][1] == 0

    def test_busy_core_seconds(self):
        tracer = run_traced(n_units=3, cores=4, duration=10.0)
        assert tracer.busy_core_seconds() == pytest.approx(30.0)

    def test_state_totals(self):
        tracer = run_traced(n_units=2, cores=2, duration=5.0)
        totals = tracer.state_totals()
        assert totals["EXECUTING"] == pytest.approx(10.0)
        assert totals.get("AGENT_EXECUTING_PENDING", 0.0) > 0.0

    def test_gantt_rendering(self):
        tracer = run_traced(n_units=4, cores=2, duration=10.0)
        art = tracer.gantt(width=40)
        lines = art.splitlines()
        assert lines[0].startswith("t = ")
        assert len(lines) == 5  # header + 4 units
        assert all("#" in l for l in lines[1:])

    def test_gantt_row_cap(self):
        tracer = run_traced(n_units=6, cores=6, duration=1.0)
        art = tracer.gantt(max_rows=2)
        assert "4 more units" in art

    def test_gantt_empty(self):
        assert Tracer().gantt() == "(no executed units)"

    def test_json_roundtrip(self):
        tracer = run_traced(n_units=2)
        text = tracer.to_json()
        back = Tracer.from_json(text)
        assert set(back.records) == set(tracer.records)
        for uid in tracer.records:
            assert (
                back.records[uid].transitions
                == tracer.records[uid].transitions
            )
        assert back.busy_core_seconds() == pytest.approx(
            tracer.busy_core_seconds()
        )
