"""Tests for the execution tracer."""

import gc
import json
import weakref

import pytest

from repro.core import RepEx
from repro.core.config import FailureSpec, PatternSpec
from repro.obs.manifest import ManifestStream
from repro.obs.metrics import MetricsRegistry
from repro.pilot import (
    PilotDescription,
    Session,
    UnitDescription,
)
from repro.pilot.trace import Tracer
from repro.pilot.unit import ComputeUnit, UnitState
from tests.conftest import small_tremd_config

LIFECYCLE = (
    UnitState.SCHEDULING,
    UnitState.STAGING_INPUT,
    UnitState.AGENT_EXECUTING_PENDING,
    UnitState.EXECUTING,
    UnitState.STAGING_OUTPUT,
    UnitState.DONE,
)


def run_traced(n_units=4, cores=2, duration=10.0):
    """The units a tracer handed to its sink, and the tracer."""
    seen = []
    tracer = Tracer(seen.append)
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
        assert len(tracer.in_flight) == n_units
        s.wait_units(units)
    return seen, tracer


class TestTracer:
    def test_records_all_units(self):
        seen, tracer = run_traced(n_units=4)
        assert sorted(u.description.name for u in seen) == [
            "u0", "u1", "u2", "u3"
        ]
        assert tracer.in_flight == {}

    def test_transitions_reach_done(self):
        (unit,), _ = run_traced(n_units=1)
        assert unit.state is UnitState.DONE
        states = list(unit.timestamps)
        assert states[0] is UnitState.SCHEDULING
        assert UnitState.EXECUTING in states

    def test_watch_idempotent(self):
        seen = []
        tracer = Tracer(seen.append)
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
        # handed on once despite double-watching
        assert seen == units

    @pytest.mark.parametrize("with_sink", [False, True])
    def test_keeps_no_finished_unit_alive(self, with_sink):
        """The tracer lets go of a unit once it is final, so a dropped
        unit is freed along with its result and work closure — also when
        the sink is a run log, which keeps only the unit's row line."""
        log = ManifestStream(None, None)
        tracer = Tracer(log.on_unit if with_sink else (lambda unit: None))
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
        assert tracer.in_flight == {}
        if with_sink:
            (line,) = log.lines.decode().splitlines()
            (row,) = log.rows_since(0)
            assert row["name"] == "u"
            assert json.loads(line) == {"kind": "unit", **row}
            assert row["t"] == [None] + [float(t) for t in range(6)] + [
                None, None
            ]
            assert row["final_state"] == "DONE"

    def test_unit_final_before_watch_goes_to_sink_at_once(self):
        seen = []
        tracer = Tracer(seen.append)
        unit = ComputeUnit(UnitDescription(name="u"))
        unit.advance(UnitState.CANCELED, 2.0)
        tracer.watch(unit)
        assert seen == [unit]
        assert tracer.in_flight == {}


@pytest.mark.parametrize("pattern", ["synchronous", "asynchronous"])
def test_run_holds_no_final_unit(pattern, monkeypatch):
    """Each unit reaches the run log once, when final, and leaves the
    tracer as it does: at no sink call does the tracer hold a final
    unit, and after the run it holds none at all."""
    handed = []
    real = ManifestStream.on_unit

    def checked(self, unit):
        assert unit.done
        assert unit.uid not in repex.tracer.in_flight
        assert not any(u.done for u in repex.tracer.in_flight.values())
        handed.append(unit.uid)
        real(self, unit)

    monkeypatch.setattr(ManifestStream, "on_unit", checked)
    config = small_tremd_config(
        n_cycles=3,
        pattern=PatternSpec(kind=pattern),
        failure=FailureSpec(probability=0.3, policy="relaunch"),
    )
    repex = RepEx(config, registry=MetricsRegistry())
    result = repex.run()
    assert repex.tracer.in_flight == {}
    assert len(handed) == len(set(handed)) == result.manifest.n_units > 0
