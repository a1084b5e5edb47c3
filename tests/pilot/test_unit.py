"""Tests for compute units and their state machine."""

import gc
import weakref

import pytest

from repro.pilot.unit import (
    ComputeUnit,
    FINAL_STATES,
    UnitDescription,
    UnitState,
    UnitStateError,
)


def make_unit(**kwargs):
    defaults = dict(name="t", cores=1, duration=1.0)
    defaults.update(kwargs)
    return ComputeUnit(UnitDescription(**defaults))


class TestUnitDescription:
    def test_rejects_bad_cores(self):
        with pytest.raises(ValueError):
            UnitDescription(name="t", cores=0)

    def test_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            UnitDescription(name="t", duration=-1.0)

    def test_metadata_defaults_empty(self):
        assert UnitDescription(name="t").metadata == {}


class TestStateMachine:
    def test_initial_state_new(self):
        assert make_unit().state is UnitState.NEW

    def test_happy_path(self):
        u = make_unit()
        path = [
            UnitState.SCHEDULING,
            UnitState.STAGING_INPUT,
            UnitState.AGENT_EXECUTING_PENDING,
            UnitState.EXECUTING,
            UnitState.STAGING_OUTPUT,
            UnitState.DONE,
        ]
        for t, state in enumerate(path):
            u.advance(state, float(t))
        assert u.succeeded
        assert u.done

    def test_illegal_transition_raises(self):
        u = make_unit()
        with pytest.raises(UnitStateError):
            u.advance(UnitState.EXECUTING, 0.0)

    def test_no_transition_from_final(self):
        u = make_unit()
        u.advance(UnitState.CANCELED, 0.0)
        with pytest.raises(UnitStateError):
            u.advance(UnitState.SCHEDULING, 1.0)

    def test_fail_from_executing(self):
        u = make_unit()
        u.advance(UnitState.SCHEDULING, 0.0)
        u.advance(UnitState.STAGING_INPUT, 1.0)
        u.advance(UnitState.AGENT_EXECUTING_PENDING, 2.0)
        u.advance(UnitState.EXECUTING, 3.0)
        u.advance(UnitState.FAILED, 4.0)
        assert u.done and not u.succeeded

    def test_unique_uids(self):
        assert make_unit().uid != make_unit().uid


class TestTimestampsAndSpans:
    def _run(self):
        u = make_unit()
        u.advance(UnitState.SCHEDULING, 0.0)
        u.advance(UnitState.STAGING_INPUT, 1.0)
        u.advance(UnitState.AGENT_EXECUTING_PENDING, 3.0)
        u.advance(UnitState.EXECUTING, 4.0)
        u.advance(UnitState.STAGING_OUTPUT, 14.0)
        u.advance(UnitState.DONE, 15.5)
        return u

    def test_staging_times(self):
        u = self._run()
        assert u.staging_in_time == pytest.approx(2.0)
        assert u.staging_out_time == pytest.approx(1.5)
        assert u.data_time == pytest.approx(3.5)

    def test_launch_overhead(self):
        u = self._run()
        # SCHEDULING->STAGING (1.0) + PENDING->EXECUTING (1.0)
        assert u.launch_overhead == pytest.approx(2.0)

    def test_execution_time(self):
        u = self._run()
        assert u.execution_time == pytest.approx(10.0)

    def test_start_end(self):
        u = self._run()
        assert u.start_time == 4.0
        assert u.end_time == 15.5

    def test_incomplete_spans_zero(self):
        u = make_unit()
        assert u.execution_time == 0.0
        assert u.data_time == 0.0
        assert u.end_time is None


class TestCallbacks:
    def test_on_final_fires_once_at_final_state(self):
        u = make_unit()
        seen = []
        u.on_final(lambda unit: seen.append(("first", unit.state)))
        u.on_final(lambda unit: seen.append(("second", unit.state)))
        u.advance(UnitState.SCHEDULING, 0.0)
        assert seen == []
        u.advance(UnitState.CANCELED, 1.0)
        # once each, in registration order, with the final state set
        assert seen == [
            ("first", UnitState.CANCELED),
            ("second", UnitState.CANCELED),
        ]
        late = []
        u.on_final(late.append)  # already final: never runs
        assert late == []

    def test_on_final_callbacks_are_dropped_once_run(self):
        """A finished unit keeps no callback (and no closure) alive."""

        class Sink:
            def __call__(self, unit):
                pass

        u = make_unit()
        sink = Sink()
        ref = weakref.ref(sink)
        u.on_final(sink)
        del sink
        u.advance(UnitState.CANCELED, 1.0)
        gc.collect()
        assert ref() is None

    def test_final_states_set(self):
        assert UnitState.DONE in FINAL_STATES
        assert UnitState.FAILED in FINAL_STATES
        assert UnitState.CANCELED in FINAL_STATES
        assert UnitState.EXECUTING not in FINAL_STATES
