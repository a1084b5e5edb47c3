"""Tests for Execution Modes I and II."""

import pytest

from repro.core.execution_modes import (
    MODE2_PER_CORE_WAVE_GAP_S,
    MODE2_WAVE_GAP_S,
    ModeI,
    ModeII,
    make_mode,
)
from repro.pilot.pilot import PilotDescription
from repro.pilot.session import Session
from repro.pilot.unit import UnitDescription


def run_with_mode(mode, n_units=8, cores=4, duration=10.0, unit_cores=1):
    with Session() as s:
        pilot = s.submit_pilot(
            PilotDescription(resource="small-cluster", cores=cores)
        )
        s.wait_pilot(pilot)
        t0 = s.now
        descs = [
            UnitDescription(name=f"u{i}", cores=unit_cores, duration=duration)
            for i in range(n_units)
        ]
        units = mode.run_phase(s, pilot, descs)
        return units, s.now - t0


class TestModeI:
    def test_all_concurrent(self):
        units, span = run_with_mode(ModeI(), n_units=4, cores=4)
        assert all(u.succeeded for u in units)
        assert span < 2 * 10.0  # one wave only

    def test_empty_phase(self):
        with Session() as s:
            pilot = s.submit_pilot(
                PilotDescription(resource="small-cluster", cores=4)
            )
            s.wait_pilot(pilot)
            assert ModeI().run_phase(s, pilot, []) == []


#: the Mode II penalty per extra wave on the 4-core pilots below
GAP_4 = MODE2_WAVE_GAP_S + MODE2_PER_CORE_WAVE_GAP_S * 4


class TestModeII:
    def test_oversubscribed_runs_in_waves(self):
        units, span = run_with_mode(ModeII(), n_units=8, cores=4)
        assert all(u.succeeded for u in units)
        assert span >= 2 * 10.0 + GAP_4  # two waves of 10 s

    def test_wave_gap_charged(self):
        # 12 s plus 0.18 s per pilot core, once per extra wave
        assert GAP_4 == pytest.approx(12.72)
        _, one_wave = run_with_mode(ModeII(), n_units=4, cores=4)
        for waves in (2, 3):
            _, span = run_with_mode(ModeII(), n_units=4 * waves, cores=4)
            assert span == pytest.approx(
                waves * one_wave + (waves - 1) * GAP_4, abs=1e-6
            )

    def test_multicore_units_batch_correctly(self):
        units, span = run_with_mode(
            ModeII(),
            n_units=4,
            cores=4,
            unit_cores=2,
            duration=10.0,
        )
        assert all(u.succeeded for u in units)
        assert span >= 2 * 10.0 + GAP_4  # 2 units per wave


class TestFactory:
    def test_make_mode(self):
        assert isinstance(make_mode("I"), ModeI)
        assert isinstance(make_mode("II"), ModeII)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_mode("III")
