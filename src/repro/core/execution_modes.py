"""Execution Modes: spatial/temporal mapping of tasks to allocated cores.

Mode I — the pilot has enough cores for every replica at once; the whole
phase is submitted in one burst and barriers when all units finish.

Mode II — the workload exceeds the pilot ("the ability to launch more
replicas then there are allocatable CPU cores", paper Sec. 3.2.3); the
phase is split into waves of ``floor(cores / cores_per_task)`` tasks.
Between waves the agent re-schedules its MPI layout, charged as a small
penalty — this is the "MPI task scheduling issue of RP" that depresses
Mode II efficiency and produces the efficiency uptick at the final,
cores == replicas point of Fig. 11(b).

Both modes integrate a phase's MD units in one batch before anything is
scheduled (:func:`precompute_md`): how a task's numerics run does not
depend on the mode's wave split, nor on which event engine — the SoA
timeline shortcut (:func:`repro.pilot.soa.try_fast_phase`) or the
reference submit/wait path — replays the phase's timeline.
"""

from __future__ import annotations

import abc
from typing import List, Sequence

from repro.md import batch as md_batch
from repro.pilot.pilot import Pilot
from repro.pilot.session import Session
from repro.pilot.soa import try_fast_phase
from repro.pilot.unit import ComputeUnit, UnitDescription

#: Virtual seconds charged per extra wave in Mode II (agent MPI re-layout).
MODE2_WAVE_GAP_S = 12.0

#: Additional per-allocated-core cost of each Mode II wave transition: the
#: agent re-derives the MPI layout for the whole allocation between waves
#: (the "MPI task scheduling issue of RP" the paper blames for the Mode II
#: efficiency dip that vanishes at cores == replicas, Fig. 11b).
MODE2_PER_CORE_WAVE_GAP_S = 0.18


def precompute_md(descriptions: Sequence[UnitDescription]) -> None:
    """Integrate every MD unit of a submission group in one batched pass.

    Runs before any group of MD units is submitted (a phase, the bounded
    barrier's fan-out, an asynchronous launch group).  Each description
    carrying an :class:`~repro.md.batch.MDWork` gets its ``work`` replaced
    by a thunk returning the precomputed result, so the unit still
    produces it at its launch event on either engine.  The batch is
    bit-identical to integrating each unit alone and every task is
    idempotent and per-task seeded, so running it up front changes no
    result.  If the batch raises, ``work`` stays untouched and each unit
    runs (and fails) on its own, exactly as the reference path would.
    """
    batched = [
        d
        for d in descriptions
        if isinstance(d.batch, md_batch.MDWork) and d.work is not None
    ]
    if len(batched) < 2:
        return
    try:
        outs = md_batch.run_md_batch([d.batch for d in batched])
    except Exception:  # noqa: BLE001 - units fail one by one instead
        return
    for d, out in zip(batched, outs):
        d.work = lambda out=out: out


class ExecutionMode(abc.ABC):
    """Strategy for running one phase's task list on a pilot."""

    name: str = "?"

    @abc.abstractmethod
    def run_phase(
        self,
        session: Session,
        pilot: Pilot,
        descriptions: Sequence[UnitDescription],
    ) -> List[ComputeUnit]:
        """Execute all tasks of one phase; returns the finished units."""


class ModeI(ExecutionMode):
    """All tasks concurrent: one burst, one barrier.

    A phase that passes the fast-path gates replays its timeline through
    the SoA shortcut (:func:`repro.pilot.soa.try_fast_phase`) —
    byte-identical results, no per-event dispatch; any other phase runs
    the reference submit/wait path.
    """

    name = "I"

    def run_phase(self, session, pilot, descriptions):
        """Submit everything, wait for the barrier."""
        if not descriptions:
            return []
        precompute_md(descriptions)
        units = try_fast_phase(session, pilot, descriptions)
        if units is not None:
            return units
        units = session.submit_units(pilot, descriptions)
        session.wait_units(units)
        return units


class ModeII(ExecutionMode):
    """Batched waves sized to the pilot; each extra wave costs
    ``MODE2_WAVE_GAP_S + MODE2_PER_CORE_WAVE_GAP_S * pilot cores``."""

    name = "II"

    def run_phase(self, session, pilot, descriptions):
        """Run tasks in waves of whatever fits the pilot at once."""
        if not descriptions:
            return []
        precompute_md(descriptions)
        capacity = pilot.description.cores
        units: List[ComputeUnit] = []
        wave: List[UnitDescription] = []
        wave_cores = 0
        waves: List[List[UnitDescription]] = []
        for desc in descriptions:
            if wave and wave_cores + desc.cores > capacity:
                waves.append(wave)
                wave, wave_cores = [], 0
            wave.append(desc)
            wave_cores += desc.cores
        if wave:
            waves.append(wave)

        gap = MODE2_WAVE_GAP_S + MODE2_PER_CORE_WAVE_GAP_S * capacity
        for i, batch in enumerate(waves):
            if i > 0:
                session.run_for(gap)
            batch_units = try_fast_phase(session, pilot, batch)
            if batch_units is not None:
                units.extend(batch_units)
                continue
            batch_units = session.submit_units(pilot, batch)
            session.wait_units(batch_units)
            units.extend(batch_units)
        return units


def make_mode(name: str) -> ExecutionMode:
    """Instantiate an execution mode by its config name ('I' or 'II')."""
    if name == "I":
        return ModeI()
    if name == "II":
        return ModeII()
    raise ValueError(f"unknown execution mode {name!r}; use 'I' or 'II'")
