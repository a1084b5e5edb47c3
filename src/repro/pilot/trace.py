"""Execution tracing: one record per unit of a simulated run.

RADICAL-Pilot ships a profiler that records per-unit state-transition
timestamps; this is its counterpart.  A :class:`Tracer` attached to a
session (or registered on individual units) keeps one
:class:`TraceRecord` per unit and hands each record to its sinks once,
when the unit reaches a final state.  It analyses nothing itself: the
run manifest (:mod:`repro.obs.manifest`) turns the records into v4 unit
rows, and :mod:`repro.obs.export` and :mod:`repro.obs.critical_path`
answer the timing questions from those rows.

A record does not copy transitions: it holds the unit's own
``timestamps`` dict.  The transition DAG in :mod:`repro.pilot.unit`
enters each state at most once and in order, and a relaunch is a new
unit, so that dict's insertion order already is the transition list.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.pilot.unit import ComputeUnit, FINAL_STATES, UnitState


@dataclass
class TraceRecord:
    """One unit's lifecycle, as views over its state-entry times.

    ``timestamps`` is the unit's own ``state -> entry time`` dict, shared
    rather than copied, so it fills in as the unit advances.  The record
    never references the unit itself, which would keep its MD result and
    ``work`` closure alive for the rest of the run.
    """

    uid: str
    name: str
    cores: int
    metadata: Dict[str, object]
    timestamps: Dict[UnitState, float] = field(default_factory=dict)

    @property
    def transitions(self) -> List[Tuple[str, float]]:
        """``(state, entry time)`` pairs in the order they happened."""
        return [(state.value, t) for state, t in self.timestamps.items()]

    @property
    def final_state(self) -> Optional[str]:
        """Name of the final state reached, if any."""
        for state in reversed(self.timestamps):
            if state in FINAL_STATES:
                return state.value
        return None


class Tracer:
    """Keeps one :class:`TraceRecord` per unit it watches."""

    def __init__(self):
        self.records: Dict[str, TraceRecord] = {}
        self._sinks: List[Callable[[TraceRecord], None]] = []

    def add_sink(self, sink: Callable[[TraceRecord], None]) -> None:
        """Call ``sink(record)`` once per unit, when it reaches a final state.

        A unit that is already final when it is watched, or restored by
        :meth:`load_state`, goes to the sink at once.  This is how
        :class:`~repro.obs.manifest.ManifestStream` writes each unit's
        row while the run is still in flight.  A sink sees the units
        watched after it is added, so add sinks before the run submits
        work.
        """
        self._sinks.append(sink)

    def _emit(self, record: TraceRecord) -> None:
        for sink in self._sinks:
            sink(record)

    def _on_transition(self, unit: ComputeUnit, state: UnitState) -> None:
        if state in FINAL_STATES:
            self._emit(self.records[unit.uid])

    def watch(self, unit: ComputeUnit) -> None:
        """Start recording ``unit``'s transitions (idempotent).

        Recording itself costs nothing per transition; only a tracer
        with sinks registers a per-unit callback, to feed them.
        """
        if unit.uid in self.records:
            return
        description = unit.description
        record = self.records[unit.uid] = TraceRecord(
            uid=unit.uid,
            name=description.name,
            cores=description.cores,
            metadata=dict(description.metadata),
            timestamps=unit.timestamps,
        )
        if self._sinks:
            if unit.done:
                self._emit(record)
            else:
                unit.register_callback(self._on_transition)

    def watch_all(self, units: Sequence[ComputeUnit]) -> None:
        """Watch every unit in ``units``."""
        for u in units:
            self.watch(u)

    # -- checkpointing --------------------------------------------------------

    def state_dict(self, start: int = 0) -> List[Dict]:
        """JSON-safe dump of the records from the ``start``-th on, in
        insertion (creation) order.

        A row is written once and never revised, so every dumped unit
        must already be final; a live one raises ``RuntimeError``.  Uids
        are excluded: they come from a process-global counter and would
        collide on restore into a fresh process.
        """
        rows = []
        for rec in itertools.islice(self.records.values(), start, None):
            if rec.final_state is None:
                raise RuntimeError(
                    f"unit {rec.name!r} is not final; only final units "
                    f"can be dumped"
                )
            rows.append(
                {
                    "name": rec.name,
                    "cores": rec.cores,
                    "metadata": {
                        k: v
                        for k, v in rec.metadata.items()
                        if isinstance(v, (str, int, float, bool, type(None)))
                    },
                    "transitions": rec.transitions,
                }
            )
        return rows

    def load_state(self, records: List[Dict]) -> None:
        """Restore :meth:`state_dict` output under fresh ``ckpt.*`` uids.

        Insertion order is preserved so float-summing analyses
        (phase totals) accumulate in the same order as the uninterrupted
        run.  Every restored unit is final, so each goes to the attached
        sinks at once: a streamed manifest opened before the restore
        still holds the pre-checkpoint units' rows.
        """
        for i, item in enumerate(records):
            uid = f"ckpt.{i:08d}"
            rec = self.records[uid] = TraceRecord(
                uid=uid,
                name=str(item["name"]),
                cores=int(item["cores"]),
                metadata=dict(item.get("metadata", {})),
                timestamps={
                    UnitState(s): float(t) for s, t in item["transitions"]
                },
            )
            self._emit(rec)
