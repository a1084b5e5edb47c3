"""Execution tracing: unit-level timelines from a simulated run.

RADICAL-Pilot ships a profiler that records per-unit state-transition
timestamps; this is its counterpart.  A :class:`Tracer` attached to a
session (or registered on individual units) keeps one record per unit,
from which it derives:

* the full unit timeline (for post-mortem inspection or plotting),
* a core-concurrency profile over virtual time (how many cores were busy),
* aggregate per-state dwell times (where the time actually went).

A record does not copy transitions: it holds the unit's own
``timestamps`` dict.  The transition DAG in :mod:`repro.pilot.unit`
enters each state at most once and in order, and a relaunch is a new
unit, so that dict's insertion order already is the transition list.

Used by ``examples/trace_timeline.py`` and available to users debugging
their own workloads.
"""

from __future__ import annotations

import itertools
import json
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

    def _left_at(self, state: UnitState) -> Optional[float]:
        """Entry time of the state entered after ``state``, if any."""
        entries = iter(self.timestamps.items())
        for entered, _ in entries:
            if entered is state:
                for _, t in entries:
                    return t
                return None
        return None

    def dwell(self, state: UnitState) -> float:
        """Virtual seconds spent in ``state`` (0 if never entered)."""
        t1 = self._left_at(state)
        return 0.0 if t1 is None else t1 - self.timestamps[state]

    def interval(self, state: UnitState) -> Optional[Tuple[float, float]]:
        """(enter, leave) times of ``state``, or None."""
        t1 = self._left_at(state)
        return None if t1 is None else (self.timestamps[state], t1)


class Tracer:
    """Keeps one :class:`TraceRecord` per unit it watches."""

    def __init__(self):
        self.records: Dict[str, TraceRecord] = {}
        self._sinks: List[Callable[[str, str, float], None]] = []

    def add_sink(self, sink: Callable[[str, str, float], None]) -> None:
        """Stream transitions: ``sink(unit_name, state, t)`` per event.

        Sinks fire as transitions happen (in causal order, not the
        sorted order of the manifest timeline) — this is how
        :class:`~repro.obs.manifest.ManifestStream` flushes a manifest
        incrementally while the run is still in flight.  A sink sees the
        units watched after it is added, so add sinks before the run
        submits work.
        """
        self._sinks.append(sink)

    def _on_transition(self, unit: ComputeUnit, state) -> None:
        t = unit.timestamps[state]
        name = unit.description.name
        for sink in self._sinks:
            sink(name, state.value, t)

    def watch(self, unit: ComputeUnit) -> None:
        """Start recording ``unit``'s transitions (idempotent).

        Recording itself costs nothing per transition; only a tracer
        with sinks registers a per-unit callback, to feed them.
        """
        if unit.uid in self.records:
            return
        description = unit.description
        self.records[unit.uid] = TraceRecord(
            uid=unit.uid,
            name=description.name,
            cores=description.cores,
            metadata=dict(description.metadata),
            timestamps=unit.timestamps,
        )
        if self._sinks:
            # transitions that already happened
            for state, t in unit.timestamps.items():
                for sink in self._sinks:
                    sink(description.name, state.value, t)
            unit.register_callback(self._on_transition)

    def watch_all(self, units: Sequence[ComputeUnit]) -> None:
        """Watch every unit in ``units``."""
        for u in units:
            self.watch(u)

    # -- analyses ------------------------------------------------------------

    def concurrency_profile(self) -> List[Tuple[float, int]]:
        """Piecewise-constant busy-core count over virtual time.

        Returns (time, cores_busy_after_time) change points sorted by time.
        """
        events: List[Tuple[float, int]] = []
        for rec in self.records.values():
            span = rec.interval(UnitState.EXECUTING)
            if span is None:
                continue
            events.append((span[0], rec.cores))
            events.append((span[1], -rec.cores))
        events.sort()
        profile = []
        busy = 0
        for t, delta in events:
            busy += delta
            if profile and profile[-1][0] == t:
                profile[-1] = (t, busy)
            else:
                profile.append((t, busy))
        return profile

    def peak_concurrency(self) -> int:
        """Maximum simultaneously busy cores."""
        return max((c for _, c in self.concurrency_profile()), default=0)

    def state_totals(self) -> Dict[str, float]:
        """Aggregate dwell time per state across all units."""
        totals: Dict[str, float] = {}
        for rec in self.records.values():
            for state in UnitState:
                d = rec.dwell(state)
                if d > 0:
                    totals[state.value] = totals.get(state.value, 0.0) + d
        return totals

    def busy_core_seconds(self) -> float:
        """Total EXECUTING core-seconds across all watched units."""
        return sum(
            rec.dwell(UnitState.EXECUTING) * rec.cores
            for rec in self.records.values()
        )

    def gantt(
        self,
        *,
        width: int = 72,
        max_rows: int = 40,
    ) -> str:
        """ASCII Gantt chart of unit lifetimes.

        Per unit: ``.`` = waiting/staging, ``#`` = executing.  Units are
        sorted by execution start; at most ``max_rows`` are shown.
        """
        recs = [
            r
            for r in self.records.values()
            if r.interval(UnitState.EXECUTING) is not None
        ]
        if not recs:
            return "(no executed units)"
        recs.sort(key=lambda r: r.interval(UnitState.EXECUTING)[0])
        t0 = min(r.transitions[0][1] for r in recs)
        t1 = max(
            r.interval(UnitState.EXECUTING)[1] for r in recs
        )
        span = max(t1 - t0, 1e-9)

        def col(t):
            return min(
                width - 1, max(0, int((t - t0) / span * (width - 1)))
            )

        name_w = max(len(r.name) for r in recs[:max_rows])
        lines = [f"t = {t0:.1f} .. {t1:.1f} s"]
        for rec in recs[:max_rows]:
            row = [" "] * width
            start = rec.transitions[0][1]
            exec_lo, exec_hi = rec.interval(UnitState.EXECUTING)
            for c in range(col(start), col(exec_lo)):
                row[c] = "."
            for c in range(col(exec_lo), col(exec_hi) + 1):
                row[c] = "#"
            lines.append(f"{rec.name.rjust(name_w)} |{''.join(row)}|")
        if len(recs) > max_rows:
            lines.append(f"... {len(recs) - max_rows} more units")
        return "\n".join(lines)

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
        run.  Transitions are replayed through any attached sinks, so a
        streamed manifest opened before the restore still receives the
        pre-checkpoint events.
        """
        for i, item in enumerate(records):
            uid = f"ckpt.{i:08d}"
            rec = TraceRecord(
                uid=uid,
                name=str(item["name"]),
                cores=int(item["cores"]),
                metadata=dict(item.get("metadata", {})),
                timestamps={
                    UnitState(s): float(t) for s, t in item["transitions"]
                },
            )
            self.records[uid] = rec
            for state, t in rec.transitions:
                for sink in self._sinks:
                    sink(rec.name, state, t)

    # -- export ---------------------------------------------------------------

    def to_json(self) -> str:
        """Serialize all records (for external timeline viewers)."""
        payload = [
            {
                "uid": rec.uid,
                "name": rec.name,
                "cores": rec.cores,
                "metadata": {
                    k: v
                    for k, v in rec.metadata.items()
                    if isinstance(v, (str, int, float, bool, type(None)))
                },
                "transitions": rec.transitions,
            }
            for rec in self.records.values()
        ]
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "Tracer":
        """Rebuild a tracer's records from :meth:`to_json` output."""
        tracer = cls()
        for item in json.loads(text):
            tracer.records[item["uid"]] = TraceRecord(
                uid=item["uid"],
                name=item["name"],
                cores=item["cores"],
                metadata=item.get("metadata", {}),
                timestamps={
                    UnitState(s): t for s, t in item["transitions"]
                },
            )
        return tracer
