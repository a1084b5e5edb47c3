"""Execution tracing: unit-level timelines from a simulated run.

RADICAL-Pilot ships a profiler that records per-unit state-transition
timestamps; this is its counterpart.  A :class:`Tracer` attached to a
session (or registered on individual units) collects every state
transition, from which it derives:

* the full unit timeline (for post-mortem inspection or plotting),
* a core-concurrency profile over virtual time (how many cores were busy),
* aggregate per-state dwell times (where the time actually went).

Used by ``examples/trace_timeline.py`` and available to users debugging
their own workloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.pilot.unit import ComputeUnit, FINAL_STATES, UnitState


@dataclass
class TraceRecord:
    """All state-transition timestamps of one unit."""

    uid: str
    name: str
    cores: int
    metadata: Dict[str, object]
    transitions: List[Tuple[str, float]] = field(default_factory=list)

    @property
    def final_state(self) -> Optional[str]:
        """Name of the final state reached, if any."""
        for state, _ in reversed(self.transitions):
            if UnitState(state) in FINAL_STATES:
                return state
        return None

    def dwell(self, state: UnitState) -> float:
        """Virtual seconds spent in ``state`` (0 if never entered)."""
        for i, (name, t0) in enumerate(self.transitions):
            if name == state.value:
                if i + 1 < len(self.transitions):
                    return self.transitions[i + 1][1] - t0
                return 0.0
        return 0.0

    def interval(self, state: UnitState) -> Optional[Tuple[float, float]]:
        """(enter, leave) times of ``state``, or None."""
        for i, (name, t0) in enumerate(self.transitions):
            if name == state.value and i + 1 < len(self.transitions):
                return (t0, self.transitions[i + 1][1])
        return None


class Tracer:
    """Collects state transitions from the units it watches."""

    def __init__(self):
        self.records: Dict[str, TraceRecord] = {}
        self._sinks: List[Callable[[str, str, float], None]] = []

    def add_sink(self, sink: Callable[[str, str, float], None]) -> None:
        """Stream transitions: ``sink(unit_name, state, t)`` per event.

        Sinks fire as transitions happen (in causal order, not the
        sorted order of :meth:`timeline`) — this is how
        :class:`~repro.obs.manifest.ManifestStream` flushes a manifest
        incrementally while the run is still in flight.
        """
        self._sinks.append(sink)

    def _on_transition(self, unit: ComputeUnit, state) -> None:
        t = unit.timestamps[state]
        self.records[unit.uid].transitions.append((state.value, t))
        name = unit.description.name
        for sink in self._sinks:
            sink(name, state.value, t)

    def watch(self, unit: ComputeUnit) -> None:
        """Start recording ``unit``'s transitions (idempotent)."""
        if unit.uid in self.records:
            return
        record = TraceRecord(
            uid=unit.uid,
            name=unit.description.name,
            cores=unit.description.cores,
            metadata=dict(unit.description.metadata),
        )
        # transitions that already happened
        for state, t in sorted(unit.timestamps.items(), key=lambda kv: kv[1]):
            record.transitions.append((state.value, t))
            for sink in self._sinks:
                sink(record.name, state.value, t)
        self.records[unit.uid] = record
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

    def timeline(self) -> List[List]:
        """Event-ordered ``[time, unit_name, state]`` triples.

        Times are rounded to microseconds and ties are broken by unit
        name then state, so the result is byte-stable across runs of the
        same seeded workload regardless of uid allocation order — this is
        what the golden-trace regression fixtures are diffed against.
        """
        events: List[Tuple[float, str, str]] = []
        for rec in self.records.values():
            for state, t in rec.transitions:
                events.append((round(t, 6), rec.name, state))
        events.sort()
        return [[t, name, state] for t, name, state in events]

    def unit_meta(self) -> List[Dict]:
        """Per-unit metadata in manifest form, sorted by unit name.

        One dict per watched unit with the fields the trace analytics
        need to attribute timeline intervals: ``name``, ``cores``, the
        metadata ``phase``/``rid``/``cycle`` tags, and the final state.
        Unit uids are deliberately excluded — they come from a global
        counter and would break byte-stable manifests.
        """
        metas = []
        for rec in self.records.values():
            metas.append(
                {
                    "name": rec.name,
                    "cores": rec.cores,
                    "phase": rec.metadata.get("phase"),
                    "rid": rec.metadata.get("rid"),
                    "cycle": rec.metadata.get("cycle"),
                    "final_state": rec.final_state,
                }
            )
        metas.sort(key=lambda m: m["name"])
        return metas

    # -- checkpointing --------------------------------------------------------

    def state_dict(self) -> List[Dict]:
        """JSON-safe dump of every record, in insertion (creation) order.

        Uids are excluded: they come from a process-global counter and
        would collide on restore into a fresh process.
        """
        return [
            {
                "name": rec.name,
                "cores": rec.cores,
                "metadata": {
                    k: v
                    for k, v in rec.metadata.items()
                    if isinstance(v, (str, int, float, bool, type(None)))
                },
                "transitions": [[s, t] for s, t in rec.transitions],
            }
            for rec in self.records.values()
        ]

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
                transitions=[
                    (str(s), float(t)) for s, t in item["transitions"]
                ],
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
                transitions=[tuple(t) for t in item["transitions"]],
            )
        return tracer
