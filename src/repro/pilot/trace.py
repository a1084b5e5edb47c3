"""Execution tracing: every unit of a run, handed on once it finishes.

RADICAL-Pilot ships a profiler that records per-unit state-transition
timestamps; this is its counterpart.  A :class:`Tracer` attached to a
session (or watching individual units) keeps the units still in flight
and hands each to its sink once, when the unit reaches a final state,
then lets go of it.  It analyses and stores nothing itself: the run's
:class:`~repro.obs.manifest.ManifestStream` turns each finished unit
into its v4 row, and :mod:`repro.obs.export` and
:mod:`repro.obs.critical_path` answer the timing questions from those
rows.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence

from repro.pilot.unit import ComputeUnit


class Tracer:
    """Keeps the watched units in flight; ``sink(unit)`` gets each once,
    at its final state."""

    def __init__(self, sink: Callable[[ComputeUnit], None]):
        self.sink = sink
        #: uid -> unit, for every watched unit not yet final
        self.in_flight: Dict[str, ComputeUnit] = {}

    def _on_final(self, unit: ComputeUnit) -> None:
        del self.in_flight[unit.uid]
        self.sink(unit)

    def watch(self, unit: ComputeUnit) -> None:
        """Hand ``unit`` to the sink when it finishes; at once if it
        already has.  Watching a unit in flight again is a no-op."""
        if unit.done:
            self.sink(unit)
        elif unit.uid not in self.in_flight:
            self.in_flight[unit.uid] = unit
            unit.on_final(self._on_final)

    def watch_all(self, units: Sequence[ComputeUnit]) -> None:
        """Watch every unit in ``units``."""
        for u in units:
            self.watch(u)
