"""Session: the user-facing entry point of the simulated pilot runtime.

Mirrors RADICAL-Pilot's ``Session`` / ``PilotManager`` / ``UnitManager``
split closely enough that the RepEx EMM code reads like real RP client
code, while everything underneath runs on the virtual clock.

Supports multiple concurrent pilots, which is how the paper's future-work
item "RepEx can be extended to use multiple HPC resources simultaneously
for a single REMD simulation" is realized here (see
``examples/multi_cluster.py``).

A session is a *value*, not the process root: it can be handed an
externally owned clock and metrics registry, so several sessions can
coexist in one process (the campaign arbiter of ``repro.campaign`` owns
dozens) without sharing any mutable module-level state.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry
from repro.pilot.events import EventQueue, SimulatedCrash, SimulationError
from repro.pilot.failures import FailureModel
from repro.pilot.pilot import Pilot, PilotDescription, PilotState
from repro.pilot.trace import Tracer
from repro.pilot.unit import ComputeUnit, UnitDescription


class Session:
    """Owns the virtual clock and all pilots.

    Parameters
    ----------
    clock:
        An externally owned :class:`EventQueue` to schedule on; a fresh
        one is created when omitted (the single-session default).
    registry:
        The metrics registry this session's components record into; a
        fresh one is created when omitted.  The session binds it to its
        clock, so a registry serves one session: one already bound is
        refused with :class:`~repro.obs.metrics.MetricError`.
    """

    def __init__(
        self,
        seed: int = 0,
        failure_model: Optional[FailureModel] = None,
        fault_domain=None,
        watchdog=None,
        *,
        clock: Optional[EventQueue] = None,
        registry=None,
    ):
        self.clock = clock if clock is not None else EventQueue()
        #: the registry this session's stack records into, on its clock
        self.registry = registry if registry is not None else MetricsRegistry()
        self.registry.bind_clock(self.clock)
        self.failure_model = failure_model
        #: correlated-fault injector handed to every pilot (None = off)
        self.fault_domain = fault_domain
        #: gray-failure watchdog handed to every pilot (None = off)
        self.watchdog = watchdog
        self.pilots: List[Pilot] = []
        #: optional tracer auto-watching every unit submitted through this
        #: session (set by :class:`~repro.core.framework.RepEx` when
        #: observability is enabled)
        self.tracer: Optional[Tracer] = None
        # Session-scoped pilot naming: the first pilot of *any* session is
        # "pilot.0000", so uids are reproducible regardless of how many
        # sessions ran earlier in the process.
        self._pilot_seq = 0
        self._closed = False

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.clock.now

    @property
    def closed(self) -> bool:
        """True once :meth:`close` ran; the session accepts no more work."""
        return self._closed

    # -- pilot management ----------------------------------------------------

    def submit_pilot(self, description: PilotDescription) -> Pilot:
        """Create and launch a pilot; returns immediately (pilot PENDING)."""
        self._check_open()
        pilot = Pilot(
            description,
            clock=self.clock,
            failure_model=self.failure_model,
            fault_domain=self.fault_domain,
            watchdog=self.watchdog,
            uid=f"pilot.{self._pilot_seq:04d}",
            registry=self.registry,
        )
        self._pilot_seq += 1
        self.pilots.append(pilot)
        pilot.launch()
        return pilot

    def wait_pilot(self, pilot: Pilot, state: PilotState = PilotState.ACTIVE) -> None:
        """Drive the clock until ``pilot`` reaches ``state``."""
        self._check_open()
        self.clock.run_until(lambda: pilot.state is state)

    # -- unit management -----------------------------------------------------

    def submit_units(
        self,
        pilot: Pilot,
        descriptions: Sequence[UnitDescription],
    ) -> List[ComputeUnit]:
        """Submit unit descriptions to one pilot."""
        self._check_open()
        units = pilot.submit_units(list(descriptions))
        if self.tracer is not None:
            self.tracer.watch_all(units)
        return units

    def submit_units_round_robin(
        self,
        pilots: Sequence[Pilot],
        descriptions: Sequence[UnitDescription],
    ) -> List[ComputeUnit]:
        """Distribute units across several pilots (multi-resource execution)."""
        self._check_open()
        if not pilots:
            raise ValueError("need at least one pilot")
        units: List[ComputeUnit] = []
        for i, desc in enumerate(descriptions):
            units.extend(pilots[i % len(pilots)].submit_units([desc]))
        if self.tracer is not None:
            self.tracer.watch_all(units)
        return units

    def wait_units(self, units: Iterable[ComputeUnit]) -> None:
        """Drive the clock until every unit reaches a final state.

        Scales O(events + units): instead of re-scanning every unit per
        event (quadratic at the paper's 1000-replica barriers), each
        pending unit decrements a countdown when it reaches a final
        state — final states have no outgoing transitions, so each unit
        fires the countdown exactly once.
        """
        self._check_open()
        pending = [u for u in units if not u.done]
        if not pending:
            return
        remaining = [len(pending)]

        def _on_final(_unit: ComputeUnit) -> None:
            remaining[0] -= 1

        for unit in pending:
            unit.on_final(_on_final)
        self.clock.run_until(lambda: remaining[0] == 0)

    def schedule_crash(self, at_time: float):
        """Arm a :class:`SimulatedCrash` at virtual time ``at_time``.

        The crash is an ordinary clock event whose callback raises, so it
        propagates out of whatever loop is driving the clock — modelling
        the process being killed mid-run for crash/resume testing.  Times
        already in the past fire at the next event-loop step.
        """
        self._check_open()
        t = max(float(at_time), self.clock.now)

        def _crash() -> None:
            raise SimulatedCrash(
                f"simulated crash at t={self.clock.now:g}s"
            )

        return self.clock.schedule_at(t, _crash)

    def run_for(self, seconds: float) -> None:
        """Advance the simulation by ``seconds`` of virtual time.

        Events due within the window fire; the clock ends exactly at
        ``now + seconds`` even if the queue empties earlier.
        """
        self._check_open()
        deadline = self.clock.now + float(seconds)
        while True:
            next_t = self.clock.next_event_time()
            if next_t is None or next_t > deadline:
                break
            self.clock.step()
        self.clock.advance_to(deadline)

    # -- teardown --------------------------------------------------------------

    def close(self) -> None:
        """Cancel all pilots; the session cannot be used afterwards."""
        if self._closed:
            return
        for pilot in self.pilots:
            pilot.cancel()
        self._closed = True

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SimulationError("session is closed")


class PilotManager:
    """Thin RP-API-shaped wrapper over :class:`Session` pilot methods."""

    def __init__(self, session: Session):
        self.session = session

    def submit_pilots(self, descriptions) -> List[Pilot]:
        """Submit one or many pilot descriptions."""
        if isinstance(descriptions, PilotDescription):
            descriptions = [descriptions]
        return [self.session.submit_pilot(d) for d in descriptions]

    def wait_pilots(self, pilots, state: PilotState = PilotState.ACTIVE) -> None:
        """Wait for pilots to reach ``state``."""
        if isinstance(pilots, Pilot):
            pilots = [pilots]
        for p in pilots:
            self.session.wait_pilot(p, state)


class UnitManager:
    """Thin RP-API-shaped wrapper binding pilots to unit submission."""

    def __init__(self, session: Session):
        self.session = session
        self._pilots: List[Pilot] = []

    def add_pilots(self, pilots) -> None:
        """Attach pilots this manager schedules onto."""
        if isinstance(pilots, Pilot):
            pilots = [pilots]
        self._pilots.extend(pilots)

    def submit_units(self, descriptions) -> List[ComputeUnit]:
        """Submit descriptions round-robin across attached pilots."""
        if not self._pilots:
            raise RuntimeError("no pilots attached to this UnitManager")
        if isinstance(descriptions, UnitDescription):
            descriptions = [descriptions]
        return self.session.submit_units_round_robin(self._pilots, descriptions)

    def wait_units(self, units) -> None:
        """Block (in virtual time) until all units are final."""
        if isinstance(units, ComputeUnit):
            units = [units]
        self.session.wait_units(units)
