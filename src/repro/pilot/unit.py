"""Compute units: the tasks a pilot executes.

Mirrors RADICAL-Pilot's ComputeUnitDescription / ComputeUnit pair.  A unit
carries two things the real system keeps separate:

* ``duration`` — the virtual-clock cost of the task, produced by the
  performance model (``repro.md.perfmodel``) from the task description, and
* ``work`` — an optional Python callable holding the *actual numerics*
  (e.g. running the toy MD engine, computing an exchange matrix).  ``work``
  executes in-process when the unit starts executing; its result is stored
  on the unit.

This "one code path, two time domains" design is decision 1 in DESIGN.md.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.pilot.staging import StagingDirective

_uid_counter = itertools.count()


def _next_uid(prefix: str) -> str:
    return f"{prefix}.{next(_uid_counter):08d}"


class UnitState(enum.Enum):
    """Lifecycle states of a compute unit (subset of RP's state model).

    Members are interned singletons, so identity hashing is sound; the
    default ``Enum.__hash__`` (a Python-level hash of the member name)
    shows up hot in scheduler profiles because every state-set lookup in
    ``_TRANSITIONS``/``FINAL_STATES`` pays it.
    """

    __hash__ = object.__hash__

    NEW = "NEW"
    SCHEDULING = "SCHEDULING"
    STAGING_INPUT = "STAGING_INPUT"
    AGENT_EXECUTING_PENDING = "AGENT_EXECUTING_PENDING"
    EXECUTING = "EXECUTING"
    STAGING_OUTPUT = "STAGING_OUTPUT"
    DONE = "DONE"
    FAILED = "FAILED"
    CANCELED = "CANCELED"


#: States from which no further transition is possible.
FINAL_STATES = frozenset(
    {UnitState.DONE, UnitState.FAILED, UnitState.CANCELED}
)

#: Legal state transitions; anything else is a scheduler bug.
_TRANSITIONS = {
    UnitState.NEW: {UnitState.SCHEDULING, UnitState.CANCELED},
    # SCHEDULING -> FAILED covers correlated faults (node crash shrinking
    # capacity below the unit's core request, pilot preemption draining
    # the queue); likewise AGENT_EXECUTING_PENDING -> FAILED.
    UnitState.SCHEDULING: {
        UnitState.STAGING_INPUT,
        UnitState.FAILED,
        UnitState.CANCELED,
    },
    UnitState.STAGING_INPUT: {
        UnitState.AGENT_EXECUTING_PENDING,
        UnitState.FAILED,
        UnitState.CANCELED,
    },
    UnitState.AGENT_EXECUTING_PENDING: {
        UnitState.EXECUTING,
        UnitState.FAILED,
        UnitState.CANCELED,
    },
    UnitState.EXECUTING: {
        UnitState.STAGING_OUTPUT,
        UnitState.FAILED,
        UnitState.CANCELED,
    },
    UnitState.STAGING_OUTPUT: {
        UnitState.DONE,
        UnitState.FAILED,
        UnitState.CANCELED,
    },
    UnitState.DONE: set(),
    UnitState.FAILED: set(),
    UnitState.CANCELED: set(),
}


class UnitStateError(RuntimeError):
    """Raised on an illegal unit state transition."""


@dataclass
class UnitDescription:
    """Everything needed to schedule, stage and execute one task.

    Parameters
    ----------
    name:
        Human-readable label, e.g. ``"md.cycle3.replica42"``.
    cores:
        Number of CPU cores the task occupies while executing.
    duration:
        Virtual execution time in seconds (from the performance model).
    work:
        Optional callable executed in-process at execution start; its return
        value becomes ``unit.result``.  Exceptions mark the unit FAILED.
    input_staging / output_staging:
        Staging directives charged against the filesystem model.
    metadata:
        Free-form tags (phase, replica id, cycle, exchange dimension, ...).
    """

    name: str
    cores: int = 1
    duration: float = 0.0
    work: Optional[Callable[[], Any]] = None
    input_staging: List[StagingDirective] = field(default_factory=list)
    output_staging: List[StagingDirective] = field(default_factory=list)
    metadata: Dict[str, Any] = field(default_factory=dict)
    #: GPUs held while executing (the paper's GPU-support extension)
    gpus: int = 0
    #: Optional batchable-work descriptor (e.g. ``repro.md.batch.MDWork``).
    #: The execution mode runs every unit of a phase carrying one in a
    #: single vectorised pass before scheduling and swaps each unit's
    #: ``work`` for a thunk returning its precomputed result; the schedulers
    #: themselves only ever call ``work``.
    batch: Optional[Any] = None

    def __post_init__(self):
        if self.cores <= 0:
            raise ValueError(f"cores must be > 0, got {self.cores}")
        if self.duration < 0:
            raise ValueError(f"duration must be >= 0, got {self.duration}")
        if self.gpus < 0:
            raise ValueError(f"gpus must be >= 0, got {self.gpus}")


class ComputeUnit:
    """A scheduled instance of a :class:`UnitDescription`.

    Records a timestamp for every state entered, from which the timing
    decomposition of Eq. 1 of the paper is reconstructed:

    * data time  = time spent in STAGING_INPUT + STAGING_OUTPUT
    * RP overhead = time in SCHEDULING + AGENT_EXECUTING_PENDING
    * execution  = time in EXECUTING
    """

    def __init__(self, description: UnitDescription):
        self.uid: str = _next_uid("unit")
        self.description = description
        self.state: UnitState = UnitState.NEW
        #: state -> virtual time the state was entered
        self.timestamps: Dict[UnitState, float] = {}
        self.result: Any = None
        self.exception: Optional[BaseException] = None
        self._done = False
        self._final_callbacks: List[Callable[["ComputeUnit"], None]] = []

    # -- state machine -----------------------------------------------------

    def advance(self, state: UnitState, now: float) -> None:
        """Move to ``state`` at virtual time ``now``.

        Raises
        ------
        UnitStateError
            If the transition is not legal.
        """
        if state not in _TRANSITIONS[self.state]:
            raise UnitStateError(
                f"{self.uid}: illegal transition {self.state.value} -> {state.value}"
            )
        self.state = state
        self.timestamps[state] = now
        if state in FINAL_STATES:
            self._done = True
            callbacks, self._final_callbacks = self._final_callbacks, []
            for cb in callbacks:
                cb(self)

    def on_final(self, callback: Callable[["ComputeUnit"], None]) -> None:
        """Invoke ``callback(unit)`` once, when the unit enters a final state.

        Callbacks run in registration order and are dropped once run, so
        a finished unit keeps none of their closures alive.  Registered
        on a unit that is already final, ``callback`` never runs.
        """
        self._final_callbacks.append(callback)

    # -- convenience -------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the unit reached a final state."""
        return self._done

    @property
    def succeeded(self) -> bool:
        """True iff the unit finished in DONE."""
        return self.state is UnitState.DONE

    def _span(self, start: UnitState, end: UnitState) -> float:
        t0 = self.timestamps.get(start)
        t1 = self.timestamps.get(end)
        if t0 is None or t1 is None:
            return 0.0
        return max(0.0, t1 - t0)

    @property
    def staging_in_time(self) -> float:
        """Virtual seconds spent staging inputs."""
        return self._span(UnitState.STAGING_INPUT, UnitState.AGENT_EXECUTING_PENDING)

    @property
    def staging_out_time(self) -> float:
        """Virtual seconds spent staging outputs."""
        return self._span(UnitState.STAGING_OUTPUT, UnitState.DONE)

    @property
    def data_time(self) -> float:
        """Total staging (``T_data`` contribution of this unit)."""
        return self.staging_in_time + self.staging_out_time

    @property
    def launch_overhead(self) -> float:
        """Agent launch delay (``T_RP_over`` contribution of this unit)."""
        sched = self._span(UnitState.SCHEDULING, UnitState.STAGING_INPUT)
        pend = self._span(UnitState.AGENT_EXECUTING_PENDING, UnitState.EXECUTING)
        return sched + pend

    @property
    def execution_time(self) -> float:
        """Virtual seconds in EXECUTING."""
        return self._span(UnitState.EXECUTING, UnitState.STAGING_OUTPUT)

    @property
    def start_time(self) -> Optional[float]:
        """Virtual time execution started, if it did."""
        return self.timestamps.get(UnitState.EXECUTING)

    @property
    def end_time(self) -> Optional[float]:
        """Virtual time the unit reached its final state, if it did."""
        for state in FINAL_STATES:
            if state in self.timestamps:
                return self.timestamps[state]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ComputeUnit({self.uid}, {self.description.name!r}, "
            f"state={self.state.value})"
        )
