"""Simulated pilot-job runtime (RADICAL-Pilot substitute).

A discrete-event simulation of an HPC cluster plus a pilot-job layer whose
API mirrors RADICAL-Pilot: ``Session`` -> ``PilotDescription``/``Pilot`` ->
``UnitDescription``/``ComputeUnit``.  See DESIGN.md section 2 for why this
substitution preserves the behaviours the paper measures.
"""

from repro.pilot.cluster import (
    ClusterSpec,
    FilesystemModel,
    LaunchOverheadModel,
    QueueModel,
    get_cluster,
    small_cluster,
    stampede,
    supermic,
)
from repro.pilot.events import Event, EventQueue, SimulationError
from repro.pilot.failures import FailureModel, NO_FAILURES, UnitFailure
from repro.pilot.faultdomain import (
    FaultDomainModel,
    FaultEvent,
    TransientFaultModel,
)
from repro.pilot.pilot import Pilot, PilotDescription, PilotState
from repro.pilot.scheduler import AgentScheduler, SchedulerError
from repro.pilot.session import PilotManager, Session, UnitManager
from repro.pilot.trace import Tracer
from repro.pilot.staging import (
    StagingAction,
    StagingDirective,
    total_staging_size,
)
from repro.pilot.unit import (
    ComputeUnit,
    FINAL_STATES,
    UnitDescription,
    UnitState,
    UnitStateError,
)

__all__ = [
    "AgentScheduler",
    "ClusterSpec",
    "ComputeUnit",
    "Event",
    "EventQueue",
    "FailureModel",
    "FaultDomainModel",
    "FaultEvent",
    "FilesystemModel",
    "FINAL_STATES",
    "LaunchOverheadModel",
    "NO_FAILURES",
    "Pilot",
    "PilotDescription",
    "PilotManager",
    "PilotState",
    "QueueModel",
    "SchedulerError",
    "Session",
    "SimulationError",
    "StagingAction",
    "StagingDirective",
    "Tracer",
    "TransientFaultModel",
    "UnitDescription",
    "UnitFailure",
    "UnitManager",
    "UnitState",
    "UnitStateError",
    "get_cluster",
    "small_cluster",
    "stampede",
    "supermic",
    "total_staging_size",
]
