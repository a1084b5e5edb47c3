"""Pilots: placeholder jobs that acquire resources and run tasks.

"The Pilot-Job concept was originally introduced to reduce queue waiting
times ... the two most important [capabilities] are: management of
dynamically varying resources and execution of dynamic workloads" (paper,
Section 3.2.2).  A pilot here goes through the batch queue of its simulated
cluster, becomes ACTIVE, and then schedules compute units onto the cores it
holds until it is cancelled or its walltime expires.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.pilot.cluster import ClusterSpec, get_cluster
from repro.pilot.events import EventQueue
from repro.pilot.failures import FailureModel
from repro.pilot.scheduler import AgentScheduler, SchedulerError
from repro.pilot.unit import ComputeUnit, UnitDescription

_pilot_counter = itertools.count()


class PilotState(enum.Enum):
    """Lifecycle of a pilot job."""

    NEW = "NEW"
    PENDING = "PENDING"  # waiting in the batch queue
    ACTIVE = "ACTIVE"
    DONE = "DONE"
    CANCELED = "CANCELED"
    FAILED = "FAILED"


@dataclass
class PilotDescription:
    """Resource request for one pilot.

    Parameters
    ----------
    resource:
        Cluster preset name (``"stampede"``, ``"supermic"``,
        ``"small-cluster"``) or a :class:`ClusterSpec`.
    cores:
        Number of cores the placeholder job requests.
    walltime_minutes:
        Requested allocation length; running units are cancelled when it
        expires.
    """

    resource: object
    cores: int
    walltime_minutes: float = 24 * 60.0
    #: GPUs requested alongside the cores (paper's GPU extension)
    gpus: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.cores <= 0:
            raise ValueError(f"cores must be > 0, got {self.cores}")
        if self.gpus < 0:
            raise ValueError(f"gpus must be >= 0, got {self.gpus}")
        if self.walltime_minutes <= 0:
            raise ValueError(
                f"walltime_minutes must be > 0, got {self.walltime_minutes}"
            )

    def cluster(self) -> ClusterSpec:
        """Resolve the resource field to a :class:`ClusterSpec`."""
        if isinstance(self.resource, ClusterSpec):
            return self.resource
        return get_cluster(str(self.resource))


class Pilot:
    """A pilot job on a simulated cluster.

    ``registry`` is the metrics registry its agent schedulers record
    into (the owning session's); without one, each records into a
    private registry.
    """

    def __init__(
        self,
        description: PilotDescription,
        clock: EventQueue,
        failure_model: Optional[FailureModel] = None,
        fault_domain=None,
        watchdog=None,
        uid: Optional[str] = None,
        registry=None,
    ):
        cluster = description.cluster()
        if description.cores > cluster.total_cores:
            raise ValueError(
                f"pilot requests {description.cores} cores but "
                f"{cluster.name} only has {cluster.total_cores}"
            )
        if description.gpus > cluster.total_gpus:
            raise ValueError(
                f"pilot requests {description.gpus} GPUs but "
                f"{cluster.name} only has {cluster.total_gpus}"
            )
        # Session-scoped naming when the owner passes a uid; the module
        # counter remains as a fallback for pilots constructed bare (its
        # numbers depend on process history, so anything reproducible —
        # manifests, golden traces — must not embed them).
        self.uid = uid if uid is not None else f"pilot.{next(_pilot_counter):04d}"
        self._registry = registry
        self.description = description
        self.cluster = cluster
        self._clock = clock
        self.state = PilotState.NEW
        self.timestamps = {PilotState.NEW: clock.now}
        self.scheduler: Optional[AgentScheduler] = None
        self._failure_model = failure_model
        #: correlated-fault injector (node crashes, preemption, staging
        #: transients); None when faults are disabled
        self.fault_domain = fault_domain
        #: gray-failure supervisor re-attached to every fresh agent
        #: scheduler (so a requeued pilot stays supervised); None = off
        self.watchdog = watchdog
        self._pre_active_queue: List[ComputeUnit] = []
        self._walltime_event = None

    # -- lifecycle ----------------------------------------------------------

    def launch(self) -> None:
        """Submit the placeholder job to the batch queue."""
        if self.state is not PilotState.NEW:
            raise RuntimeError(f"{self.uid}: already launched")
        self._advance(PilotState.PENDING)
        wait = self.cluster.queue.wait_time(self.description.cores)
        self._clock.schedule(wait, self._activate)

    def _activate(self) -> None:
        if self.state is not PilotState.PENDING:
            return  # cancelled (or failed) while queued
        self._advance(PilotState.ACTIVE)
        self.scheduler = AgentScheduler(
            clock=self._clock,
            cluster=self.cluster,
            capacity=self.description.cores,
            failure_model=self._failure_model,
            gpu_capacity=self.description.gpus,
            fault_domain=self.fault_domain,
            watchdog=self.watchdog,
            registry=self._registry,
        )
        self._walltime_event = self._clock.schedule(
            self.description.walltime_minutes * 60.0, self._expire
        )
        if self.fault_domain is not None:
            # Arms the crash/preemption schedule on the first activation
            # only; a requeued pilot keeps its remaining schedule.
            self.fault_domain.on_pilot_active(self, self._clock)
        queued, self._pre_active_queue = self._pre_active_queue, []
        if queued:
            self.scheduler.submit_many(queued)

    def _expire(self) -> None:
        if self.state is PilotState.ACTIVE:
            if self.scheduler is not None:
                self.scheduler.cancel_all()
            self._advance(PilotState.DONE)

    def preempt(self, requeue: bool = True) -> int:
        """Batch system reclaims the allocation mid-run (fault injection).

        The entire workload fails in this event.  With ``requeue`` the
        pilot re-enters the batch queue and reactivates (with a fresh
        agent and a fresh walltime) after the usual queue wait — units
        submitted meanwhile are held and scheduled at reactivation.
        Without it the pilot fails for good.  Returns units killed.
        """
        if self.state is not PilotState.ACTIVE:
            return 0
        # Detach the agent and leave ACTIVE *before* killing the workload:
        # failure callbacks may resubmit (relaunch policies), and those
        # submissions must land in the pre-active hold queue (requeue) or
        # fail against the final pilot — never in the dying scheduler.
        scheduler, self.scheduler = self.scheduler, None
        if self._walltime_event is not None:
            self._walltime_event.cancel()
            self._walltime_event = None
        if requeue:
            self._advance(PilotState.PENDING)
            wait = self.cluster.queue.wait_time(self.description.cores)
            self._clock.schedule(wait, self._activate)
        else:
            self._advance(PilotState.FAILED)
        killed = 0
        if scheduler is not None:
            killed = scheduler.kill_all(f"{self.uid}: pilot preempted")
        return killed

    def cancel(self) -> None:
        """Tear the pilot down; queued units are cancelled."""
        if self.state in (PilotState.DONE, PilotState.CANCELED, PilotState.FAILED):
            return
        if self._walltime_event is not None:
            self._walltime_event.cancel()
        if self.scheduler is not None:
            self.scheduler.cancel_all()
        self._advance(PilotState.CANCELED)

    def _advance(self, state: PilotState) -> None:
        self.state = state
        self.timestamps[state] = self._clock.now

    # -- workload -----------------------------------------------------------

    def submit_units(self, descriptions: List[UnitDescription]) -> List[ComputeUnit]:
        """Create units for ``descriptions`` and hand them to the agent.

        Units submitted before the pilot is ACTIVE are held and scheduled at
        activation — "Tasks can be submitted for execution before or after
        the pilot becomes active" (paper, Section 3.2.2).
        """
        if self.state in (PilotState.DONE, PilotState.CANCELED, PilotState.FAILED):
            raise SchedulerError(f"{self.uid}: pilot is final ({self.state.value})")
        units = [ComputeUnit(d) for d in descriptions]
        if self.state is PilotState.ACTIVE:
            assert self.scheduler is not None
            # One batched placement scan instead of a rescan per unit —
            # the sync EMM submits an entire cycle's fan-out here.
            self.scheduler.submit_many(units)
        else:
            # Held in NEW until activation; AgentScheduler.submit advances
            # NEW -> SCHEDULING itself.
            self._pre_active_queue.extend(units)
        return units
