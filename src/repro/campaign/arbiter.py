"""The campaign arbiter: fair-share scheduling of sessions onto nodes.

This is the outer half of the two-level discrete-event simulation.  The
commodity being scheduled is a whole RepEx *session* (the paper's unit of
work, one pilot-job application), and the resource is a shared simulated
datacenter.  The arbiter enforces four policies:

* **Weighted fair share** — among tenants with an eligible queued
  session, dispatch the one with the least accrued-plus-running
  core-seconds per unit weight; ties break by priority, then by tenant
  declaration order.
* **Quotas** — a tenant never holds more than ``quota_cores`` cores or
  ``quota_sessions`` sessions concurrently.
* **Admission control** — a bounded queue; sessions that would overflow
  it (or that can never be placed) are rejected at submission.
* **Fault isolation** — nodes are *tenant-exclusive while occupied*: a
  node partially used by tenant T is only ever co-filled with more of
  T's work, so a node crash kills T's sessions and nobody else's.

Everything observable is written to an append-only audit log of
JSON-safe events, which is both the replay-determinism surface (same
spec, same seed, same audit log) and what the property tests interrogate
for invariant violations.

The arbiter knows nothing about MD: a session is an opaque ``payload``
plus a core count, and running one means calling the injected ``runner``
(see :mod:`repro.campaign.runner`) which returns a
:class:`SessionOutcome` whose ``duration_s`` becomes the session's
occupancy interval on the campaign clock.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional

from repro.campaign.spec import CampaignError, DatacenterSpec, FaultSpec, TenantSpec
from repro.pilot.events import EventQueue
from repro.utils.rng import RNGRegistry

#: Horizon (seconds) over which rate-based node crashes are pre-drawn.
_CRASH_HORIZON_S = 24 * 3600.0

#: Observed/reported duration ratio at which a completed session counts
#: as evidence that one of its nodes is slow.
_SLOW_THRESHOLD = 1.5

#: Slow completions a node must accumulate before the arbiter quarantines
#: it permanently (like a crashed node, but never repaired).
_SLOW_MIN_SAMPLES = 2


class SessionState(enum.Enum):
    """Lifecycle of one session inside a campaign."""

    QUEUED = "QUEUED"
    RUNNING = "RUNNING"
    DONE = "DONE"
    #: the runner reported failure (the inner simulation errored)
    FAILED = "FAILED"
    #: killed by node crashes more times than the relaunch budget allows
    KILLED = "KILLED"
    #: refused at submission (queue full or request infeasible)
    REJECTED = "REJECTED"


#: states with no outgoing transitions
FINAL_STATES = frozenset(
    {SessionState.DONE, SessionState.FAILED, SessionState.KILLED,
     SessionState.REJECTED}
)


@dataclass
class SessionRequest:
    """What a tenant submits: a core count and an opaque payload."""

    uid: str
    tenant: str
    cores: int
    payload: object = None

    def __post_init__(self):
        if self.cores <= 0:
            raise CampaignError(
                f"session {self.uid}: cores must be > 0, got {self.cores}"
            )


@dataclass
class SessionOutcome:
    """What the runner reports back for one session execution.

    An outcome carries the session's end-of-run counters, which the
    campaign report sums per tenant, not its run manifest: that lives on
    disk, where :func:`~repro.campaign.runner.repex_runner` writes it.
    """

    #: the session's virtual makespan — its width on the campaign clock
    duration_s: float
    ok: bool = True
    #: the session's end-of-run registry counters, name -> value (empty
    #: for stub runners and under a null registry)
    counters: Dict[str, float] = field(default_factory=dict)
    #: inner-clock diagnostics, surfaced into campaign accounting
    events_fired: int = 0
    peak_heap: int = 0
    n_failures: int = 0

    def __post_init__(self):
        if self.duration_s < 0:
            raise CampaignError(
                f"duration_s must be >= 0, got {self.duration_s}"
            )


@dataclass
class SessionRecord:
    """The arbiter's bookkeeping for one submitted session."""

    request: SessionRequest
    state: SessionState = SessionState.QUEUED
    t_submit: float = 0.0
    #: start of the latest attempt (NaN-free: meaningful only once RUNNING)
    t_start: float = 0.0
    t_end: float = 0.0
    #: completed [t_start, t_end] occupancy intervals, kills included
    attempts: List[List[float]] = field(default_factory=list)
    #: node -> cores held (live only while RUNNING)
    allocation: Dict[int, int] = field(default_factory=dict)
    relaunches: int = 0
    core_seconds: float = 0.0
    outcome: Optional[SessionOutcome] = None
    reject_reason: Optional[str] = None

    @property
    def done(self) -> bool:
        """True once the session reached a final state."""
        return self.state in FINAL_STATES


class _TenantState:
    """Mutable per-tenant scheduling state."""

    __slots__ = ("spec", "index", "queue", "running", "usage_core_s")

    def __init__(self, spec: TenantSpec, index: int):
        self.spec = spec
        self.index = index
        self.queue: Deque[SessionRecord] = deque()
        self.running: Dict[str, SessionRecord] = {}
        #: accrued core-seconds of *finished* occupancy intervals
        self.usage_core_s = 0.0

    def running_cores(self) -> int:
        return sum(r.request.cores for r in self.running.values())


class Arbiter:
    """Owns N sessions and a simulated datacenter; dispatches fairly.

    Parameters
    ----------
    datacenter / tenants / faults:
        The campaign's machine, its users, and the crash schedule.
    queue_limit:
        Bounded admission queue (0 = unbounded).
    relaunch_limit:
        Relaunches granted to crash-killed sessions before they go
        ``KILLED`` for good.
    seed:
        Root seed of the campaign's RNG streams (crash arrival times).
    clock:
        An externally owned outer :class:`EventQueue` (a fresh one when
        omitted).
    """

    def __init__(
        self,
        datacenter: DatacenterSpec,
        tenants: List[TenantSpec],
        *,
        faults: Optional[FaultSpec] = None,
        queue_limit: int = 0,
        relaunch_limit: int = 2,
        seed: int = 0,
        clock: Optional[EventQueue] = None,
    ):
        if not tenants:
            raise CampaignError("at least one tenant is required")
        self.datacenter = datacenter
        self.clock = clock if clock is not None else EventQueue()
        self.queue_limit = int(queue_limit)
        self.relaunch_limit = int(relaunch_limit)
        self.seed = int(seed)
        self._tenants: Dict[str, _TenantState] = {}
        for i, spec in enumerate(tenants):
            if spec.name in self._tenants:
                raise CampaignError(f"duplicate tenant name {spec.name!r}")
            self._tenants[spec.name] = _TenantState(spec, i)
        n = datacenter.nodes
        self._owner: List[Optional[str]] = [None] * n
        self._free: List[int] = [datacenter.cores_per_node] * n
        self._quarantined: List[bool] = [False] * n
        spec_faults = faults if faults is not None else FaultSpec()
        #: ground truth the workload experiences but the arbiter can't see
        self._slow_factor: List[float] = [1.0] * n
        for node, factor in spec_faults.slow_nodes:
            self._slow_factor[int(node)] = max(
                self._slow_factor[int(node)], float(factor)
            )
        #: slow-completion evidence the arbiter *can* see, per node
        self._slow_samples: List[int] = [0] * n
        self.records: List[SessionRecord] = []
        self._by_uid: Dict[str, SessionRecord] = {}
        self.audit: List[Dict] = []
        self.busy_core_seconds = 0.0
        self._runner: Optional[Callable[[SessionRequest], SessionOutcome]] = None
        self._arm_faults(spec_faults)

    # -- fault schedule -------------------------------------------------------

    def _arm_faults(self, faults: FaultSpec) -> None:
        """Pre-draw every node crash and put it on the outer clock.

        Drawing the whole schedule at construction (explicit crashes
        plus seeded Poisson arrivals per node over ``_CRASH_HORIZON_S``)
        makes the fault pattern a pure function of the spec — replays see
        the exact same crashes regardless of what the workload does.
        """
        crashes: List[List[float]] = [
            [float(t), int(node)] for t, node in faults.node_crashes
        ]
        if faults.node_crash_rate > 0:
            rng_registry = RNGRegistry(self.seed)
            rate_per_s = faults.node_crash_rate / 3600.0
            for node in range(self.datacenter.nodes):
                rng = rng_registry.stream("campaign-faults", node)
                t = 0.0
                while True:
                    t += float(rng.exponential(1.0 / rate_per_s))
                    if t > _CRASH_HORIZON_S:
                        break
                    crashes.append([t, node])
        crashes.sort()
        for t, node in crashes:
            if node >= self.datacenter.nodes:
                raise CampaignError(
                    f"crash schedule names node {node} but the datacenter "
                    f"has only {self.datacenter.nodes} nodes"
                )
            self.clock.schedule_at(
                t, lambda node=node: self._crash_node(node)
            )

    # -- admission ------------------------------------------------------------

    def submit(self, request: SessionRequest) -> SessionRecord:
        """Admit (or reject) one session request.

        Rejection is immediate and final: requests that can never be
        placed (more cores than the datacenter, or than the tenant's
        quota) and requests arriving while the queue is at
        ``queue_limit`` come back ``REJECTED``.
        """
        tenant = self._tenants.get(request.tenant)
        if tenant is None:
            raise CampaignError(f"unknown tenant {request.tenant!r}")
        if request.uid in self._by_uid:
            raise CampaignError(f"duplicate session uid {request.uid!r}")
        record = SessionRecord(request=request, t_submit=self.clock.now)
        self.records.append(record)
        self._by_uid[request.uid] = record
        self._audit(
            "submit", uid=request.uid, tenant=request.tenant,
            cores=request.cores,
        )
        reason = self._infeasible_reason(tenant, request)
        if reason is None and self.queue_limit > 0:
            n_queued = sum(len(t.queue) for t in self._tenants.values())
            if n_queued >= self.queue_limit:
                reason = "queue full"
        if reason is not None:
            record.state = SessionState.REJECTED
            record.reject_reason = reason
            record.t_end = self.clock.now
            self._audit(
                "reject", uid=request.uid, tenant=request.tenant,
                reason=reason,
            )
            return record
        tenant.queue.append(record)
        self._dispatch()
        return record

    def _infeasible_reason(
        self, tenant: _TenantState, request: SessionRequest
    ) -> Optional[str]:
        if request.cores > self.datacenter.total_cores:
            return (
                f"needs {request.cores} cores, datacenter has "
                f"{self.datacenter.total_cores}"
            )
        quota = tenant.spec.quota_cores
        if quota and request.cores > quota:
            return f"needs {request.cores} cores, tenant quota is {quota}"
        return None

    # -- the dispatch rule ----------------------------------------------------

    def _weighted_usage(self, tenant: _TenantState) -> float:
        """Accrued + running core-seconds per unit weight (the share key)."""
        now = self.clock.now
        running = sum(
            r.request.cores * (now - r.t_start)
            for r in tenant.running.values()
        )
        return (tenant.usage_core_s + running) / tenant.spec.weight

    def _quota_ok(self, tenant: _TenantState, request: SessionRequest) -> bool:
        spec = tenant.spec
        if spec.quota_sessions and len(tenant.running) >= spec.quota_sessions:
            return False
        if spec.quota_cores and (
            tenant.running_cores() + request.cores > spec.quota_cores
        ):
            return False
        return True

    def _find_placement(
        self, tenant_name: str, cores: int
    ) -> Optional[Dict[int, int]]:
        """Tenant-exclusive first-fit: same-tenant partial nodes, then free.

        Never touches a node owned by another tenant or under
        quarantine; returns ``node -> cores`` or None when the request
        does not fit right now.
        """
        remaining = cores
        alloc: Dict[int, int] = {}
        for wanted_owner in (tenant_name, None):
            for node in range(self.datacenter.nodes):
                if remaining == 0:
                    break
                if self._quarantined[node] or self._owner[node] != wanted_owner:
                    continue
                take = min(self._free[node], remaining)
                if take > 0:
                    alloc[node] = take
                    remaining -= take
            if remaining == 0:
                break
        return alloc if remaining == 0 else None

    def _dispatch(self) -> None:
        """Start eligible sessions until nothing more fits.

        Each iteration picks, among tenants whose head-of-queue session
        passes quota and placement checks, the one minimizing
        ``(weighted usage, -priority, declaration order)`` — the audit
        records the decision basis so tests can re-derive it.
        """
        if self._runner is None:
            return  # sessions queue up until run() installs the runner
        while True:
            eligible: Dict[str, tuple] = {}
            placements: Dict[str, Dict[int, int]] = {}
            for name, tenant in self._tenants.items():
                if not tenant.queue:
                    continue
                head = tenant.queue[0]
                if not self._quota_ok(tenant, head.request):
                    continue
                alloc = self._find_placement(name, head.request.cores)
                if alloc is None:
                    continue
                eligible[name] = (
                    self._weighted_usage(tenant),
                    -tenant.spec.priority,
                    tenant.index,
                )
                placements[name] = alloc
            if not eligible:
                return
            chosen = min(eligible, key=eligible.__getitem__)
            tenant = self._tenants[chosen]
            record = tenant.queue.popleft()
            self._start(tenant, record, placements[chosen], eligible)

    def _start(
        self,
        tenant: _TenantState,
        record: SessionRecord,
        alloc: Dict[int, int],
        eligible: Dict[str, tuple],
    ) -> None:
        now = self.clock.now
        for node, take in alloc.items():
            assert self._owner[node] in (None, tenant.spec.name)
            self._owner[node] = tenant.spec.name
            self._free[node] -= take
            assert self._free[node] >= 0
        record.state = SessionState.RUNNING
        record.t_start = now
        record.allocation = dict(alloc)
        tenant.running[record.request.uid] = record
        self._audit(
            "start",
            uid=record.request.uid,
            tenant=tenant.spec.name,
            cores=record.request.cores,
            nodes=sorted(alloc),
            relaunch=record.relaunches,
            eligible={name: key[0] for name, key in eligible.items()},
        )
        assert self._runner is not None, "run() installs the runner"
        try:
            outcome = self._runner(record.request)
        except Exception as exc:  # runner bug or inner-sim error
            outcome = SessionOutcome(duration_s=0.0, ok=False)
            self._audit(
                "runner_error", uid=record.request.uid, error=str(exc)
            )
        record.outcome = outcome
        # A slow node stretches the session's occupancy beyond what the
        # runner reported — the gray failure the arbiter must *infer*
        # from completion times, never read directly.
        dilation = max(self._slow_factor[node] for node in alloc)
        record._completion = self.clock.schedule(  # type: ignore[attr-defined]
            outcome.duration_s * dilation, lambda r=record: self._complete(r)
        )

    # -- completion / faults --------------------------------------------------

    def _release(self, tenant: _TenantState, record: SessionRecord) -> None:
        """Accrue the finished occupancy interval and free its cores."""
        now = self.clock.now
        span = record.request.cores * (now - record.t_start)
        tenant.usage_core_s += span
        self.busy_core_seconds += span
        record.core_seconds += span
        record.attempts.append([record.t_start, now])
        for node, take in record.allocation.items():
            self._free[node] += take
            assert self._free[node] <= self.datacenter.cores_per_node
            if self._free[node] == self.datacenter.cores_per_node:
                self._owner[node] = None
        record.allocation = {}
        tenant.running.pop(record.request.uid, None)

    def _complete(self, record: SessionRecord) -> None:
        if record.state is not SessionState.RUNNING:
            return  # killed while the completion event was in flight
        tenant = self._tenants[record.request.tenant]
        nodes = sorted(record.allocation)
        observed_s = self.clock.now - record.t_start
        self._release(tenant, record)
        assert record.outcome is not None
        record.state = (
            SessionState.DONE if record.outcome.ok else SessionState.FAILED
        )
        record.t_end = self.clock.now
        self._audit(
            "done" if record.outcome.ok else "failed",
            uid=record.request.uid,
            tenant=tenant.spec.name,
            duration_s=record.outcome.duration_s,
        )
        self._observe_slowness(record, nodes, observed_s)
        self._dispatch()

    def _observe_slowness(
        self, record: SessionRecord, nodes: List[int], observed_s: float
    ) -> None:
        """Straggler detection on the arbiter's own evidence.

        A clean completion whose occupancy exceeded the runner-reported
        duration by ``_SLOW_THRESHOLD``x is one sample of blame
        against every node it ran on; ``_SLOW_MIN_SAMPLES`` samples
        quarantine the node permanently — like a crash, but with no
        repair, because slow hardware does not heal on a timer.
        """
        assert record.outcome is not None
        reported_s = record.outcome.duration_s
        if reported_s <= 0:
            return
        ratio = observed_s / reported_s
        if ratio < _SLOW_THRESHOLD:
            return
        for node in nodes:
            if self._quarantined[node]:
                continue
            self._slow_samples[node] += 1
            if self._slow_samples[node] >= _SLOW_MIN_SAMPLES:
                self._quarantined[node] = True
                self._audit(
                    "slow_quarantine",
                    node=node,
                    samples=self._slow_samples[node],
                    ratio=round(ratio, 6),
                )

    def _crash_node(self, node: int) -> None:
        """One node dies: kill its owner's sessions, quarantine the node.

        The audit entry records the owner and exactly which sessions were
        killed — the no-cross-tenant-leakage property is that every
        killed session belongs to the owner.
        """
        owner = self._owner[node]
        victims = [
            record
            for tenant in self._tenants.values()
            for record in tenant.running.values()
            if node in record.allocation
        ]
        victims.sort(key=lambda r: r.request.uid)
        self._audit(
            "crash",
            node=node,
            owner=owner,
            killed=[r.request.uid for r in victims],
        )
        self._quarantined[node] = True
        self.clock.schedule(
            self.datacenter.repair_s, lambda node=node: self._repair_node(node)
        )
        for record in victims:
            tenant = self._tenants[record.request.tenant]
            completion = getattr(record, "_completion", None)
            if completion is not None:
                completion.cancel()
            self._release(tenant, record)
            record.outcome = None
            if record.relaunches < self.relaunch_limit:
                record.relaunches += 1
                record.state = SessionState.QUEUED
                tenant.queue.appendleft(record)  # relaunches bypass admission
                self._audit(
                    "relaunch",
                    uid=record.request.uid,
                    tenant=tenant.spec.name,
                    attempt=record.relaunches,
                )
            else:
                record.state = SessionState.KILLED
                record.t_end = self.clock.now
                self._audit(
                    "killed",
                    uid=record.request.uid,
                    tenant=tenant.spec.name,
                )
        # the node just went dark, but capacity elsewhere may have freed
        self._dispatch()

    def _repair_node(self, node: int) -> None:
        if self._slow_samples[node] >= _SLOW_MIN_SAMPLES:
            return  # slow-quarantined for good; a crash repair can't revive it
        self._quarantined[node] = False
        self._audit("repair", node=node)
        self._dispatch()

    # -- driving --------------------------------------------------------------

    def run(
        self, runner: Callable[[SessionRequest], SessionOutcome]
    ) -> List[SessionRecord]:
        """Drive the campaign clock until every session is final.

        ``runner`` executes one session and reports its
        :class:`SessionOutcome`; it is installed before the first
        dispatch so sessions started by ``submit`` during :meth:`run`
        (relaunches, backlog drains) all use it.
        """
        self._runner = runner
        self._dispatch()
        # Records only ever become final, and new ones are appended, so
        # the first one not yet final only moves forward: the finish
        # check is linear in sessions over the whole run, not per event.
        records = self.records
        first_open = 0

        def all_final() -> bool:
            nonlocal first_open
            while first_open < len(records) and records[first_open].done:
                first_open += 1
            return first_open == len(records)

        self.clock.run_until(all_final)
        return self.records

    def prepare(
        self, runner: Callable[[SessionRequest], SessionOutcome]
    ) -> None:
        """Install ``runner`` without driving the clock (incremental use)."""
        self._runner = runner

    # -- reporting ------------------------------------------------------------

    def tenant_usage(self) -> Dict[str, float]:
        """Accrued core-seconds per tenant (finished intervals only)."""
        return {
            name: tenant.usage_core_s
            for name, tenant in self._tenants.items()
        }

    def _audit(self, event: str, **fields) -> None:
        entry = {"t": self.clock.now, "event": event}
        entry.update(fields)
        self.audit.append(entry)
