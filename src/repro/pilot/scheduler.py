"""The pilot agent's task scheduler.

Implements the spatial side of the Execution Modes: units wait in a FIFO
queue and start as soon as enough cores are free (count-based backfill —
any queued unit that fits may start, so small tasks fill holes left by
large ones).  The temporal pipeline of each unit is::

    SCHEDULING -> STAGING_INPUT -> AGENT_EXECUTING_PENDING -> EXECUTING
               -> STAGING_OUTPUT -> DONE | FAILED

Each stage charges the corresponding cluster model (filesystem, launcher,
performance-model duration), producing the ``T_data`` / ``T_RP_over`` /
``T_MD``/``T_EX`` decomposition of the paper's Eq. 1.

The scheduler also carries the pilot's *fault surface* (docs/FAULTS.md):

* Cores are tracked per node (first-fit placement over the pilot's node
  map), so a :meth:`crash_node` event fails every unit resident on the
  node in one stroke and quarantines the node — its cores leave both
  ``capacity`` and the free pool, and nothing is placed there again.
* Staging operations consult the fault domain's transient model and are
  retried with exponential backoff + jitter before the unit is failed.
* :meth:`kill_all` implements pilot-level faults (preemption): the queue
  and all running units fail in one event.

Because faults can finish a unit while its pipeline events are still on
the clock, every deferred callback checks ``unit.done`` first; a fault
therefore never races a stale completion into an illegal transition.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set

from repro.obs.metrics import MetricsRegistry
from repro.pilot.cluster import ClusterSpec
from repro.pilot.events import EventQueue
from repro.pilot.failures import FailureModel, NO_FAILURES, UnitFailure
from repro.pilot.staging import StagingAction
from repro.pilot.unit import ComputeUnit, UnitState


class SchedulerError(RuntimeError):
    """Raised when a unit can never be placed (e.g. more cores than pilot)."""


class AgentScheduler:
    """Allocates pilot cores to compute units and drives their pipeline.

    ``registry`` is the metrics registry its instruments live in (the
    pilot's, from its session); without one, the scheduler records into
    a private registry.
    """

    def __init__(
        self,
        clock: EventQueue,
        cluster: ClusterSpec,
        capacity: int,
        failure_model: Optional[FailureModel] = None,
        gpu_capacity: int = 0,
        fault_domain=None,
        watchdog=None,
        registry=None,
    ):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if gpu_capacity < 0:
            raise ValueError(f"gpu_capacity must be >= 0, got {gpu_capacity}")
        self._clock = clock
        self._cluster = cluster
        self.capacity = capacity
        self.free_cores = capacity
        self.gpu_capacity = gpu_capacity
        self.free_gpus = gpu_capacity
        self.failure_model = failure_model or NO_FAILURES
        #: fault-domain model (node crashes / staging transients); None when
        #: correlated faults are disabled
        self.fault_domain = fault_domain
        #: gray-failure supervisor; None when the watchdog is disabled.
        #: When present, every execution attempt is tracked in
        #: ``_attempts`` (unit -> pending completion event) and stragglers
        #: may get a speculative duplicate in ``_shadows``; both dicts stay
        #: empty (and cost nothing) without a watchdog.
        self.watchdog = watchdog
        self._attempts: Dict[ComputeUnit, object] = {}
        #: unit -> (completion event, placement) of its speculative copy
        self._shadows: Dict[ComputeUnit, tuple] = {}
        if watchdog is not None:
            watchdog.attach(self)
        self._queue: Deque[ComputeUnit] = deque()
        #: insertion-ordered, so crashes and preemption fail units in
        #: placement order rather than memory-address order
        self._running: Dict[ComputeUnit, None] = {}
        # Node map: the pilot's cores are carved into nodes of
        # ``cluster.cores_per_node`` (the last node takes the remainder).
        # GPUs stay a global pool — the paper's GPU runs are one GPU task
        # per node, so node-level GPU accounting adds nothing yet.
        per_node = cluster.cores_per_node
        self._node_total: List[int] = []
        remaining = capacity
        while remaining > 0:
            take = min(per_node, remaining)
            self._node_total.append(take)
            remaining -= take
        self._node_free: List[int] = list(self._node_total)
        self._quarantined: Set[int] = set()
        # Sorted index of healthy nodes with free cores.  First-fit always
        # consumes the lowest-indexed nodes first and fills each node
        # completely before touching the next, so a placement removes a
        # *prefix* of this list — placement cost is O(nodes touched), not
        # O(all nodes).  Invariant: node in _free_nodes iff
        # _node_free[node] > 0 and node not quarantined.
        self._free_nodes: List[int] = [
            i for i, f in enumerate(self._node_free) if f > 0
        ]
        # Conservative lower bound on the smallest core request in the
        # waiting queue (inf when empty).  Valid because units only leave
        # the queue through scans that recompute it exactly; it lets
        # releases skip the full queue rescan when nothing can possibly
        # fit.
        self._min_queued_cores: float = math.inf
        # Last values pushed to the occupancy gauges (change detection;
        # gauges only hold the latest value, so skipping equal sets is
        # observably identical).
        self._last_queue_depth = -1
        self._last_used_cores = -1
        #: unit -> {node_index: cores taken}, for crash targeting/release
        self._placement: Dict[ComputeUnit, Dict[int, int]] = {}
        #: transfers currently in flight, for filesystem contention
        self._staging_in_flight = 0
        #: units currently waiting on the launcher, for launch contention
        self._launch_pending = 0
        self._drained = False
        # Instruments are resolved once: the per-event cost under a
        # NullRegistry is a no-op method call, keeping the off-path
        # observability overhead bounded.  The owning session passes its
        # registry; bare construction records into a private one.
        if registry is None:
            registry = MetricsRegistry()
        self._m_submitted = registry.counter("scheduler.submitted")
        self._m_started = registry.counter("scheduler.started")
        self._m_completed = registry.counter("scheduler.completed")
        self._m_failed = registry.counter("scheduler.failed")
        self._m_canceled = registry.counter("scheduler.canceled")
        self._m_retries = registry.counter("staging.retries")
        self._m_staged_mb = registry.counter("staging.bytes_mb")
        self._m_transfers = registry.counter("staging.transfers")
        self._m_staging_faults = registry.counter("fault.staging_transients")
        self._g_queue_depth = registry.gauge("scheduler.queue_depth")
        self._g_used_cores = registry.gauge("scheduler.used_cores")
        self._h_wait = registry.histogram("scheduler.wait_seconds")

    def _update_occupancy(self) -> None:
        depth = len(self._queue)
        if depth != self._last_queue_depth:
            self._last_queue_depth = depth
            self._g_queue_depth.set(depth)
        used = self.capacity - self.free_cores
        if used != self._last_used_cores:
            self._last_used_cores = used
            self._g_used_cores.set(used)

    # -- public API ---------------------------------------------------------

    @property
    def n_waiting(self) -> int:
        """Units queued but not yet allocated cores."""
        return len(self._queue)

    @property
    def n_running(self) -> int:
        """Units holding cores right now."""
        return len(self._running)

    @property
    def used_cores(self) -> int:
        """Cores currently allocated."""
        return self.capacity - self.free_cores

    @property
    def n_nodes(self) -> int:
        """Nodes in the pilot's allocation (including quarantined ones)."""
        return len(self._node_total)

    @property
    def quarantined_nodes(self) -> Set[int]:
        """Indices of nodes removed from service by crashes."""
        return set(self._quarantined)

    def quarantined_cores(self, node: int) -> int:
        """Cores lost to quarantine on ``node`` (0 if the node is healthy)."""
        if node in self._quarantined:
            return self._node_total[node]
        return 0

    def is_quiescent(self) -> bool:
        """True when the agent is idle and still accepts submissions.

        Idle means no unit is queued, placed, staging, waiting on the
        launcher or executing (speculative copies included).  A phase
        submitted to a quiescent scheduler owns the agent until its last
        unit finishes — the precondition of the SoA phase engine
        (:func:`repro.pilot.soa.try_fast_phase`).
        """
        return not (
            self._drained
            or self._queue
            or self._running
            or self._shadows
            or self._attempts
            or self._staging_in_flight
            or self._launch_pending
        )

    def _enqueue(self, unit: ComputeUnit) -> None:
        """Validate + queue one unit (shared by submit/submit_many)."""
        if self._drained:
            raise SchedulerError("scheduler has been drained (pilot ended)")
        if unit.description.cores > self.capacity:
            raise SchedulerError(
                f"unit {unit.description.name!r} needs "
                f"{unit.description.cores} cores but the pilot only has "
                f"{self.capacity}"
            )
        if unit.description.gpus > self.gpu_capacity:
            raise SchedulerError(
                f"unit {unit.description.name!r} needs "
                f"{unit.description.gpus} GPUs but the pilot only has "
                f"{self.gpu_capacity}"
            )
        unit.advance(UnitState.SCHEDULING, self._clock.now)
        self._queue.append(unit)
        if unit.description.cores < self._min_queued_cores:
            self._min_queued_cores = unit.description.cores
        self._m_submitted.inc()

    def submit(self, unit: ComputeUnit) -> None:
        """Queue a unit; it is scheduled as soon as cores are available."""
        self._enqueue(unit)
        self._try_schedule()

    def submit_many(self, units: Sequence[ComputeUnit]) -> None:
        """Queue a batch of units with one placement scan.

        Placement decisions are identical to submitting one by one: no
        virtual time passes between submissions, so the single FIFO
        backfill scan afterwards places exactly the units a per-submit
        scan would have placed, in the same order (and therefore
        schedules the same events in the same sequence).
        """
        for unit in units:
            self._enqueue(unit)
        self._try_schedule()

    def cancel_all(self) -> None:
        """Cancel every queued unit (running units finish); used at teardown."""
        while self._queue:
            unit = self._queue.popleft()
            unit.advance(UnitState.CANCELED, self._clock.now)
            self._m_canceled.inc()
        self._min_queued_cores = math.inf
        self._drained = True
        self._update_occupancy()

    # -- fault surface -------------------------------------------------------

    def crash_node(self, node: int) -> int:
        """Crash ``node``: fail its resident units, quarantine its cores.

        Every unit with cores placed on the node fails in this one event
        (correlated failure), the node's cores leave both ``capacity`` and
        the free pool, and queued units that can no longer ever fit fail
        too.  Returns the number of units failed.  Idempotent per node.
        """
        if node < 0 or node >= self.n_nodes or node in self._quarantined:
            return 0
        victims = [u for u in self._running if node in self._placement.get(u, {})]
        # Quarantine BEFORE failing: _release -> _try_schedule must not
        # place queued units onto the crashing node.
        self._quarantined.add(node)
        self.capacity -= self._node_total[node]
        self.free_cores -= self._node_free[node]
        if self._node_free[node] > 0:
            idx = bisect.bisect_left(self._free_nodes, node)
            if idx < len(self._free_nodes) and self._free_nodes[idx] == node:
                del self._free_nodes[idx]
        self._node_free[node] = 0
        failed = 0
        for unit in victims:
            self._fail(unit, UnitFailure(f"node {node} crashed"))
            failed += 1
        # Speculative copies resident on the crashed node die with it (the
        # primary keeps running); their surviving cores rejoin the pool.
        if self._shadows:
            doomed = [
                u for u, (_e, pl) in self._shadows.items() if node in pl
            ]
            for unit in doomed:
                self._cancel_shadow(unit)
                self.watchdog.on_shadow_killed(unit)
            if doomed:
                self._try_schedule()
        # Queued units larger than the surviving capacity can never start.
        still_waiting: Deque[ComputeUnit] = deque()
        new_min: float = math.inf
        while self._queue:
            unit = self._queue.popleft()
            if unit.description.cores > self.capacity:
                unit.exception = UnitFailure(
                    f"node {node} crashed; {unit.description.cores} cores "
                    f"can no longer be satisfied"
                )
                unit.advance(UnitState.FAILED, self._clock.now)
                self._m_failed.inc()
                failed += 1
            else:
                still_waiting.append(unit)
                if unit.description.cores < new_min:
                    new_min = unit.description.cores
        self._queue = still_waiting
        self._min_queued_cores = new_min
        self._update_occupancy()
        return failed

    def kill_all(self, reason: str) -> int:
        """Fail the entire workload (pilot preemption / walltime kill).

        Queued units are failed first so releases from the running set
        cannot backfill them mid-kill.  The scheduler is drained afterwards
        and accepts no further submissions.  Returns units failed.
        """
        failed = 0
        while self._queue:
            unit = self._queue.popleft()
            unit.exception = UnitFailure(reason)
            unit.advance(UnitState.FAILED, self._clock.now)
            self._m_failed.inc()
            failed += 1
        self._min_queued_cores = math.inf
        for unit in list(self._running):
            self._fail(unit, UnitFailure(reason))
            failed += 1
        self._drained = True
        self._update_occupancy()
        return failed

    # -- pipeline -----------------------------------------------------------

    def _try_schedule(self) -> None:
        """Start every queued unit that fits in the free cores (backfill)."""
        if not self._queue:
            return
        self._scan_queue()

    def _scan_queue(self) -> None:
        if self.free_cores == 0 or self._min_queued_cores > self.free_cores:
            # Nothing can possibly fit (unit core requests are >= 1 and
            # the bound is a valid lower bound), so skip the rescan; the
            # gauges still refresh because callers changed queue/usage.
            self._update_occupancy()
            return
        still_waiting: Deque[ComputeUnit] = deque()
        new_min: float = math.inf
        # Staging events of every unit placed in this scan go onto the
        # clock in one batched insert; delays are still computed one unit
        # at a time (in-flight transfer contention is order-dependent),
        # and sequence numbers keep the per-unit order, so the heap pops
        # exactly as per-unit scheduling would.
        staging_batch: List = []
        while self._queue:
            unit = self._queue.popleft()
            if (
                unit.description.cores <= self.free_cores
                and unit.description.gpus <= self.free_gpus
            ):
                self._place(unit)
                self._running[unit] = None
                self._begin_staging_in(unit, batch=staging_batch)
            else:
                still_waiting.append(unit)
                if unit.description.cores < new_min:
                    new_min = unit.description.cores
        self._queue = still_waiting
        self._min_queued_cores = new_min
        if staging_batch:
            self._clock.schedule_many(staging_batch)
        self._update_occupancy()

    def _place(self, unit: ComputeUnit) -> None:
        """First-fit the unit's cores over healthy nodes (may span nodes)."""
        placement = self._take_cores(unit.description.cores)
        self._placement[unit] = placement
        self.free_cores -= unit.description.cores
        self.free_gpus -= unit.description.gpus

    def _take_cores(self, need: int) -> Dict[int, int]:
        """Carve ``need`` cores out of the node map (first-fit prefix).

        Mutates the per-node free counts and the sorted free-node index
        but *not* the ``free_cores`` total — callers settle that (and any
        GPU accounting) themselves.
        """
        placement: Dict[int, int] = {}
        free_nodes = self._free_nodes
        node_free = self._node_free
        emptied = 0
        for node in free_nodes:
            take = node_free[node]
            if take > need:
                take = need
            node_free[node] -= take
            placement[node] = take
            need -= take
            if node_free[node] == 0:
                emptied += 1
            if need == 0:
                break
        if emptied:
            del free_nodes[:emptied]
        assert need == 0, "free_cores disagreed with the node map"
        return placement

    def _staging_time(self, directives, unit: Optional[ComputeUnit] = None) -> float:
        # The filesystem model is resolved once per unit, not once per
        # directive — MD units carry several directives each.
        fs = self._cluster.filesystem
        total = 0.0
        for d in directives:
            if d.action is StagingAction.LINK:
                total += fs.link_time()
            else:
                total += fs.transfer_time(
                    d.size_mb, concurrent=self._staging_in_flight
                )
        if total > 0 and unit is not None:
            total *= self._dilation(unit)
        return total

    def _dilation(self, unit: ComputeUnit) -> float:
        """Gray-failure runtime dilation for ``unit``'s placement (>= 1)."""
        fd = self.fault_domain
        if fd is None or not fd.node_dilation:
            return 1.0
        return fd.dilation_for(self._placement.get(unit, ()))

    def _staging_model(self):
        if self.fault_domain is None:
            return None
        return self.fault_domain.staging

    def _staging_event(
        self, unit: ComputeUnit, directives, on_done, attempt: int = 1,
        model=None,
    ):
        """Build one staging attempt as a ``(delay, callback)`` pair.

        Charges staging time for ``directives``; the returned callback
        runs ``on_done()`` on success.  When the fault domain carries a
        transient staging model, each attempt may fail; failed attempts
        are retried after an exponential-backoff delay (re-charging the
        transfer time), up to ``max_retries`` retries, after which the
        unit fails for good.  The transient model is resolved once per
        unit and threaded through the retry chain.
        """
        delay = self._staging_time(directives, unit)
        self._staging_in_flight += len(directives)
        if model is None:
            model = self._staging_model()

        return delay, lambda: self._staging_done(
            unit, directives, on_done, attempt, model
        )

    def _staging_done(self, unit, directives, on_done, attempt, model) -> None:
        """Settle one finished staging attempt (success/fault/retry)."""
        self._staging_in_flight -= len(directives)
        if unit.done:  # failed by a node crash / preemption mid-transfer
            return
        if model is not None and directives and model.draw_fault():
            self._m_staging_faults.inc()
            self.fault_domain.record(
                self._clock.now,
                "staging_fault",
                unit=unit.description.name,
                attempt=attempt,
            )
            if attempt > model.max_retries:
                self._fail(
                    unit,
                    UnitFailure(
                        f"staging failed after {attempt} attempts"
                    ),
                )
                return
            self._m_retries.inc()
            self._clock.schedule(
                model.backoff(attempt),
                lambda: None
                if unit.done
                else self._run_staging(
                    unit, directives, on_done, attempt + 1, model
                ),
            )
            return
        on_done()

    def _count_staged(self, directives) -> None:
        """Count a settled staging step: each file's size into
        ``staging.bytes_mb`` and one transfer into ``staging.transfers``."""
        for d in directives:
            self._m_staged_mb.inc(d.size_mb)
            self._m_transfers.inc()

    def _run_staging(
        self, unit: ComputeUnit, directives, on_done, attempt: int = 1,
        model=None,
    ) -> None:
        """Schedule one staging attempt (see :meth:`_staging_event`)."""
        delay, done = self._staging_event(
            unit, directives, on_done, attempt, model
        )
        self._clock.schedule(delay, done)

    def _begin_staging_in(self, unit: ComputeUnit, batch=None) -> None:
        self._h_wait.observe(
            self._clock.now - unit.timestamps[UnitState.SCHEDULING]
        )
        unit.advance(UnitState.STAGING_INPUT, self._clock.now)
        directives = unit.description.input_staging

        def _staged():
            self._count_staged(directives)
            self._begin_launch(unit)

        pair = self._staging_event(unit, directives, _staged)
        if batch is None:
            self._clock.schedule(*pair)
        else:
            batch.append(pair)

    def _begin_launch(self, unit: ComputeUnit) -> None:
        unit.advance(UnitState.AGENT_EXECUTING_PENDING, self._clock.now)
        delay = self._cluster.launcher.launch_delay(
            self._launch_pending, cores=unit.description.cores
        )
        self._launch_pending += 1

        def _launched():
            self._launch_pending -= 1
            if unit.done:
                return
            self._begin_execution(unit)

        self._clock.schedule(delay, _launched)

    def _begin_execution(self, unit: ComputeUnit) -> None:
        unit.advance(UnitState.EXECUTING, self._clock.now)
        self._m_started.inc()

        fails, fraction = self.failure_model.draw(unit.description.metadata)
        duration = unit.description.duration

        if fails:
            self._clock.schedule(
                duration * fraction, lambda: self._fail(unit, UnitFailure("injected"))
            )
            return

        # Run the real numerics now; the *result* is available when the unit
        # completes on the virtual clock.  A raising work callable fails the
        # unit exactly like an injected fault.  Run-once semantics survive
        # watchdog relaunches: a killed attempt restarts the clock, never
        # the numerics.
        if unit.description.work is not None:
            try:
                unit.result = unit.description.work()
            except Exception as exc:  # noqa: BLE001 - task isolation boundary
                self._clock.schedule(
                    0.0, lambda exc=exc: self._fail(unit, exc)
                )
                return

        self._start_attempt(unit, attempt=1)

    def _start_attempt(self, unit: ComputeUnit, attempt: int) -> None:
        """One execution attempt: schedule its completion candidate.

        The gray fault domain may dilate the nominal duration (slow
        nodes) or hang the attempt outright — a hung attempt schedules
        *no* completion event, so only a watchdog deadline kill can end
        it.  With gray faults and the watchdog both off this reduces to
        exactly one completion event at the nominal duration, the
        pre-watchdog behaviour byte for byte.
        """
        duration = unit.description.duration
        hung = False
        fd = self.fault_domain
        if fd is not None and fd.wants_gray:
            duration *= self._dilation(unit)
            if fd.draw_hang():
                hung = True
                fd.record_hang(self._clock.now, unit.description.name, attempt)
        event = None
        if not hung:
            event = self._clock.schedule(
                duration, lambda: self._finish_execution(unit)
            )
        if self.watchdog is not None:
            self._attempts[unit] = event
            self.watchdog.on_execution_start(
                unit,
                expected=unit.description.duration,
                attempt=attempt,
                hung=hung,
            )

    def _finish_execution(self, unit: ComputeUnit, shadow: bool = False) -> None:
        """A completion candidate fired; first one wins, exactly once.

        ``shadow`` marks the speculative copy.  The loser's event is
        cancelled (and for a losing shadow its cores are freed), so the
        DONE transition, the completion counter and the output staging
        all happen exactly once per unit no matter how many candidates
        raced.
        """
        if unit.done:
            return
        if self.watchdog is not None:
            primary = self._attempts.pop(unit, None)
            if shadow and primary is not None:
                primary.cancel()
            if self._cancel_shadow(unit, keep_event=shadow):
                self._try_schedule()
            self.watchdog.on_execution_finish(unit, from_shadow=shadow)
        self._begin_staging_out(unit)

    # -- watchdog recovery API ----------------------------------------------

    def relaunch_execution(self, unit: ComputeUnit, delay: float, attempt: int) -> None:
        """Kill the current attempt and start attempt ``attempt`` later.

        The watchdog's deadline verdict: the pending completion candidate
        (if any — hung attempts have none) is cancelled, the unit stays
        EXECUTING on its cores, and a fresh attempt begins after the
        backoff ``delay`` — re-drawing the hang fault, so a relaunch can
        hang again and burn another bounded attempt.
        """
        event = self._attempts.pop(unit, None)
        if event is not None:
            event.cancel()
        self._clock.schedule(
            delay,
            lambda: None if unit.done else self._start_attempt(unit, attempt),
        )

    def fail_execution(self, unit: ComputeUnit, reason: str) -> None:
        """Watchdog escalation: the unit fails for good (retries exhausted)."""
        self._fail(unit, UnitFailure(reason))

    def launch_speculative(self, unit: ComputeUnit) -> bool:
        """Place a speculative duplicate of ``unit``'s execution.

        The copy takes real cores (first-fit, like any placement), is
        charged a launcher delay plus the duplicate's own dilated
        runtime, and races the original: whichever completion candidate
        fires first finishes the unit via :meth:`_finish_execution`.
        Returns False (no copy) when the unit is not supervised-running
        or the pilot lacks free cores right now.
        """
        desc = unit.description
        if unit.done or unit not in self._attempts or unit in self._shadows:
            return False
        if desc.cores > self.free_cores or desc.gpus > self.free_gpus:
            return False
        placement = self._take_cores(desc.cores)
        self.free_cores -= desc.cores
        self.free_gpus -= desc.gpus
        delay = self._cluster.launcher.launch_delay(
            self._launch_pending, cores=desc.cores
        )
        duration = desc.duration
        fd = self.fault_domain
        if fd is not None and fd.node_dilation:
            duration *= fd.dilation_for(placement)
        event = self._clock.schedule(
            delay + duration,
            lambda: self._finish_execution(unit, shadow=True),
        )
        self._shadows[unit] = (event, placement)
        self._update_occupancy()
        return True

    def _cancel_shadow(self, unit: ComputeUnit, keep_event: bool = False) -> bool:
        """Retire a unit's speculative copy and free its cores.

        ``keep_event`` skips cancelling the shadow's completion event
        (set when that event is the one currently firing).  Cores on
        quarantined nodes stay gone, mirroring :meth:`_release`.
        """
        entry = self._shadows.pop(unit, None)
        if entry is None:
            return False
        event, placement = entry
        if not keep_event:
            event.cancel()
        for node, taken in placement.items():
            if node not in self._quarantined:
                if self._node_free[node] == 0:
                    bisect.insort(self._free_nodes, node)
                self._node_free[node] += taken
                self.free_cores += taken
        self.free_gpus += unit.description.gpus
        return True

    def _fail(self, unit: ComputeUnit, exc: BaseException) -> None:
        if unit.done:  # already finished (e.g. crash raced a failure event)
            return
        if self.watchdog is not None:
            event = self._attempts.pop(unit, None)
            if event is not None:
                event.cancel()
            self._cancel_shadow(unit)
            self.watchdog.on_unit_final(unit)
        unit.exception = exc
        unit.advance(UnitState.FAILED, self._clock.now)
        self._m_failed.inc()
        self._release(unit)

    def _begin_staging_out(self, unit: ComputeUnit) -> None:
        unit.advance(UnitState.STAGING_OUTPUT, self._clock.now)
        directives = unit.description.output_staging

        def _staged():
            self._count_staged(directives)
            unit.advance(UnitState.DONE, self._clock.now)
            self._m_completed.inc()
            self._release(unit)

        self._run_staging(unit, directives, _staged)

    def _release(self, unit: ComputeUnit) -> None:
        self._running.pop(unit, None)
        placement = self._placement.pop(unit, None)
        if placement is None:
            self.free_cores += unit.description.cores
        else:
            # Cores on quarantined nodes are gone — they left capacity when
            # the node crashed and must not rejoin the free pool.
            for node, taken in placement.items():
                if node not in self._quarantined:
                    if self._node_free[node] == 0:
                        bisect.insort(self._free_nodes, node)
                    self._node_free[node] += taken
                    self.free_cores += taken
        self.free_gpus += unit.description.gpus
        if self.free_cores > self.capacity or self.free_gpus > self.gpu_capacity:
            raise SchedulerError("resource accounting corrupted (double release)")
        self._try_schedule()
        self._update_occupancy()
