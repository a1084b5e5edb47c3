"""Execution Management Module (EMM).

"EMM enables a separation of execution details (viz., resource management
and workload configuration) from the simulation ... Encapsulation of
synchronization routines by EMM allows to fully specify synchronous or
asynchronous RE by a single EMM." (paper, Sec. 3.3.)

Two EMMs implement the two RE patterns:

* :class:`SynchronousEMM` — global barrier between MD and exchange phases
  (Fig. 1a / Figs. 2-3), in either Execution Mode.
* :class:`AsynchronousEMM` — no barrier: replicas that finish MD join an
  exchange pool; a time-window (or FIFO-count) criterion triggers exchange
  sweeps among pooled replicas while others keep simulating (Fig. 1b).

Both produce a :class:`~repro.core.results.SimulationResult` with the
per-cycle Eq. 1 decomposition and the core-seconds accounting behind the
utilization metric of Eq. 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.core.adaptive import build_adaptive
from repro.core.amm import ApplicationManager
from repro.core.config import SimulationConfig
from repro.core.exchange.base import SwapProposal
from repro.core.execution_modes import ExecutionMode, make_mode, precompute_md
from repro.core.fault import FaultAction, FaultPolicy, policy_from_spec
from repro.core.replica import Replica, ReplicaStatus
from repro.core.results import CycleTiming, SimulationResult
from repro.obs.ladder import LadderTracker
from repro.pilot.pilot import Pilot, PilotState
from repro.pilot.session import Session
from repro.pilot.unit import ComputeUnit


@dataclass
class AsyncState:
    """The asynchronous event loop's progress: what a quiesce saves.

    The one owner of a checkpoint's ``async_state`` block — its keys and
    key types (:meth:`to_dict`, :meth:`from_dict`) and the counts derived
    from it (:attr:`n_done`, :attr:`finished`, :attr:`next_cycle`).
    Replica ids are written as string keys: JSON turns int keys into
    strings anyway, and only string keys sort the same before and after a
    round trip, which the checkpoint's content checksum relies on.
    """

    #: the run's cycle target (fixed by the config, so never saved)
    n_cycles: int
    #: completed cycles per replica; written only through :meth:`set_cycles`
    cycles_done: Dict[int, int]
    #: consecutive failed attempts of each replica's current cycle, so
    #: relaunch budgets actually exhaust (dropped on success/continue)
    md_attempts: Dict[int, int] = field(default_factory=dict)
    #: rids awaiting exchange, in arrival order
    pool: List[int] = field(default_factory=list)
    #: rids whose launch a quiesce held back, in submission order (both
    #: orders pin event sequencing on resume)
    deferred: List[int] = field(default_factory=list)
    #: exchange sweeps started so far
    sweep: int = 0
    #: id the next spawned replica gets
    rid_next: int = 0
    #: quiesce checkpoints captured so far (by this run and its ancestors)
    n_quiesces: int = 0
    #: fire time of the pending window timer, so restore re-arms it in phase
    window_next_t: Optional[float] = None

    def __post_init__(self) -> None:
        # The loop's done test runs after every event, so it must not
        # rescan ``cycles_done`` (quadratic at 1000 replicas): keep an
        # exact count of finished replicas, restored ones included.
        self.n_done = sum(
            c >= self.n_cycles for c in self.cycles_done.values()
        )

    def set_cycles(self, rid: int, value: int) -> None:
        """Record ``rid``'s completed cycles, keeping :attr:`n_done` exact."""
        was_done = self.cycles_done.get(rid, 0) >= self.n_cycles
        self.cycles_done[rid] = value
        self.n_done += (value >= self.n_cycles) - was_done

    @property
    def finished(self) -> bool:
        """Every replica has run (or was retired at) its last cycle."""
        return self.n_done == len(self.cycles_done)

    @property
    def next_cycle(self) -> int:
        """The least-progressed replica's next cycle."""
        return min(self.cycles_done.values(), default=0)

    def to_dict(self) -> Dict[str, object]:
        """The checkpoint's ``async_state`` block."""
        return {
            "cycles_done": {str(r): c for r, c in self.cycles_done.items()},
            "md_attempts": {str(r): n for r, n in self.md_attempts.items()},
            "pool": list(self.pool),
            "deferred": list(self.deferred),
            "sweep": self.sweep,
            "rid_next": self.rid_next,
            "n_quiesces": self.n_quiesces,
            "window_next_t": self.window_next_t,
        }

    @classmethod
    def from_dict(cls, data, n_cycles: int) -> "AsyncState":
        """Parse a block :meth:`to_dict` wrote (``window_next_t`` may be
        absent); a malformed one raises ``KeyError``, ``TypeError``,
        ``ValueError`` or ``AttributeError`` naming ``async_state``."""
        if not isinstance(data, dict):
            raise TypeError("asynchronous checkpoint has no async_state block")
        try:
            window = data.get("window_next_t")
            return cls(
                n_cycles=n_cycles,
                cycles_done={
                    int(r): int(c) for r, c in data["cycles_done"].items()
                },
                md_attempts={
                    int(r): int(n) for r, n in data["md_attempts"].items()
                },
                pool=[int(r) for r in data["pool"]],
                deferred=[int(r) for r in data["deferred"]],
                sweep=int(data["sweep"]),
                rid_next=int(data["rid_next"]),
                n_quiesces=int(data["n_quiesces"]),
                window_next_t=float(window) if window is not None else None,
            )
        except KeyError as exc:
            raise KeyError(f"async_state missing {exc.args[0]}") from None


class ExecutionManagerBase:
    """Shared plumbing of the two pattern EMMs.

    Each EMM keeps its run state on itself, set when a run begins —
    ``t_start``, ``timings``, ``proposals`` and the pattern's own position
    (the synchronous ``next_cycle``, the asynchronous :class:`AsyncState`)
    — so one
    :meth:`Checkpoint.capture <repro.core.checkpoint.Checkpoint.capture>`
    and one :func:`~repro.core.checkpoint.restore` serve both patterns.
    """

    def __init__(
        self,
        config: SimulationConfig,
        amm: ApplicationManager,
        session: Session,
        pilot: Pilot,
        mode: Optional[ExecutionMode] = None,
    ):
        self.config = config
        self.amm = amm
        self.session = session
        self.pilot = pilot
        self.mode = mode or make_mode(config.effective_mode)
        self.policy: FaultPolicy = policy_from_spec(config.failure)
        self.replicas: List[Replica] = []
        #: the run's checkpoint journal, made by its first capture (a
        #: :class:`~repro.core.checkpoint.Journal`)
        self.journal = None
        #: the run's log of finished units (a
        #: :class:`~repro.obs.manifest.ManifestStream`, set by the
        #: framework facade when tracing), which checkpoints journal
        self.run_log = None
        #: checkpoint every N completed cycles (0 = never); snapshots go to
        #: ``checkpoint_sink`` (set by the framework facade)
        self.checkpoint_every = 0
        self.checkpoint_sink = None
        #: stop (with ``result.interrupted``) once this many cycles are
        #: done — the hook the kill+resume integration test uses
        self.stop_after_cycle: Optional[int] = None
        #: async pattern: quiesce + checkpoint every N virtual seconds
        #: (0 = never)
        self.checkpoint_every_s = 0.0
        #: async pattern: stop (with ``result.interrupted``) once this many
        #: checkpoints exist (counting any the resumed-from snapshot had)
        self.stop_after_checkpoint: Optional[int] = None
        #: async pattern: one-shot quiesce triggers, in seconds after run
        #: start (e.g. a preemption warning ahead of a scheduled preempt)
        self.quiesce_rel_times: List[float] = []
        self.n_failures = 0
        self.n_relaunches = 0
        self.n_retired = 0
        self.n_spawned = 0
        self.md_core_seconds = 0.0
        self.exchange_core_seconds = 0.0
        #: staging time of the most recent exchange phase (SP + exchange
        #: units), folded into the cycle's T_data
        self._last_exchange_data_time = 0.0
        # Observability: the session's registry stamps spans on its
        # virtual clock; instrument references are cached for the event
        # loop.
        self.metrics = session.registry
        self._c_sweeps = self.metrics.counter("emm.exchange_sweeps")
        self._c_failures = self.metrics.counter("emm.failures")
        self._c_relaunches = self.metrics.counter("emm.relaunches")
        self._h_cycle_span = self.metrics.histogram("emm.cycle_seconds")
        self._c_captured = self.metrics.counter("checkpoint.captured")
        self._c_quiesces = self.metrics.counter("checkpoint.quiesces")
        self._h_drain = self.metrics.histogram("checkpoint.drain_seconds")
        # Registered only when the deadline-bounded barrier is on: zero
        # counters still appear in metric snapshots, and the default
        # (rigid-barrier) manifest must not change.
        if config.pattern.barrier_deadline_s is not None:
            self._c_deadline_fires = self.metrics.counter(
                "emm.barrier_deadline_fires"
            )
            self._c_barrier_late = self.metrics.counter("emm.barrier_late")
        # Exchange-dynamics tracking (ladder occupancy, round-trip times)
        # is registry-gated: a NullRegistry run creates no tracker, so
        # benchmark scenarios and golden traces see zero new work.
        self.ladder: Optional[LadderTracker] = None
        if self.metrics.enabled:
            self.ladder = LadderTracker(
                {d.name: d.n_windows for d in amm.dimensions},
                registry=self.metrics,
            )

    # -- helpers ---------------------------------------------------------------

    def _begin(self, resume) -> None:
        """Activate the pilot, then restore ``resume``'s run state (a
        :class:`~repro.core.checkpoint.Checkpoint`) or start afresh; the
        caller sets its own pattern state on a fresh start."""
        # imported here: the checkpoint module imports this one
        from repro.core.checkpoint import restore

        if self.pilot.state is PilotState.NEW:
            raise RuntimeError("pilot was never launched")
        if self.pilot.state is PilotState.PENDING:
            self.session.wait_pilot(self.pilot)
        if resume is not None:
            restore(self, resume)
            return
        self.replicas = self.amm.create_replicas()
        self.t_start = self.session.now
        self.timings = []
        self.proposals = []
        self.journal = None
        if self.ladder is not None:
            self.ladder.observe_all(self.t_start, self.replicas)

    def _checkpoint(self) -> None:
        """Hand the sink a snapshot of this quiet point."""
        from repro.core.checkpoint import Checkpoint

        # counted before capture so the snapshot's own metric state
        # already includes this checkpoint (a resumed run's totals then
        # telescope to the uninterrupted run's)
        self._c_captured.inc()
        self.checkpoint_sink(Checkpoint.capture(self))

    def _md_failed(self, rep: Replica, attempt: int) -> FaultAction:
        """Count one failed MD attempt of ``rep`` and apply the fault
        policy, retiring the replica when told to; returns the action
        (what a relaunch or continue means is the caller's business)."""
        self.n_failures += 1
        self._c_failures.inc()
        action = self.policy.on_failure(rep, attempt)
        if action is FaultAction.RETIRE:
            self._retire(rep)
        return action

    def _retire(self, rep: Replica) -> None:
        rep.status = ReplicaStatus.RETIRED
        self.n_retired += 1

    def _account_md(self, units: Sequence[ComputeUnit]) -> None:
        for u in units:
            self.md_core_seconds += u.execution_time * u.description.cores

    def _account_exchange(self, units: Sequence[ComputeUnit]) -> None:
        for u in units:
            self.exchange_core_seconds += (
                u.execution_time * u.description.cores
            )

    def _run_md_with_recovery(
        self, cycle: int, replicas: Sequence[Replica]
    ) -> Dict[int, ComputeUnit]:
        """Run the MD phase, applying the fault policy to failures.

        Returns rid -> the final unit for that replica (possibly a
        relaunched one).
        """
        descs = self.amm.md_tasks(replicas, cycle)
        units = self.mode.run_phase(self.session, self.pilot, descs)
        self._account_md(units)
        unit_of = {
            u.description.metadata["rid"]: u for u in units
        }
        self._apply_md_recovery(cycle, replicas, unit_of)
        return unit_of

    def _apply_md_recovery(
        self,
        cycle: int,
        replicas: Sequence[Replica],
        unit_of: Dict[int, ComputeUnit],
    ) -> None:
        """Apply the fault policy to failed units in ``unit_of`` (in place).

        Every unit in ``unit_of`` must be final; relaunched replicas get
        their new unit written back into the dict.
        """
        by_rid = {r.rid: r for r in replicas}
        attempt = 1
        while True:
            to_relaunch: List[Replica] = []
            for rid, unit in unit_of.items():
                if unit.succeeded:
                    continue
                action = self._md_failed(by_rid[rid], attempt)
                if action is FaultAction.RELAUNCH:
                    to_relaunch.append(by_rid[rid])
            if not to_relaunch:
                break
            redo = self.amm.md_tasks(to_relaunch, cycle)
            scheduler = self.pilot.scheduler
            if scheduler is not None:
                # Node quarantine may have shrunk the pilot below what a
                # relaunch needs; those replicas degrade to CONTINUE
                # (stale coordinates) instead of killing the run.
                kept = [
                    (r, d)
                    for r, d in zip(to_relaunch, redo)
                    if d.cores <= scheduler.capacity
                ]
                to_relaunch = [r for r, _ in kept]
                redo = [d for _, d in kept]
            if not to_relaunch:
                break
            self.n_relaunches += len(to_relaunch)
            self._c_relaunches.inc(len(to_relaunch))
            redo_units = self.mode.run_phase(self.session, self.pilot, redo)
            self._account_md(redo_units)
            for u in redo_units:
                unit_of[u.description.metadata["rid"]] = u
            attempt += 1

    def _wait_barrier(self, units: Sequence[ComputeUnit], deadline_s: float) -> None:
        """Drive the clock until all ``units`` finish or ``deadline_s`` passes.

        The deadline is measured from now (phase submission).  On return
        some units may still be in flight — the caller decides what to do
        with the stragglers.
        """
        pending = [u for u in units if not u.done]
        if not pending:
            return
        remaining = len(pending)
        fired = False

        def _on_final(_unit: ComputeUnit) -> None:
            nonlocal remaining
            remaining -= 1

        for unit in pending:
            unit.on_final(_on_final)

        def _fire() -> None:
            nonlocal fired
            fired = True

        timer = self.session.clock.schedule(deadline_s, _fire)
        self.session.clock.run_until(lambda: remaining == 0 or fired)
        if not fired:
            timer.cancel()

    def _run_md_bounded(
        self, cycle: int, replicas: Sequence[Replica], deadline_s: float
    ):
        """Deadline-bounded MD barrier (sync pattern, Mode I only).

        Submits the full fan-out, waits at most ``deadline_s`` virtual
        seconds, and returns ``(unit_of, late_rids)``.  Late units are
        still in flight: the caller runs the exchange over the arrived
        replicas (graceful degradation — a straggler or hang no longer
        stalls the whole ensemble) and collects the stragglers after the
        window closes.  Fault-policy recovery applies only to replicas
        that arrived within the window.
        """
        descs = self.amm.md_tasks(replicas, cycle)
        precompute_md(descs)
        units = self.session.submit_units(self.pilot, descs)
        self._wait_barrier(units, deadline_s)
        unit_of = {u.description.metadata["rid"]: u for u in units}
        late_rids = [rid for rid in sorted(unit_of) if not unit_of[rid].done]
        late = set(late_rids)
        arrived = [r for r in replicas if r.rid not in late]
        arrived_of = {r.rid: unit_of[r.rid] for r in arrived}
        self._account_md(list(arrived_of.values()))
        if late_rids:
            self._c_deadline_fires.inc()
            self._c_barrier_late.inc(len(late_rids))
            fd = self.session.fault_domain
            if fd is not None:
                fd.record(
                    self.session.now,
                    "barrier_deadline",
                    cycle=cycle,
                    n_late=len(late_rids),
                )
        self._apply_md_recovery(cycle, arrived, arrived_of)
        unit_of.update(arrived_of)
        return unit_of, late_rids

    def _run_exchange(
        self,
        cycle: int,
        dimension,
        replicas: Sequence[Replica],
        span=None,
    ) -> List[SwapProposal]:
        """Run the full exchange phase for one cycle (SP tasks + exchange).

        ``span``, when given, is the open ``exchange`` span; it is
        annotated with the exchange unit's name so the trace analytics
        can join the phase view with the unit timeline.
        """
        self._last_exchange_data_time = 0.0
        energy_matrix = None
        if dimension.requires_single_point:
            sp_descs = self.amm.single_point_tasks(replicas, dimension, cycle)
            sp_units = self.mode.run_phase(self.session, self.pilot, sp_descs)
            self._account_exchange(sp_units)
            self._last_exchange_data_time += max(
                (u.data_time for u in sp_units), default=0.0
            )
            energy_matrix = {}
            for u in sp_units:
                if u.succeeded and isinstance(u.result, dict):
                    energy_matrix[u.description.metadata["rid"]] = u.result

        ex_desc = self.amm.exchange_task(
            replicas, dimension, cycle, energy_matrix=energy_matrix
        )
        if span is not None:
            span.unit = ex_desc.name
        ex_units = self.session.submit_units(self.pilot, [ex_desc])
        self.session.wait_units(ex_units)
        self._account_exchange(ex_units)
        ex_unit = ex_units[0]
        self._last_exchange_data_time += ex_unit.data_time
        if not ex_unit.succeeded or ex_unit.result is None:
            return []
        proposals = list(ex_unit.result)
        self.amm.apply_proposals(replicas, dimension, proposals)
        return proposals

    def _build_result(self, interrupted: bool) -> SimulationResult:
        if self.ladder is not None:
            # close the occupancy integral at the run's end; checkpoints
            # are always captured before this point, so an interrupted
            # run's snapshot never contains finalized dwell
            self.ladder.finalize(self.session.now)
        return SimulationResult(
            title=self.config.title,
            type_string=self.config.type_string,
            pattern=self.config.pattern.kind,
            execution_mode=self.mode.name,
            n_replicas=self.config.n_replicas,
            pilot_cores=self.pilot.description.cores,
            replicas=self.replicas,
            cycle_timings=self.timings,
            proposals=self.proposals,
            exchange_stats=self.amm.exchange_stats,
            md_core_seconds=self.md_core_seconds,
            exchange_core_seconds=self.exchange_core_seconds,
            t_start=self.t_start,
            t_end=self.session.now,
            n_failures=self.n_failures,
            n_relaunches=self.n_relaunches,
            steps_per_cycle=self.config.steps_per_cycle,
            n_retired=self.n_retired,
            n_spawned=self.n_spawned,
            interrupted=interrupted,
        )


class SynchronousEMM(ExecutionManagerBase):
    """Barrier-synchronized RE (Fig. 1a): MD all, exchange, repeat."""

    def run(self, resume=None) -> SimulationResult:
        """Execute the configured number of cycles; returns the result.

        With ``resume`` (a :class:`~repro.core.checkpoint.Checkpoint`),
        replica creation is skipped, state is restored from the snapshot
        and execution continues at its ``next_cycle`` — bit-identical to
        an uninterrupted run at the same seed.
        """
        # only this pattern has global cycles; the asynchronous one
        # counts its sweeps as emm.exchange_sweeps
        self._c_cycles = self.metrics.counter("emm.cycles")
        self._begin(resume)
        if resume is None:
            # the first cycle not yet run, where a checkpoint resumes
            self.next_cycle = 0
        interrupted = False

        for cycle in range(self.next_cycle, self.config.n_cycles):
            dimension = (
                self.amm.schedule.active(cycle)
                if self.config.exchange_enabled
                else None
            )
            cycle_start = self.session.now
            cycle_span = self.metrics.begin_span(
                "cycle",
                pattern="synchronous",
                cycle=cycle,
                dimension=dimension.name if dimension else None,
            )

            # RepEx overhead: prepare and serialize task descriptions.
            prep = self.amm.perf.task_prep_overhead(
                len(self.replicas), self.amm.schedule.n_dims
            )
            self.session.run_for(prep)
            md_phase_start = self.session.now

            active = [
                r for r in self.replicas if r.status is ReplicaStatus.ACTIVE
            ]
            md_span = self.metrics.begin_span(
                "md", parent=cycle_span, cycle=cycle, n_replicas=len(active)
            )
            deadline_s = self.config.pattern.barrier_deadline_s
            if deadline_s is None:
                unit_of = self._run_md_with_recovery(cycle, active)
                on_time: List[Replica] = active
                late_rids: List[int] = []
            else:
                unit_of, late_rids = self._run_md_bounded(
                    cycle, active, deadline_s
                )
                late = set(late_rids)
                on_time = [r for r in active if r.rid not in late]
            md_end = self.session.now
            md_span.end()

            dim_name = dimension.name if dimension else None
            n_failed = self.amm.process_md_outputs(
                on_time, [unit_of[r.rid] for r in on_time], cycle, dim_name
            ).count(False)

            proposals: List[SwapProposal] = []
            if dimension is not None:
                healthy = [
                    r
                    for r in on_time
                    if r.status is ReplicaStatus.ACTIVE
                    and not (r.history and r.history[-1].failed)
                ]
                with self.metrics.span(
                    "exchange",
                    parent=cycle_span,
                    pattern="synchronous",
                    cycle=cycle,
                    dimension=dimension.name,
                ) as ex_span:
                    proposals = self._run_exchange(
                        cycle, dimension, healthy, span=ex_span
                    )
                self._c_sweeps.inc()
                self.proposals.extend(proposals)
                if self.ladder is not None:
                    # windows only move at applied swaps, so observing the
                    # participants right after the sweep keeps the
                    # piecewise-constant occupancy integral exact
                    self.ladder.observe_all(self.session.now, healthy)
            ex_end = self.session.now

            if late_rids:
                # Bounded staleness: the stragglers ran straight through
                # the exchange window; collect them now so the next cycle
                # starts from a consistent ensemble.  A late *failure*
                # degrades RELAUNCH to CONTINUE — its exchange window is
                # already gone, so it keeps pre-cycle coordinates and
                # rejoins next cycle (RETIRE still retires).
                by_rid = {r.rid: r for r in active}
                late_reps = [by_rid[rid] for rid in late_rids]
                late_units = [unit_of[rid] for rid in late_rids]
                self.session.wait_units(late_units)
                self._account_md(late_units)
                for rep, unit in zip(late_reps, late_units):
                    if not unit.succeeded:
                        self._md_failed(rep, 1)
                n_failed += self.amm.process_md_outputs(
                    late_reps, late_units, cycle, dim_name
                ).count(False)

            md_units = [unit_of[r.rid] for r in active]
            t_md = max((u.execution_time for u in md_units), default=0.0)
            t_rp = max((u.launch_overhead for u in md_units), default=0.0)
            t_data = (
                max((u.data_time for u in md_units), default=0.0)
                + self._last_exchange_data_time
            )
            self._last_exchange_data_time = 0.0
            self.timings.append(
                CycleTiming(
                    cycle=cycle,
                    dimension=dimension.name if dimension else None,
                    t_md=t_md,
                    t_md_span=max(0.0, md_end - md_phase_start),
                    t_ex=max(0.0, ex_end - md_end),
                    t_data=t_data,
                    t_repex=prep,
                    t_rp=t_rp,
                    span=self.session.now - cycle_start,
                    t_start=cycle_start,
                    t_end=self.session.now,
                    n_replicas=len(active),
                    n_failed=n_failed,
                    n_late=len(late_rids),
                )
            )
            cycle_span.end()
            self._c_cycles.inc()
            self._h_cycle_span.observe(self.session.now - cycle_start)

            self.next_cycle = completed = cycle + 1
            if (
                self.checkpoint_every
                and self.checkpoint_sink is not None
                and completed % self.checkpoint_every == 0
                and completed < self.config.n_cycles
            ):
                self._checkpoint()
            if (
                self.stop_after_cycle is not None
                and completed >= self.stop_after_cycle
                and completed < self.config.n_cycles
            ):
                interrupted = True
                break

        return self._build_result(interrupted)


class AsynchronousEMM(ExecutionManagerBase):
    """Barrier-free RE (Fig. 1b) with a time-window or FIFO criterion.

    Requires enough cores to run every replica concurrently (the paper's
    Fig. 13 async runs all use Execution Mode I); replicas whose MD is done
    idle in the exchange pool until the criterion fires, which is exactly
    the utilization gap the paper measures.

    The event loop is a small state machine: :attr:`state`
    (:class:`AsyncState`) holds what survives a quiet point, and the
    attributes :meth:`run` resets hold what only lives between two —
    units in flight, a running sweep, an open quiesce.
    """

    def run(self, resume=None) -> SimulationResult:
        """Event-driven main loop.

        With ``resume`` (an asynchronous
        :class:`~repro.core.checkpoint.Checkpoint` taken at a quiesce
        point), replica creation is skipped, the event loop's state is
        rebuilt from the snapshot, and the deferred launches are
        resubmitted in their captured order — bit-identical to the run
        that took the snapshot and kept going.

        The **quiesce protocol** provides the induced quiet points: on a
        trigger (every ``checkpoint_every_s`` virtual seconds, or a
        one-shot ``quiesce_rel_times`` entry such as a preemption
        warning) the loop stops launching — new MD submissions and
        exchange triggers are deferred, pooled replicas wait — drains
        in-flight units and any running exchange sweep to completion,
        captures a checkpoint at the resulting quiet point, then releases
        the deferred launches in order.  Quiescing perturbs the timeline
        (deferred launches start at the drain time), so bit-identity is
        defined against an uninterrupted run *with the same checkpoint
        cadence*, exactly as for any checkpointing system.
        """
        self._begin(resume)
        if resume is None:
            self.state = AsyncState(
                self.config.n_cycles,
                {r.rid: 0 for r in self.replicas},
                rid_next=max((r.rid for r in self.replicas), default=-1) + 1,
            )
        self._by_rid = {r.rid: r for r in self.replicas}
        self._criterion, self._spawner = build_adaptive(self.config.adaptive)
        self._spawn_rng = self.amm.rng.stream("adaptive-spawn")
        self._pool_gauge = self.metrics.gauge("emm.pool_depth")
        self._inflight: Dict[int, ComputeUnit] = {}
        self._exchange_busy = False
        self._interrupted = False
        #: quiesce protocol: while set, launches land in ``state.deferred``
        self._quiescing = False
        self._t_trigger = 0.0
        self._quiesce_span = None
        self._capture_event = None
        #: the pending window-timer event, whose fire time a capture saves
        self._window_event = None

        clock = self.session.clock
        # one-shot quiesce triggers (preemption warnings), relative to run
        # start; a resumed run keeps only those still ahead
        for rel in sorted(self.quiesce_rel_times):
            if resume is None or self.t_start + rel > self.session.now:
                clock.schedule_at(self.t_start + rel, self._begin_quiesce)
        if resume is None:
            # initial task preparation, charged like the sync pattern's
            self.session.run_for(
                self.amm.perf.task_prep_overhead(
                    len(self.replicas), self.amm.schedule.n_dims
                )
            )
            self._submit_md(self.replicas)
            if self.config.pattern.fifo_count is None:
                self._schedule_window()
        else:
            # re-arm what was pending at the quiet point, in the same
            # relative event order the capturing run had: window timer
            # first (its event predates the capture), then the deferred
            # launches, then the next periodic trigger
            if self.state.window_next_t is not None:
                self._window_event = clock.schedule_at(
                    self.state.window_next_t, self._on_window
                )
            self._resume_launching()
        self._schedule_quiesce()

        clock.run_until(lambda: self._all_done() or self._interrupted)
        return self._build_result(self._interrupted)

    def _retire(self, rep: Replica) -> None:
        super()._retire(rep)
        # a failed or unlaunched task of a retiring replica is never
        # folded, so its files go here
        self.amm.discard_md(
            [self.amm.md_tag(rep, self.state.cycles_done[rep.rid])]
        )
        self.state.set_cycles(rep.rid, self.config.n_cycles)

    def _all_done(self) -> bool:
        state = self.state
        return (
            state.finished
            and not self._inflight
            and not state.pool
            and not self._exchange_busy
        )

    # -- MD ------------------------------------------------------------------

    def _submit_md(self, reps: Sequence[Replica]) -> None:
        """Launch the MD tasks of ``reps`` with unfinished cycles, in
        order, integrated as one batch before the first submission."""
        cycles_done = self.state.cycles_done
        reps = [r for r in reps if cycles_done[r.rid] < self.config.n_cycles]
        if self._quiescing:
            self.state.deferred.extend(r.rid for r in reps)
            return
        scheduler = self.pilot.scheduler
        launch = []
        descs = self.amm.md_tasks(reps, [cycles_done[r.rid] for r in reps])
        for rep, desc in zip(reps, descs):
            if scheduler is not None and desc.cores > scheduler.capacity:
                # Node quarantine shrank the pilot below this task; the
                # replica can never run again, so retire it instead of
                # letting the submission kill the event loop.
                self._retire(rep)
            else:
                launch.append((rep, desc))
        precompute_md([desc for _, desc in launch])
        for rep, desc in launch:
            unit = self.session.submit_units(self.pilot, [desc])[0]
            self._inflight[rep.rid] = unit
            unit.on_final(lambda u, r=rep: self._on_md_final(r, u))

    def _on_md_final(self, rep: Replica, unit: ComputeUnit) -> None:
        if self._inflight.get(rep.rid) is not unit:
            return  # stale callback from a relaunched task
        try:
            self._handle_md_final(rep, unit)
        finally:
            if self._quiescing:
                self._maybe_capture()
            else:
                self._maybe_drain()

    def _handle_md_final(self, rep: Replica, unit: ComputeUnit) -> None:
        state = self.state
        del self._inflight[rep.rid]
        self._account_md([unit])
        cycle = state.cycles_done[rep.rid]
        if not unit.succeeded:
            attempt = state.md_attempts.get(rep.rid, 0) + 1
            state.md_attempts[rep.rid] = attempt
            action = self._md_failed(rep, attempt)
            if action is FaultAction.RELAUNCH:
                self.n_relaunches += 1
                self._c_relaunches.inc()
                self._submit_md([rep])
                return
            del state.md_attempts[rep.rid]
            if action is FaultAction.CONTINUE:
                # count the cycle, resubmit if more remain
                self.amm.process_md_outputs([rep], [unit], cycle, None)
                state.set_cycles(rep.rid, cycle + 1)
                self._submit_md([rep])
            return

        state.md_attempts.pop(rep.rid, None)
        self.amm.process_md_outputs([rep], [unit], cycle, None)
        done = cycle + 1
        state.set_cycles(rep.rid, done)
        if done >= self.config.n_cycles:
            return
        # adaptive sampling: retire converged replicas, release their
        # cores, optionally refill the lattice point from a donor
        adaptive = self.config.adaptive
        if (
            adaptive.enabled
            and done >= adaptive.min_cycles
            and self._criterion.should_terminate(rep)
        ):
            self._retire(rep)
            if (
                adaptive.spawn_replacements
                and self.n_spawned < adaptive.max_spawns
            ):
                fresh = self._spawner.spawn(
                    rep, self.replicas, state.rid_next, self._spawn_rng
                )
                if fresh is not None:
                    state.rid_next += 1
                    self.n_spawned += 1
                    self.replicas.append(fresh)
                    self._by_rid[fresh.rid] = fresh
                    state.set_cycles(fresh.rid, done)
                    self._submit_md([fresh])
            return
        state.pool.append(rep.rid)
        self._pool_gauge.set(len(state.pool))
        fifo_count = self.config.pattern.fifo_count
        if fifo_count is not None and len(state.pool) >= fifo_count:
            self._trigger_exchange()

    # -- exchange ------------------------------------------------------------

    def _check_criterion(self) -> None:
        """Trigger an exchange if the pool meets the FIFO count, else make
        sure pooled replicas are not stranded."""
        fifo_count = self.config.pattern.fifo_count
        if fifo_count is not None and len(self.state.pool) >= fifo_count:
            self._trigger_exchange()
        else:
            self._maybe_drain()

    def _maybe_drain(self) -> None:
        """FIFO mode: never leave pooled replicas stranded when no MD
        is in flight (the count criterion can no longer fire)."""
        if self.config.pattern.fifo_count is None:
            return  # the window timer handles stragglers
        if self._inflight or self._exchange_busy:
            return
        if len(self.state.pool) >= 2:
            self._trigger_exchange()
        elif self.state.pool:
            self._flush_pool()

    def _trigger_exchange(self) -> None:
        state = self.state
        if self._quiescing or self._exchange_busy or len(state.pool) < 2:
            return
        ready = [self._by_rid[rid] for rid in state.pool]
        state.pool.clear()
        self._pool_gauge.set(0)
        self._exchange_busy = True
        sweep = state.sweep
        state.sweep += 1
        dimension = self.amm.schedule.active(sweep)
        t_sweep_start = self.session.now
        sweep_span = self.metrics.begin_span(
            "exchange",
            pattern="asynchronous",
            sweep=sweep,
            dimension=dimension.name,
            n_replicas=len(ready),
        )

        # S-REMD in async mode would need its SP stage serialized here;
        # the paper's async experiments are T-REMD, and we support the
        # cheap dimensions (T/U/pH) asynchronously.
        if dimension.requires_single_point:
            raise NotImplementedError(
                "asynchronous S-REMD is not supported (the paper's "
                "async experiments use T-REMD)"
            )

        ex_desc = self.amm.exchange_task(ready, dimension, sweep)
        sweep_span.unit = ex_desc.name
        unit = self.session.submit_units(self.pilot, [ex_desc])[0]
        unit.on_final(
            lambda u: self._on_exchange_final(
                u, ready, dimension, sweep, t_sweep_start, sweep_span
            )
        )

    def _on_exchange_final(
        self, unit, ready, dimension, sweep, t_sweep_start, sweep_span
    ) -> None:
        sweep_span.end()
        self._c_sweeps.inc()
        self._account_exchange([unit])
        proposals = list(unit.result) if unit.succeeded and unit.result else []
        self.amm.apply_proposals(ready, dimension, proposals)
        self.proposals.extend(proposals)
        now = self.session.now
        if self.ladder is not None:
            self.ladder.observe_all(now, ready)
        # RepEx task preparation for the resubmitted MD phases is charged
        # here, exactly as the sync pattern charges it per cycle; replicas
        # idle during preparation.
        prep = self.amm.perf.task_prep_overhead(
            len(ready), self.amm.schedule.n_dims
        )
        self.timings.append(
            CycleTiming(
                cycle=sweep,
                dimension=dimension.name,
                t_md=0.0,
                t_ex=now - t_sweep_start,
                t_data=unit.data_time,
                t_repex=prep,
                t_rp=unit.launch_overhead,
                span=now + prep - t_sweep_start,
                t_start=t_sweep_start,
                t_end=now + prep,
                n_replicas=len(ready),
            )
        )
        self._h_cycle_span.observe(now + prep - t_sweep_start)
        self.session.clock.schedule(prep, lambda: self._resubmit(ready))

    def _resubmit(self, ready: List[Replica]) -> None:
        self._exchange_busy = False
        self._submit_md(ready)
        if self._quiescing:
            # the drain was waiting on this sweep; the resubmissions
            # above were deferred
            self._maybe_capture()
        else:
            # replicas that pooled during this exchange may already
            # satisfy the FIFO criterion
            self._check_criterion()

    def _flush_pool(self) -> None:
        """Resubmit pooled replicas without exchange (no partners left)."""
        ready, self.state.pool = self.state.pool, []
        self._pool_gauge.set(0)
        self._submit_md([self._by_rid[rid] for rid in ready])

    def _schedule_window(self) -> None:
        self._window_event = (
            None
            if self._all_done()
            else self.session.clock.schedule(
                self.config.pattern.window_seconds, self._on_window
            )
        )

    def _on_window(self) -> None:
        if not self._exchange_busy and not self._quiescing:
            if len(self.state.pool) >= 2:
                self._trigger_exchange()
            elif self.state.pool and not self._inflight:
                self._flush_pool()
        self._schedule_window()

    # -- quiesce protocol ----------------------------------------------------

    def _begin_quiesce(self) -> None:
        """Checkpoint trigger: stop launching and start the drain."""
        if self.checkpoint_sink is None:
            return
        if self._quiescing or self._interrupted or self._all_done():
            return
        self._quiescing = True
        self._t_trigger = self.session.now
        self._c_quiesces.inc()
        self._quiesce_span = self.metrics.begin_span(
            "quiesce",
            pattern="asynchronous",
            n_inflight=len(self._inflight),
            pool_depth=len(self.state.pool),
        )
        self._maybe_capture()

    def _maybe_capture(self) -> None:
        """Once the drain completes, arm the capture.

        The capture itself is deferred by one zero-delay event: the
        drain is detected from inside the final unit's completion
        callback, and sibling callbacks of that same event (scheduler
        accounting, tracer sinks) still have to run before the
        snapshot is taken — otherwise the captured obs state would
        be one unit-completion short of what the uninterrupted run
        records.  Launches stay blocked until the capture fires.
        """
        if (
            not self._quiescing
            or self._inflight
            or self._exchange_busy
            or self._capture_event is not None
        ):
            return
        self._capture_event = self.session.clock.schedule(0.0, self._capture)

    def _capture(self) -> None:
        state = self.state
        self._capture_event = None
        # metrics and the span are finalized *before* the capture so the
        # snapshot's own obs state already reflects this checkpoint — a
        # resumed run's totals then telescope to the uninterrupted run's
        self._h_drain.observe(self.session.now - self._t_trigger)
        self._quiesce_span.end()
        self._quiescing = False
        state.n_quiesces += 1
        event = self._window_event
        state.window_next_t = (
            event.time if event is not None and not event.cancelled else None
        )
        self._checkpoint()
        if (
            self.stop_after_checkpoint is not None
            and state.n_quiesces >= self.stop_after_checkpoint
        ):
            self._interrupted = True
            return
        self._resume_launching()
        self._schedule_quiesce()

    def _resume_launching(self) -> None:
        """Release deferred launches in captured order and re-check the
        exchange criterion (same shape as post-exchange resubmit)."""
        pending, self.state.deferred = self.state.deferred, []
        self._submit_md([self._by_rid[rid] for rid in pending])
        self._check_criterion()

    def _schedule_quiesce(self) -> None:
        if self.checkpoint_sink is not None and self.checkpoint_every_s > 0:
            self.session.clock.schedule(
                self.checkpoint_every_s, self._begin_quiesce
            )
