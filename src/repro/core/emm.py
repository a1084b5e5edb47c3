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

from typing import Dict, List, Optional, Sequence

from repro.core.amm import ApplicationManager
from repro.core.config import SimulationConfig
from repro.core.exchange.base import SwapProposal
from repro.core.execution_modes import ExecutionMode, make_mode, precompute_md
from repro.core.fault import FaultAction, FaultPolicy, policy_from_spec
from repro.core.replica import Replica, ReplicaStatus
from repro.core.results import CycleTiming, SimulationResult
from repro.obs import hostprof
from repro.obs.ladder import LadderTracker
from repro.obs.metrics import get_registry
from repro.pilot.pilot import Pilot, PilotState
from repro.pilot.session import Session
from repro.pilot.unit import ComputeUnit


class ExecutionManagerBase:
    """Shared plumbing of the two pattern EMMs."""

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
        # Observability: spans are stamped on this session's virtual
        # clock; instrument references are cached for the event loop.
        self.metrics = get_registry()
        self.metrics.bind_clock(session.clock)
        self._c_cycles = self.metrics.counter("emm.cycles")
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
        #: optional :class:`~repro.obs.alerts.AlertManager`, evaluated at
        #: cycle ends (sync) and sweep completions (async); installed by
        #: the framework facade when alert rules are configured
        self.alerts = None

    # -- helpers ---------------------------------------------------------------

    def _ensure_pilot_active(self) -> None:
        if self.pilot.state is PilotState.NEW:
            raise RuntimeError("pilot was never launched")
        if self.pilot.state is PilotState.PENDING:
            self.session.wait_pilot(self.pilot)

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
        descs = [self.amm.md_task(r, cycle) for r in replicas]
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
        attempt = 1
        while True:
            failed = [
                rid for rid, u in unit_of.items() if not u.succeeded
            ]
            if not failed:
                break
            self.n_failures += len(failed)
            self._c_failures.inc(len(failed))
            to_relaunch: List[Replica] = []
            by_rid = {r.rid: r for r in replicas}
            for rid in failed:
                action = self.policy.on_failure(by_rid[rid], attempt)
                if action is FaultAction.RELAUNCH:
                    to_relaunch.append(by_rid[rid])
                elif action is FaultAction.RETIRE:
                    by_rid[rid].status = ReplicaStatus.RETIRED
                    self.n_retired += 1
            if not to_relaunch:
                break
            redo = [self.amm.md_task(r, cycle) for r in to_relaunch]
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
        remaining = [len(pending)]

        def _on_final(unit: ComputeUnit, _state) -> None:
            if unit.done:
                remaining[0] -= 1

        for unit in pending:
            unit.register_callback(_on_final)
        fired = {"flag": False}

        def _fire() -> None:
            fired["flag"] = True

        timer = self.session.clock.schedule(deadline_s, _fire)
        self.session.clock.run_until(
            lambda: remaining[0] == 0 or fired["flag"]
        )
        if not fired["flag"]:
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
        descs = [self.amm.md_task(r, cycle) for r in replicas]
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
        if energy_matrix is not None:
            # drop proposals involving replicas whose SP task failed
            proposals = [
                p
                for p in proposals
                if p.rid_i in energy_matrix and p.rid_j in energy_matrix
            ]
        self.amm.apply_proposals(replicas, dimension, proposals)
        return proposals

    def _build_result(self, timings: List[CycleTiming], t_start: float) -> SimulationResult:
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
            cycle_timings=timings,
            exchange_stats=self.amm.exchange_stats,
            md_core_seconds=self.md_core_seconds,
            exchange_core_seconds=self.exchange_core_seconds,
            t_start=t_start,
            t_end=self.session.now,
            n_failures=self.n_failures,
            n_relaunches=self.n_relaunches,
            steps_per_cycle=self.config.steps_per_cycle,
            n_retired=self.n_retired,
            n_spawned=self.n_spawned,
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
        from repro.core import checkpoint as ckpt_mod

        self._ensure_pilot_active()
        if resume is not None:
            start_cycle, t_start, timings, all_proposals = ckpt_mod.restore(
                self, resume
            )
        else:
            self.replicas = self.amm.create_replicas()
            start_cycle = 0
            t_start = self.session.now
            timings = []
            all_proposals = []
            if self.ladder is not None:
                self.ladder.reset()
                self.ladder.observe_all(t_start, self.replicas)
        interrupted = False

        for cycle in range(start_cycle, self.config.n_cycles):
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

            n_failed = 0
            with hostprof.section("emm"):
                for rep in on_time:
                    ok = self.amm.process_md_output(
                        rep,
                        unit_of[rep.rid],
                        cycle,
                        dimension.name if dimension else None,
                    )
                    if not ok:
                        n_failed += 1

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
                all_proposals.extend(proposals)
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
                late_units = [unit_of[rid] for rid in late_rids]
                self.session.wait_units(late_units)
                self._account_md(late_units)
                for rid in late_rids:
                    rep = by_rid[rid]
                    unit = unit_of[rid]
                    if not unit.succeeded:
                        self.n_failures += 1
                        self._c_failures.inc()
                        action = self.policy.on_failure(rep, 1)
                        if action is FaultAction.RETIRE:
                            rep.status = ReplicaStatus.RETIRED
                            self.n_retired += 1
                    ok = self.amm.process_md_output(
                        rep,
                        unit,
                        cycle,
                        dimension.name if dimension else None,
                    )
                    if not ok:
                        n_failed += 1

            md_units = [unit_of[r.rid] for r in active]
            t_md = max((u.execution_time for u in md_units), default=0.0)
            t_rp = max((u.launch_overhead for u in md_units), default=0.0)
            t_data = (
                max((u.data_time for u in md_units), default=0.0)
                + self._last_exchange_data_time
            )
            self._last_exchange_data_time = 0.0
            timings.append(
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
            if self.alerts is not None:
                self.alerts.evaluate(self.session.now)

            completed = cycle + 1
            if (
                self.checkpoint_every
                and self.checkpoint_sink is not None
                and completed % self.checkpoint_every == 0
                and completed < self.config.n_cycles
            ):
                # counted before capture so the snapshot's own metric state
                # already includes this checkpoint (a resumed run's totals
                # then telescope to the uninterrupted run's)
                self._c_captured.inc()
                self.checkpoint_sink(
                    ckpt_mod.Checkpoint.capture(
                        self, completed, t_start, timings, all_proposals
                    )
                )
            if (
                self.stop_after_cycle is not None
                and completed >= self.stop_after_cycle
                and completed < self.config.n_cycles
            ):
                interrupted = True
                break

        result = self._build_result(timings, t_start)
        result.proposals = all_proposals
        result.interrupted = interrupted
        return result


class AsynchronousEMM(ExecutionManagerBase):
    """Barrier-free RE (Fig. 1b) with a time-window or FIFO criterion.

    Requires enough cores to run every replica concurrently (the paper's
    Fig. 13 async runs all use Execution Mode I); replicas whose MD is done
    idle in the exchange pool until the criterion fires, which is exactly
    the utilization gap the paper measures.
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
        from repro.core import checkpoint as ckpt_mod
        from repro.core.adaptive import build_adaptive

        self._ensure_pilot_active()
        restored = None
        if resume is not None:
            restored = ckpt_mod.restore_async(self, resume)
            t_start = restored["t_start"]
        else:
            self.replicas = self.amm.create_replicas()
            t_start = self.session.now
            if self.ladder is not None:
                self.ladder.reset()
                self.ladder.observe_all(t_start, self.replicas)
        by_rid = {r.rid: r for r in self.replicas}

        criterion, spawn_policy = build_adaptive(self.config.adaptive)
        adaptive = self.config.adaptive
        spawn_rng = self.amm.rng.stream("adaptive-spawn")
        rid_counter = {
            "next": (
                restored["rid_next"]
                if restored is not None
                else (max(by_rid) + 1 if by_rid else 0)
            )
        }

        cycles_done: Dict[int, int] = (
            dict(restored["cycles_done"])
            if restored is not None
            else {r.rid: 0 for r in self.replicas}
        )
        #: consecutive failed attempts of each replica's current cycle,
        #: so relaunch budgets actually exhaust (reset on success/continue)
        md_attempts: Dict[int, int] = (
            dict(restored["md_attempts"]) if restored is not None else {}
        )
        # rids awaiting exchange
        pool: List[int] = list(restored["pool"]) if restored is not None else []
        inflight: Dict[int, ComputeUnit] = {}
        all_proposals: List[SwapProposal] = (
            list(restored["proposals"]) if restored is not None else []
        )
        timings: List[CycleTiming] = (
            list(restored["timings"]) if restored is not None else []
        )
        n_cycles = self.config.n_cycles
        fifo_count = self.config.pattern.fifo_count
        window = self.config.pattern.window_seconds
        exchange_busy = {"flag": False}
        sweep_counter = {
            "n": restored["sweep"] if restored is not None else 0
        }
        pool_gauge = self.metrics.gauge("emm.pool_depth")
        #: quiesce-protocol state: when ``active``, launches land in
        #: ``deferred`` (in order) instead of being submitted
        quiesce = {
            "active": False,
            "t_trigger": 0.0,
            "deferred": (
                list(restored["deferred"]) if restored is not None else []
            ),
            "n_done": restored["n_quiesces"] if restored is not None else 0,
            "span": None,
            "capture_event": None,
        }
        interrupted = {"flag": False}
        #: handle of the pending window-timer event, captured into the
        #: checkpoint so restore can re-arm the timer in phase
        window_handle = {"event": None}

        # ``all_done`` runs after every event, so it must not rescan the
        # per-replica cycle table (quadratic at 1000 replicas).  All
        # ``cycles_done`` writes go through ``set_cycles``, which keeps an
        # exact count of finished replicas.
        done_count = {"n": 0}

        def set_cycles(rid: int, value: int) -> None:
            was = cycles_done.get(rid)
            was_done = was is not None and was >= n_cycles
            cycles_done[rid] = value
            if value >= n_cycles:
                if not was_done:
                    done_count["n"] += 1
            elif was_done:
                done_count["n"] -= 1

        def all_done() -> bool:
            return (
                done_count["n"] == len(cycles_done)
                and not inflight
                and not pool
                and not exchange_busy["flag"]
            )

        def submit_md(reps: Sequence[Replica]) -> None:
            """Launch the MD tasks of ``reps`` with unfinished cycles, in
            order, integrated as one batch before the first submission."""
            reps = [r for r in reps if cycles_done[r.rid] < n_cycles]
            if quiesce["active"]:
                quiesce["deferred"].extend(r.rid for r in reps)
                return
            scheduler = self.pilot.scheduler
            launch = []
            for rep in reps:
                desc = self.amm.md_task(rep, cycles_done[rep.rid])
                if scheduler is not None and desc.cores > scheduler.capacity:
                    # Node quarantine shrank the pilot below this task; the
                    # replica can never run again, so retire it instead of
                    # letting the submission kill the event loop.
                    rep.status = ReplicaStatus.RETIRED
                    set_cycles(rep.rid, n_cycles)
                    self.n_retired += 1
                else:
                    launch.append((rep, desc))
            precompute_md([desc for _, desc in launch])
            for rep, desc in launch:
                unit = self.session.submit_units(self.pilot, [desc])[0]
                inflight[rep.rid] = unit
                unit.register_callback(
                    lambda u, s, r=rep: on_md_final(r, u) if u.done else None
                )

        def maybe_drain() -> None:
            """FIFO mode: never leave pooled replicas stranded when no MD
            is in flight (the count criterion can no longer fire)."""
            if fifo_count is None:
                return  # the window timer handles stragglers
            if inflight or exchange_busy["flag"]:
                return
            if len(pool) >= 2:
                trigger_exchange()
            elif pool:
                flush_pool()

        def on_md_final(rep: Replica, unit: ComputeUnit) -> None:
            if inflight.get(rep.rid) is not unit:
                return  # stale callback from a relaunched task
            try:
                _handle_md_final(rep, unit)
            finally:
                if quiesce["active"]:
                    maybe_capture()
                else:
                    maybe_drain()

        def _handle_md_final(rep: Replica, unit: ComputeUnit) -> None:
            del inflight[rep.rid]
            self._account_md([unit])
            cycle = cycles_done[rep.rid]
            if not unit.succeeded:
                self.n_failures += 1
                self._c_failures.inc()
                attempt = md_attempts.get(rep.rid, 0) + 1
                md_attempts[rep.rid] = attempt
                action = self.policy.on_failure(rep, attempt)
                if action is FaultAction.RELAUNCH:
                    self.n_relaunches += 1
                    self._c_relaunches.inc()
                    submit_md([rep])
                    return
                md_attempts.pop(rep.rid, None)
                if action is FaultAction.RETIRE:
                    rep.status = ReplicaStatus.RETIRED
                    set_cycles(rep.rid, n_cycles)
                    self.n_retired += 1
                    return
                # CONTINUE: count the cycle, resubmit if more remain
                self.amm.process_md_output(rep, unit, cycle, None)
                set_cycles(rep.rid, cycle + 1)
                submit_md([rep])
                return

            md_attempts.pop(rep.rid, None)
            self.amm.process_md_output(rep, unit, cycle, None)
            set_cycles(rep.rid, cycle + 1)
            if cycles_done[rep.rid] >= n_cycles:
                return
            # adaptive sampling: retire converged replicas, release their
            # cores, optionally refill the lattice point from a donor
            if (
                adaptive.enabled
                and cycles_done[rep.rid] >= adaptive.min_cycles
                and criterion.should_terminate(rep)
            ):
                remaining = n_cycles - cycles_done[rep.rid]
                rep.status = ReplicaStatus.RETIRED
                set_cycles(rep.rid, n_cycles)
                self.n_retired += 1
                if (
                    adaptive.spawn_replacements
                    and self.n_spawned < adaptive.max_spawns
                    and remaining > 0
                ):
                    fresh = spawn_policy.spawn(
                        rep, self.replicas, rid_counter["next"], spawn_rng
                    )
                    if fresh is not None:
                        rid_counter["next"] += 1
                        self.n_spawned += 1
                        self.replicas.append(fresh)
                        by_rid[fresh.rid] = fresh
                        set_cycles(fresh.rid, n_cycles - remaining)
                        submit_md([fresh])
                return
            pool.append(rep.rid)
            pool_gauge.set(len(pool))
            if fifo_count is not None and len(pool) >= fifo_count:
                trigger_exchange()

        def trigger_exchange() -> None:
            if quiesce["active"] or exchange_busy["flag"] or len(pool) < 2:
                return
            ready = [by_rid[rid] for rid in pool]
            pool.clear()
            pool_gauge.set(0)
            exchange_busy["flag"] = True
            sweep = sweep_counter["n"]
            sweep_counter["n"] += 1
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
            units = self.session.submit_units(self.pilot, [ex_desc])

            def on_ex_final(u: ComputeUnit, _s) -> None:
                if not u.done:
                    return
                sweep_span.end()
                self._c_sweeps.inc()
                self._account_exchange([u])
                proposals = (
                    list(u.result) if u.succeeded and u.result else []
                )
                with hostprof.section("emm"):
                    self.amm.apply_proposals(ready, dimension, proposals)
                all_proposals.extend(proposals)
                if self.ladder is not None:
                    self.ladder.observe_all(self.session.now, ready)
                if self.alerts is not None:
                    self.alerts.evaluate(self.session.now)
                # RepEx task preparation for the resubmitted MD phases is
                # charged here, exactly as the sync pattern charges it per
                # cycle; replicas idle during preparation.
                prep = self.amm.perf.task_prep_overhead(
                    len(ready), self.amm.schedule.n_dims
                )

                def resubmit() -> None:
                    exchange_busy["flag"] = False
                    submit_md(ready)
                    if quiesce["active"]:
                        # the drain was waiting on this sweep; the
                        # resubmissions above were deferred
                        maybe_capture()
                        return
                    # replicas that pooled during this exchange may already
                    # satisfy the FIFO criterion
                    if fifo_count is not None and len(pool) >= fifo_count:
                        trigger_exchange()
                    else:
                        maybe_drain()

                timings.append(
                    CycleTiming(
                        cycle=sweep,
                        dimension=dimension.name,
                        t_md=0.0,
                        t_ex=self.session.now - t_sweep_start,
                        t_data=u.data_time,
                        t_repex=prep,
                        t_rp=u.launch_overhead,
                        span=self.session.now + prep - t_sweep_start,
                        t_start=t_sweep_start,
                        t_end=self.session.now + prep,
                        n_replicas=len(ready),
                    )
                )
                self._c_cycles.inc()
                self._h_cycle_span.observe(
                    self.session.now + prep - t_sweep_start
                )
                self.session.clock.schedule(prep, resubmit)

            units[0].register_callback(on_ex_final)

        def flush_pool() -> None:
            """Resubmit pooled replicas without exchange (no partners left)."""
            ready, pool[:] = list(pool), []
            pool_gauge.set(0)
            submit_md([by_rid[rid] for rid in ready])

        def schedule_window() -> None:
            if all_done():
                window_handle["event"] = None
                return
            window_handle["event"] = self.session.clock.schedule(
                window, on_window
            )

        def on_window() -> None:
            if (
                fifo_count is None
                and not exchange_busy["flag"]
                and not quiesce["active"]
            ):
                if len(pool) >= 2:
                    trigger_exchange()
                elif pool and not inflight:
                    flush_pool()
            schedule_window()

        # -- quiesce protocol ------------------------------------------------

        def begin_quiesce() -> None:
            """Checkpoint trigger: stop launching and start the drain."""
            if self.checkpoint_sink is None:
                return
            if quiesce["active"] or interrupted["flag"] or all_done():
                return
            quiesce["active"] = True
            quiesce["t_trigger"] = self.session.now
            self._c_quiesces.inc()
            quiesce["span"] = self.metrics.begin_span(
                "quiesce",
                pattern="asynchronous",
                n_inflight=len(inflight),
                pool_depth=len(pool),
            )
            maybe_capture()

        def maybe_capture() -> None:
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
                not quiesce["active"]
                or inflight
                or exchange_busy["flag"]
                or quiesce["capture_event"] is not None
            ):
                return
            quiesce["capture_event"] = self.session.clock.schedule(
                0.0, _do_capture
            )

        def _do_capture() -> None:
            quiesce["capture_event"] = None
            # metrics and the span are finalized *before* the capture so
            # the snapshot's own obs state already reflects this
            # checkpoint — a resumed run's totals then telescope to the
            # uninterrupted run's
            self._h_drain.observe(self.session.now - quiesce["t_trigger"])
            if quiesce["span"] is not None:
                quiesce["span"].end()
                quiesce["span"] = None
            quiesce["active"] = False
            quiesce["n_done"] += 1
            self._c_captured.inc()
            window_event = window_handle["event"]
            window_next_t = (
                window_event.time
                if (
                    fifo_count is None
                    and window_event is not None
                    and not window_event.cancelled
                )
                else None
            )
            self.checkpoint_sink(
                ckpt_mod.Checkpoint.capture_async(
                    self,
                    t_start=t_start,
                    timings=timings,
                    proposals=all_proposals,
                    async_state={
                        "cycles_done": dict(cycles_done),
                        "md_attempts": dict(md_attempts),
                        "pool": list(pool),
                        "deferred": list(quiesce["deferred"]),
                        "sweep": sweep_counter["n"],
                        "rid_next": rid_counter["next"],
                        "n_quiesces": quiesce["n_done"],
                        "window_next_t": window_next_t,
                    },
                )
            )
            if (
                self.stop_after_checkpoint is not None
                and quiesce["n_done"] >= self.stop_after_checkpoint
            ):
                interrupted["flag"] = True
                return
            resume_launching()
            schedule_quiesce()

        def resume_launching() -> None:
            """Release deferred launches in captured order and re-check
            the exchange criterion (same shape as post-exchange resubmit)."""
            pending, quiesce["deferred"][:] = list(quiesce["deferred"]), []
            submit_md([by_rid[rid] for rid in pending])
            if fifo_count is not None and len(pool) >= fifo_count:
                trigger_exchange()
            else:
                maybe_drain()

        def schedule_quiesce() -> None:
            if self.checkpoint_sink is not None and self.checkpoint_every_s > 0:
                self.session.clock.schedule(
                    self.checkpoint_every_s, begin_quiesce
                )

        if restored is None:
            # one-shot quiesce triggers (preemption warnings), relative to
            # run start
            for rel in sorted(self.quiesce_rel_times):
                self.session.clock.schedule_at(t_start + rel, begin_quiesce)
            # initial task preparation, charged like the sync pattern's
            self.session.run_for(
                self.amm.perf.task_prep_overhead(
                    len(self.replicas), self.amm.schedule.n_dims
                )
            )
            submit_md(self.replicas)
            if fifo_count is None:
                schedule_window()
            schedule_quiesce()
        else:
            # re-arm what was pending at the quiet point, in the same
            # relative event order the capturing run had: window timer
            # first (its event predates the capture), then the deferred
            # launches, then the next periodic trigger
            for rel in sorted(self.quiesce_rel_times):
                if t_start + rel > self.session.now:
                    self.session.clock.schedule_at(
                        t_start + rel, begin_quiesce
                    )
            if fifo_count is None and restored["window_next_t"] is not None:
                window_handle["event"] = self.session.clock.schedule_at(
                    restored["window_next_t"], on_window
                )
            resume_launching()
            schedule_quiesce()

        self.session.clock.run_until(
            lambda: all_done() or interrupted["flag"]
        )

        result = self._build_result(timings, t_start)
        result.proposals = all_proposals
        result.interrupted = interrupted["flag"]
        return result
