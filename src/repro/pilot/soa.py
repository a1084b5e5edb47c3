"""Structure-of-arrays fast path for whole-phase unit execution.

The reference pipeline drives every compute unit through four clock events
(staged-in, launched, finished, staged-out), each a heap pop + closure call
+ per-object attribute churn.  For the common phase shape — a burst of
units submitted together into an otherwise idle pilot — the entire event
timeline is a pure function of the descriptions and the cluster models, so
it can be computed up front on a local heap and committed to the
simulation in one pass, without a single clock event.

:func:`try_fast_phase` is that shortcut.  It is *conservative*: gates on
public members check that nothing outside the phase could observe or
perturb the timeline (a quiescent scheduler, no faults, no watchdog, no
pending event due inside the phase window); if any gate fails it returns
``None`` and the caller runs the byte-identical reference path instead.
The numerics are not this module's concern: the execution mode has
already integrated a whole MD phase in one batch before either engine
sees it (:mod:`repro.core.execution_modes`), so here every unit's ``work``
is simply called in launch order.  The differential suite in
``tests/perf/test_soa_equivalence.py`` holds the two paths to identical
manifests, golden traces and clock diagnostics.

Byte-identity invariants this module maintains (in commit order):

* unit uids — ``ComputeUnit`` objects are constructed only after every
  gate has passed and the work callables have run, so the process-global
  uid counter advances exactly once per description, exactly when the
  reference path would have consumed it;
* virtual times — every delay is computed by the *real* cluster model
  methods, in the reference call order with the reference arguments
  (progressive in-flight staging contention, launcher backlog), and event
  times accumulate as ``t + delay`` exactly like ``EventQueue.schedule``;
* event order — the local timeline heap is keyed ``(time, seq)`` with
  sequence numbers allocated in the order the reference allocates real
  ones, so ties break identically;
* clock diagnostics — ``n_fired``/``peak_heap`` are folded in through
  :meth:`~repro.pilot.events.EventQueue.account_batch` (a phase of N
  units fires 4N events and peaks the heap at ``len(heap) + N``, since
  every pipeline callback pops before it pushes);
* observability — metric counters advance by the same totals, the wait
  histogram records the same zeros, the staging area replays the same
  put/get sequence (float accumulation order preserved), and every
  transition is replayed at its exact virtual time through
  ``ComputeUnit.advance``, so unit timestamps, state callbacks and tracer
  sinks (streamed manifests) see the reference event stream.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence

from repro.obs import hostprof
from repro.pilot.failures import FailureModel
from repro.pilot.pilot import Pilot, PilotState
from repro.pilot.scheduler import run_work
from repro.pilot.session import Session
from repro.pilot.staging import StagingAction
from repro.pilot.unit import ComputeUnit, UnitDescription, UnitState

#: local event kinds, in pipeline order
_STAGED_IN = 0
_LAUNCHED = 1
_FINISHED = 2
_STAGED_OUT = 3


def _run_work(descriptions, launched_order) -> list:
    """Call every unit's work callable in reference (launch-event) order."""
    results = [None] * len(descriptions)
    for k in launched_order:
        if descriptions[k].work is not None:
            results[k] = run_work(descriptions[k])
    return results


def try_fast_phase(
    session: Session,
    pilot: Pilot,
    descriptions: Sequence[UnitDescription],
) -> Optional[List[ComputeUnit]]:
    """Execute a whole phase on a precomputed timeline, or return ``None``.

    ``None`` means "this phase is not provably equivalent under the fast
    path" — the caller must run the reference submit/wait path.  Nothing
    observable (uid counter, clock, scheduler, metrics) has been touched
    in that case.
    """
    # -- gates: the phase must own the simulation until its last event -----
    if session.closed or pilot not in session.pilots:
        return None  # a foreign pilot may tick on another clock
    if pilot.state is not PilotState.ACTIVE:
        return None
    sched = pilot.scheduler
    if sched is None or not sched.is_quiescent():
        return None
    if sched.watchdog is not None or sched.fault_domain is not None:
        return None
    fm = sched.failure_model
    if type(fm) is not FailureModel or fm.probability != 0.0:
        return None
    clock = session.clock
    # A cancelled entry makes next_event_time() mutate the heap (purge) and
    # perturbs peak accounting — reference-path territory.
    if clock.n_cancelled != 0:
        return None
    n = len(descriptions)
    total_cores = 0
    total_gpus = 0
    for d in descriptions:
        if d.cores > sched.capacity or d.gpus > sched.gpu_capacity:
            return None  # reference raises SchedulerError; let it
        total_cores += d.cores
        total_gpus += d.gpus
    if total_cores > sched.free_cores or total_gpus > sched.free_gpus:
        return None  # not a one-scan placement; waves/backfill differ

    # -- local timeline: pure simulation, no shared state touched ----------
    fs = pilot.cluster.filesystem
    launcher = pilot.cluster.launcher
    t0 = clock.now

    heap: list = []
    fired: list = []
    launched_order: list = []
    in_flight = 0
    launch_pending = 0
    with hostprof.section("scheduler"):
        # Stage-in events carry local seqs 0..n-1 in description order,
        # mirroring the reference's one schedule_many batch; every later
        # event allocates the next seq at its parent's fire time, exactly
        # as the reference allocates real sequence numbers.
        with hostprof.section("staging"):
            for k, d in enumerate(descriptions):
                delay = 0.0
                for dirv in d.input_staging:
                    if dirv.action is StagingAction.LINK:
                        delay += fs.link_time()
                    else:
                        delay += fs.transfer_time(
                            dirv.size_mb, concurrent=in_flight
                        )
                in_flight += len(d.input_staging)
                heap.append((t0 + delay, k, _STAGED_IN, k))
        heapq.heapify(heap)
        seq = n
        while heap:
            t, _, kind, k = heapq.heappop(heap)
            fired.append((t, kind, k))
            d = descriptions[k]
            if kind == _STAGED_IN:
                in_flight -= len(d.input_staging)
                delay = launcher.launch_delay(launch_pending, cores=d.cores)
                launch_pending += 1
                heapq.heappush(heap, (t + delay, seq, _LAUNCHED, k))
                seq += 1
            elif kind == _LAUNCHED:
                launch_pending -= 1
                launched_order.append(k)
                heapq.heappush(
                    heap, (t + float(d.duration), seq, _FINISHED, k)
                )
                seq += 1
            elif kind == _FINISHED:
                with hostprof.section("staging"):
                    delay = 0.0
                    for dirv in d.output_staging:
                        if dirv.action is StagingAction.LINK:
                            delay += fs.link_time()
                        else:
                            delay += fs.transfer_time(
                                dirv.size_mb, concurrent=in_flight
                            )
                in_flight += len(d.output_staging)
                heapq.heappush(heap, (t + delay, seq, _STAGED_OUT, k))
                seq += 1
            else:
                in_flight -= len(d.output_staging)

    t_end = fired[-1][0]
    # Any pending event due at-or-before the phase's last event (walltime
    # expiry, a crash probe, run_for leftovers) must interleave with the
    # pipeline — only the reference path can honour that.
    next_t = clock.next_event_time()
    if next_t is not None and next_t <= t_end:
        return None
    # Reference peak: schedule_many grows the heap by n in one batch and
    # every later pipeline callback pops before it pushes.  The heap holds
    # no dead entries (gated above), so len(clock) is its full size.
    peak = len(clock) + n

    # Work runs now, before any commit: a raising callable sends the phase
    # back to the reference path, which re-runs the (idempotent,
    # per-task-seeded) numerics and fails the unit the reference way.
    try:
        results = _run_work(descriptions, launched_order)
    except Exception:  # noqa: BLE001 - task isolation boundary
        return None

    # -- commit: uid counter advances here, exactly once per description ---
    units = [ComputeUnit(d) for d in descriptions]
    sched._m_submitted.inc(n)
    for u in units:
        u.advance(UnitState.SCHEDULING, t0)
    for u in units:
        sched._place(u)
        sched._running.add(u)
        sched._h_wait.observe(0.0)
        u.advance(UnitState.STAGING_INPUT, t0)
    sched._update_occupancy()
    if session.tracer is not None:
        session.tracer.watch_all(units)

    area = sched.staging_area
    clock.account_batch(0, t0, peak=peak)
    # Transition-accurate replay: every event fires through
    # ComputeUnit.advance at its exact virtual time, in fired order (the
    # staging ledger's float accumulation order is part of the contract).
    i = 0
    n_fired = len(fired)
    while i < n_fired:
        t = fired[i][0]
        j = i
        while j < n_fired and fired[j][0] == t:
            j += 1
        clock.account_batch(j - i, t)
        for idx in range(i, j):
            _, kind, k = fired[idx]
            u = units[k]
            d = descriptions[k]
            if kind == _STAGED_IN:
                for dirv in d.input_staging:
                    if dirv.target not in area:
                        area.put(dirv.target, dirv.size_mb)
                    else:
                        area.get(dirv.target)
                u.advance(UnitState.AGENT_EXECUTING_PENDING, t)
            elif kind == _LAUNCHED:
                u.advance(UnitState.EXECUTING, t)
                sched._m_started.inc()
                u.result = results[k]
            elif kind == _FINISHED:
                u.advance(UnitState.STAGING_OUTPUT, t)
            else:
                for dirv in d.output_staging:
                    area.put(dirv.target, dirv.size_mb)
                u.advance(UnitState.DONE, t)
                sched._m_completed.inc()
                sched._release(u)
        i = j
    return units
