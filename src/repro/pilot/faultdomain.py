"""Correlated fault injection: node crashes, pilot preemption, flaky staging.

The per-unit Bernoulli injector (:mod:`repro.pilot.failures`) models
independent software failures, but the failures that dominate at scale are
*correlated*: a node crash takes out every unit resident on that node, a
batch system preempts (or walltime-kills) the whole pilot, and a loaded
shared filesystem makes staging operations fail transiently.  The
:class:`FaultDomainModel` owns all three fault domains above the unit
level and injects them on the discrete-event clock:

* **node** — crash events scheduled against the pilot's node map
  (explicit ``[t, node]`` pairs and/or a Poisson process at
  ``node_crash_rate`` crashes per node-hour).  The agent scheduler fails
  all co-resident units in the same event and quarantines the node's
  cores (see :meth:`AgentScheduler.crash_node
  <repro.pilot.scheduler.AgentScheduler.crash_node>`).
* **pilot** — one preemption event; the pilot kills its workload and
  either re-enters the batch queue (requeue) or fails outright.
* **staging** — a :class:`TransientFaultModel` consulted per staging
  operation; the scheduler retries with exponential backoff + jitter.
* **slowdown** (gray) — nodes the configuration names slow silently
  dilate every execution and staging operation placed on them by their
  multiplicative factor.  Nothing errors; only the watchdog's deadlines
  and straggler scoring notice.
* **hang** (gray) — a seeded per-execution draw that makes a unit never
  complete on its own; the watchdog's deadline kill-and-relaunch is the
  only way out, which is why configuration validation refuses hangs
  without a watchdog.

All draws come from seeded, named RNG streams, so a fault schedule is a
deterministic function of the configuration — which is what makes
checkpoint/resume replay (``docs/FAULTS.md``) bit-exact: resuming rebuilds
the same schedule and re-fires the pre-checkpoint events into the fresh
stack.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.obs.metrics import MetricsRegistry

#: Seconds per node-hour, for the Poisson crash-arrival rate.
_SECONDS_PER_HOUR = 3600.0


@dataclass
class FaultEvent:
    """One injected fault, recorded for manifests and post-mortems."""

    t: float
    kind: str  # "node_crash" | "preemption" | "staging_fault"
    detail: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready form (flat, ``kind``/``t`` first)."""
        out: Dict[str, object] = {"t": round(float(self.t), 6), "fault": self.kind}
        out.update(self.detail)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FaultEvent":
        """Inverse of :meth:`to_dict` (used by checkpoint restore)."""
        detail = {k: v for k, v in data.items() if k not in ("t", "fault")}
        return cls(t=float(data["t"]), kind=str(data["fault"]), detail=detail)


class TransientFaultModel:
    """Transient staging failures with exponential backoff + jitter.

    Parameters
    ----------
    probability:
        Chance any single staging operation fails, in [0, 1].
    rng:
        Seeded generator for fault draws and backoff jitter.
    max_retries:
        Retries after the first attempt before the unit fails for good.
    backoff_base_s:
        Backoff before retry ``n`` is ``base * 2**(n-1)`` seconds (plus
        jitter), capped at ``backoff_cap_s``.
    jitter:
        Multiplicative jitter fraction: the backoff is scaled by
        ``1 + jitter * U(0, 1)``.  0 disables jitter.
    """

    def __init__(
        self,
        probability: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        max_retries: int = 4,
        backoff_base_s: float = 0.5,
        backoff_cap_s: float = 30.0,
        jitter: float = 0.25,
    ):
        if not (0.0 <= probability <= 1.0):
            raise ValueError(f"probability must be in [0, 1], got {probability}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if backoff_base_s <= 0:
            raise ValueError(f"backoff_base_s must be > 0, got {backoff_base_s}")
        if backoff_cap_s < backoff_base_s:
            raise ValueError(
                f"backoff_cap_s ({backoff_cap_s}) < backoff_base_s "
                f"({backoff_base_s})"
            )
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self.probability = float(probability)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.max_retries = int(max_retries)
        self.backoff_base_s = float(backoff_base_s)
        self.backoff_cap_s = float(backoff_cap_s)
        self.jitter = float(jitter)

    def draw_fault(self) -> bool:
        """Whether the next staging operation fails transiently.

        Consumes no RNG state when ``probability`` is 0, so a disabled
        model is bit-for-bit invisible to the rest of the simulation.
        """
        if self.probability <= 0.0:
            return False
        return bool(self.rng.random() < self.probability)

    def backoff(self, attempt: int) -> float:
        """Backoff delay (seconds) before retrying after ``attempt`` failed.

        ``attempt`` is 1-based; the delay doubles per attempt, jittered,
        and capped.  Consumes one jitter draw (when jitter is enabled), so
        two same-seeded models produce identical delay sequences.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = self.backoff_base_s * (2.0 ** (attempt - 1))
        if self.jitter > 0:
            delay *= 1.0 + self.jitter * float(self.rng.random())
        return min(delay, self.backoff_cap_s)


class FaultDomainModel:
    """Schedules correlated fault events onto a pilot's lifecycle.

    Built once per run (see :meth:`from_spec`); :class:`Pilot
    <repro.pilot.pilot.Pilot>` calls :meth:`on_pilot_active` every time it
    activates.  The crash/preemption schedule is drawn exactly once, at
    the *first* activation, so a pilot requeued after preemption keeps the
    remaining schedule rather than redrawing it.

    Parameters
    ----------
    node_crashes:
        Explicit crash events as ``(seconds_after_first_activation,
        node_index)`` pairs.
    node_crash_rate:
        Expected crashes per node-hour; arrivals are sampled from
        ``schedule_rng`` as a Poisson process over the pilot walltime.
    preempt_after_s / requeue:
        Preempt the pilot this long after first activation; ``requeue``
        sends it back through the batch queue instead of failing it.
    staging:
        Optional :class:`TransientFaultModel` the scheduler consults for
        staging operations.
    schedule_rng:
        Seeded generator for the Poisson arrivals (and crash node picks).
    registry:
        The run's metrics registry, which counts the injected faults; a
        private one when omitted.
    """

    def __init__(
        self,
        node_crashes: Optional[List[Tuple[float, int]]] = None,
        node_crash_rate: float = 0.0,
        preempt_after_s: Optional[float] = None,
        requeue: bool = True,
        staging: Optional[TransientFaultModel] = None,
        schedule_rng: Optional[np.random.Generator] = None,
        slow_nodes: Optional[List[Tuple[int, float]]] = None,
        hang_probability: float = 0.0,
        hang_rng: Optional[np.random.Generator] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        if node_crash_rate < 0:
            raise ValueError(
                f"node_crash_rate must be >= 0, got {node_crash_rate}"
            )
        if preempt_after_s is not None and preempt_after_s <= 0:
            raise ValueError(
                f"preempt_after_s must be > 0, got {preempt_after_s}"
            )
        self.node_crashes = [
            (float(t), int(node)) for t, node in (node_crashes or [])
        ]
        for t, node in self.node_crashes:
            if t < 0 or node < 0:
                raise ValueError(
                    f"node_crashes entries must be (t >= 0, node >= 0), "
                    f"got ({t}, {node})"
                )
        self.node_crash_rate = float(node_crash_rate)
        self.preempt_after_s = preempt_after_s
        self.requeue = bool(requeue)
        self.staging = staging
        self._schedule_rng = (
            schedule_rng if schedule_rng is not None else np.random.default_rng(0)
        )
        self.slow_nodes = [
            (int(node), float(factor)) for node, factor in (slow_nodes or [])
        ]
        for node, factor in self.slow_nodes:
            if node < 0 or factor <= 1:
                raise ValueError(
                    f"slow_nodes entries must be (node >= 0, factor > 1), "
                    f"got ({node}, {factor})"
                )
        if not (0.0 <= hang_probability <= 1.0):
            raise ValueError(
                f"hang_probability must be in [0, 1], got {hang_probability}"
            )
        self.hang_probability = float(hang_probability)
        self._hang_rng = hang_rng
        #: node index -> dilation factor, resolved at first activation
        self.node_dilation: Dict[int, float] = {}
        #: every injected fault, in firing order (exported to manifests)
        self.events: List[FaultEvent] = []
        self._sinks: List[Callable[[FaultEvent], None]] = []
        self._armed = False
        #: scheduled crash/preemption events fired so far, in schedule
        #: order; a checkpoint records it so a restore replays exactly
        #: those that fired before its quiet point
        self.n_fired = 0
        if registry is None:
            registry = MetricsRegistry()
        self._c_crashes = registry.counter("fault.node_crashes")
        self._c_killed = registry.counter("fault.units_killed")
        self._c_preempt = registry.counter("fault.preemptions")
        if self.wants_gray:
            self._c_slow = registry.counter("fault.slow_nodes")
            self._c_hangs = registry.counter("fault.hangs")

    @property
    def wants_gray(self) -> bool:
        """True when any slowdown or hang injection is configured."""
        return bool(self.slow_nodes) or self.hang_probability > 0

    @classmethod
    def from_spec(
        cls, spec, rng_registry, registry: MetricsRegistry
    ) -> Optional["FaultDomainModel"]:
        """Build from a :class:`~repro.core.config.FailureSpec`.

        Returns None when the spec enables no correlated faults, so the
        happy path carries no fault-domain object at all (zero cost when
        off).  ``rng_registry`` is a
        :class:`~repro.utils.rng.RNGRegistry`; the model draws its
        schedule from the ``"fault-schedule"`` stream and staging faults
        from ``"staging-faults"``.  Its fault counters go to the run's
        metrics ``registry``.
        """
        if not getattr(spec, "wants_fault_domain", False):
            return None
        staging = None
        if spec.staging_fault_probability > 0:
            staging = TransientFaultModel(
                probability=spec.staging_fault_probability,
                rng=rng_registry.stream("staging-faults"),
                max_retries=spec.staging_max_retries,
                backoff_base_s=spec.staging_backoff_s,
            )
        hang_rng = None
        if spec.hang_probability > 0:
            hang_rng = rng_registry.stream("hang-faults")
        return cls(
            node_crashes=[tuple(e) for e in spec.node_crashes],
            node_crash_rate=spec.node_crash_rate,
            preempt_after_s=spec.preempt_after_s,
            requeue=spec.requeue_on_preempt,
            staging=staging,
            schedule_rng=rng_registry.stream("fault-schedule"),
            slow_nodes=[tuple(e) for e in spec.slow_nodes],
            hang_probability=spec.hang_probability,
            hang_rng=hang_rng,
            registry=registry,
        )

    # -- event recording -----------------------------------------------------

    def add_sink(self, sink: Callable[[FaultEvent], None]) -> None:
        """Register ``sink(event)`` invoked as each fault is recorded
        (used for incremental manifest streaming)."""
        self._sinks.append(sink)

    def record(self, t: float, kind: str, **detail) -> FaultEvent:
        """Append one fault event and feed it to the sinks."""
        event = FaultEvent(t=t, kind=kind, detail=detail)
        self.events.append(event)
        for sink in list(self._sinks):
            sink(event)
        return event

    def load_events(self, dicts: List[Dict[str, object]]) -> None:
        """Replace the recorded history with a checkpointed one.

        Checkpoint restore replays the pre-checkpoint clock, which
        re-records the faults that fired in the replay window; this
        swaps that replayed history for the exact captured one (same
        events, original ``detail`` payloads) so resumed manifests match
        the uninterrupted run's fault log byte for byte.
        """
        self.events[:] = [FaultEvent.from_dict(d) for d in dicts]

    # -- scheduling ----------------------------------------------------------

    def build_schedule(
        self, n_nodes: int, horizon_s: float
    ) -> List[Tuple[float, int]]:
        """The time-ordered crash schedule, relative to first activation.

        Explicit ``node_crashes`` plus Poisson arrivals at
        ``node_crash_rate`` per node-hour over ``horizon_s`` seconds, each
        arrival hitting a uniformly drawn node.  Deterministic per seeded
        ``schedule_rng``.
        """
        schedule = list(self.node_crashes)
        if self.node_crash_rate > 0 and n_nodes > 0 and horizon_s > 0:
            lam = self.node_crash_rate * n_nodes / _SECONDS_PER_HOUR
            t = float(self._schedule_rng.exponential(1.0 / lam))
            while t < horizon_s:
                node = int(self._schedule_rng.integers(n_nodes))
                schedule.append((t, node))
                t += float(self._schedule_rng.exponential(1.0 / lam))
        schedule.sort()
        return schedule

    def on_pilot_active(self, pilot, clock) -> None:
        """Arm the fault schedule when ``pilot`` (first) becomes ACTIVE.

        Called by the pilot on every activation; only the first arms the
        clock events.  Crash and preemption callbacks resolve the pilot's
        *current* scheduler at fire time, so events armed before a
        requeue land on the post-requeue agent.
        """
        if self._armed:
            return
        self._armed = True
        assert pilot.scheduler is not None
        n_nodes = pilot.scheduler.n_nodes
        if self.wants_gray:
            self._resolve_slow_nodes(n_nodes, clock)
        horizon = pilot.description.walltime_minutes * 60.0
        for delay, node in self.build_schedule(n_nodes, horizon):
            clock.schedule(
                delay,
                lambda node=node: self._fire_crash(pilot, clock, node),
            )
        if self.preempt_after_s is not None:
            clock.schedule(
                self.preempt_after_s,
                lambda: self._fire_preempt(pilot, clock),
            )

    # -- gray failures -------------------------------------------------------

    def _resolve_slow_nodes(self, n_nodes: int, clock) -> None:
        """Fix each node's dilation factor at first activation.

        A node listed more than once in ``slow_nodes`` takes its largest
        factor; entries past the pilot's node count are ignored.
        Re-running this after a checkpoint restore reproduces the same
        dilation map.
        """
        self.node_dilation = {}
        for node, factor in self.slow_nodes:
            if node < n_nodes:
                self.node_dilation[node] = max(
                    factor, self.node_dilation.get(node, 1.0)
                )
        for node in sorted(self.node_dilation):
            self._c_slow.inc()
            self.record(
                clock.now,
                "slowdown",
                node=node,
                factor=self.node_dilation[node],
            )

    def dilation_for(self, nodes) -> float:
        """Runtime dilation for a unit placed on ``nodes`` (max factor)."""
        if not self.node_dilation:
            return 1.0
        factor = 1.0
        for node in nodes:
            f = self.node_dilation.get(node)
            if f is not None and f > factor:
                factor = f
        return factor

    def draw_hang(self) -> bool:
        """Whether the next execution hangs (never completes on its own).

        Consumes no RNG state when hangs are disabled, so the default
        configuration is bit-for-bit invisible to the rest of the run.
        """
        if self.hang_probability <= 0.0 or self._hang_rng is None:
            return False
        return bool(self._hang_rng.random() < self.hang_probability)

    def record_hang(self, t: float, unit: str, attempt: int) -> None:
        """Count + record one injected hang (called by the scheduler)."""
        self._c_hangs.inc()
        self.record(t, "hang", unit=unit, attempt=attempt)

    def _fire_crash(self, pilot, clock, node: int) -> None:
        from repro.pilot.pilot import PilotState

        self.n_fired += 1
        if pilot.state is not PilotState.ACTIVE or pilot.scheduler is None:
            return
        if node >= pilot.scheduler.n_nodes:
            return
        killed = pilot.scheduler.crash_node(node)
        self._c_crashes.inc()
        self._c_killed.inc(killed)
        self.record(
            clock.now,
            "node_crash",
            node=node,
            units_killed=killed,
            cores_lost=pilot.scheduler.quarantined_cores(node),
        )

    def _fire_preempt(self, pilot, clock) -> None:
        from repro.pilot.pilot import PilotState

        self.n_fired += 1
        if pilot.state is not PilotState.ACTIVE:
            return
        killed = pilot.preempt(requeue=self.requeue)
        self._c_preempt.inc()
        self._c_killed.inc(killed)
        self.record(
            clock.now,
            "preemption",
            units_killed=killed,
            requeued=self.requeue,
        )
