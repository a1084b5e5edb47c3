"""Gray-failure supervision: virtual-time deadlines and straggler scoring.

Fail-stop faults (:mod:`repro.pilot.faultdomain`) announce themselves — a
crashed node fails its units in one event.  *Gray* failures do not: a
slow node silently dilates runtimes and a hung task simply never
completes.  Without supervision a synchronous exchange barrier waits
forever on them.  The :class:`Watchdog` is that supervision, running
entirely on the discrete-event clock:

* **Deadlines** — every execution attempt gets a completion deadline of
  ``max(1 s, deadline_factor * expected_runtime)``, where the
  expected runtime comes from the performance model (the unit's nominal
  duration).  A missed deadline is a *verdict*: the attempt is declared
  dead (hung or hopelessly slow) and fed to the
  :class:`~repro.core.fault.WatchdogRetryPolicy` — kill-and-relaunch
  with exponential backoff + jitter while bounded attempts remain, then
  escalation (the unit fails for good and the EMM's fault policy takes
  over).
* **Straggler scoring** — a periodic heartbeat tick compares each
  running attempt's elapsed time against the cohort: the lower median of
  recently *completed* execution durations, once ``_MIN_COHORT`` have
  completed.  An attempt running longer than ``_STRAGGLER_FACTOR`` times
  the median is scored a straggler;
  with ``speculative`` enabled the scheduler places a duplicate copy on
  different cores and the two race — first completion wins, the loser
  is cancelled, and the unit completes exactly once
  (:meth:`AgentScheduler._finish_execution
  <repro.pilot.scheduler.AgentScheduler._finish_execution>`).

Everything is deterministic: deadlines and ticks are virtual-time
events, backoff jitter comes from the seeded ``watchdog-backoff``
stream, and a disabled watchdog (the default) is simply absent — the
scheduler schedules exactly the events it always did, so golden traces
and benchmark event counts are byte-identical.

Verdicts are observable: ``watchdog.*`` counters, the
``watchdog.watched`` gauge, and ``watchdog_kill`` / ``watchdog_relaunch``
/ ``watchdog_escalation`` / ``straggler`` / ``speculative_*`` events in
the fault log (and therefore in manifests and Chrome traces).
"""

from __future__ import annotations

import bisect
from collections import deque
from typing import Deque, Dict, List, Optional

from repro.core.fault import WatchdogRetryPolicy
from repro.obs.metrics import MetricsRegistry

#: Completed-duration samples kept for the straggler cohort median.
_HISTORY_CAP = 256

#: Floor on every per-attempt deadline (virtual seconds).
_MIN_DEADLINE_S = 1.0

#: A running attempt is a straggler past this multiple of the cohort median.
_STRAGGLER_FACTOR = 2.0

#: Completed executions required before straggler scoring starts.
_MIN_COHORT = 3


class Watchdog:
    """Supervises execution attempts against virtual-time deadlines.

    Parameters
    ----------
    spec:
        A :class:`~repro.core.config.WatchdogSpec` (deadline, heartbeat,
        retry and speculation knobs).
    clock:
        The simulation :class:`~repro.pilot.events.EventQueue`.
    rng:
        Seeded generator for backoff jitter (the ``watchdog-backoff``
        stream); None disables jitter draws.
    fault_domain:
        Optional :class:`~repro.pilot.faultdomain.FaultDomainModel`;
        when present, watchdog verdicts are recorded as fault events so
        they reach manifests and traces.
    registry:
        The run's metrics registry (its session's); a private one when
        omitted.
    """

    def __init__(
        self,
        spec,
        clock,
        rng=None,
        fault_domain=None,
        registry=None,
    ):
        self.spec = spec
        self._clock = clock
        self.fault_domain = fault_domain
        self.retry = WatchdogRetryPolicy.from_spec(spec, rng=rng)
        self._scheduler = None
        #: unit -> supervision entry (expected, attempt, t_start, hung,
        #: straggler, speculated, deadline_event)
        self._watched: Dict[object, Dict[str, object]] = {}
        #: completed execution durations, insertion order (bounded)
        self._history: Deque[float] = deque()
        #: the same samples kept sorted, for the cohort median
        self._sorted: List[float] = []
        #: the pending heartbeat; None while disarmed
        self._tick_event = None
        if registry is None:
            registry = MetricsRegistry()
        self._c_checks = registry.counter("watchdog.checks")
        self._c_kills = registry.counter("watchdog.deadline_kills")
        self._c_relaunches = registry.counter("watchdog.relaunches")
        self._c_escalations = registry.counter("watchdog.escalations")
        self._c_stragglers = registry.counter("watchdog.stragglers")
        self._c_spec_launches = registry.counter(
            "watchdog.speculative_launches"
        )
        self._c_spec_wins = registry.counter("watchdog.speculative_wins")
        self._c_spec_losses = registry.counter("watchdog.speculative_losses")
        self._g_watched = registry.gauge("watchdog.watched")

    # -- wiring --------------------------------------------------------------

    def attach(self, scheduler) -> None:
        """Bind to a scheduler (latest wins — a requeued pilot re-attaches)."""
        self._scheduler = scheduler

    @property
    def n_watched(self) -> int:
        """Execution attempts currently under supervision."""
        return len(self._watched)

    def _record(self, kind: str, **detail) -> None:
        if self.fault_domain is not None:
            self.fault_domain.record(self._clock.now, kind, **detail)

    def _deadline_for(self, expected: float) -> float:
        return max(_MIN_DEADLINE_S, self.spec.deadline_factor * expected)

    # -- scheduler callbacks -------------------------------------------------

    def on_execution_start(
        self, unit, expected: float, attempt: int, hung: bool
    ) -> None:
        """An execution attempt began; arm its deadline and the heartbeat."""
        entry = self._watched.get(unit)
        if entry is None:
            entry = {"straggler": False, "speculated": False}
            self._watched[unit] = entry
            self._g_watched.set(len(self._watched))
        elif entry.get("deadline_event") is not None:
            entry["deadline_event"].cancel()
        entry["expected"] = expected
        entry["attempt"] = attempt
        entry["t_start"] = self._clock.now
        entry["hung"] = hung
        entry["deadline_event"] = self._clock.schedule(
            self._deadline_for(expected),
            lambda: self._on_deadline(unit, attempt),
        )
        if self._tick_event is None:
            self._tick_event = self._clock.schedule(
                self.spec.check_interval_s, self._tick
            )

    def on_execution_finish(self, unit, from_shadow: bool = False) -> None:
        """The unit's execution completed (exactly once); stand down."""
        entry = self._watched.pop(unit, None)
        if entry is None:
            return
        self._g_watched.set(len(self._watched))
        if entry.get("deadline_event") is not None:
            entry["deadline_event"].cancel()
        elapsed = self._clock.now - entry["t_start"]
        self._observe(elapsed)
        if entry["speculated"]:
            if from_shadow:
                self._c_spec_wins.inc()
                self._record(
                    "speculative_win",
                    unit=unit.description.name,
                    elapsed=round(elapsed, 6),
                )
            else:
                self._c_spec_losses.inc()
                self._record(
                    "speculative_loss", unit=unit.description.name
                )

    def on_unit_final(self, unit) -> None:
        """The unit failed/was killed outside the watchdog; stand down."""
        entry = self._watched.pop(unit, None)
        if entry is None:
            return
        self._g_watched.set(len(self._watched))
        if entry.get("deadline_event") is not None:
            entry["deadline_event"].cancel()

    def on_shadow_killed(self, unit) -> None:
        """The unit's speculative copy died (node crash); primary races on."""
        entry = self._watched.get(unit)
        self._c_spec_losses.inc()
        self._record(
            "speculative_loss", unit=unit.description.name, crashed=True
        )
        if entry is None:
            return
        entry["speculated"] = False
        if entry.get("deadline_event") is None:
            # The deadline was consumed by a speculated-skip; re-arm so
            # the primary (possibly hung) stays supervised.
            attempt = entry["attempt"]
            entry["deadline_event"] = self._clock.schedule(
                self._deadline_for(entry["expected"]),
                lambda: self._on_deadline(unit, attempt),
            )

    # -- verdicts ------------------------------------------------------------

    def _on_deadline(self, unit, attempt: int) -> None:
        """Attempt ``attempt`` missed its completion deadline."""
        entry = self._watched.get(unit)
        if entry is None or entry["attempt"] != attempt or unit.done:
            return  # stale deadline; the attempt already resolved
        entry["deadline_event"] = None
        if entry["speculated"]:
            # A duplicate is racing this attempt; the race *is* the
            # recovery.  Re-arm so supervision survives a shadow that is
            # itself slow or later crashes.
            entry["deadline_event"] = self._clock.schedule(
                self._deadline_for(entry["expected"]),
                lambda: self._on_deadline(unit, attempt),
            )
            return
        self._c_kills.inc()
        self._record(
            "watchdog_kill",
            unit=unit.description.name,
            attempt=attempt,
            hung=bool(entry["hung"]),
        )
        if not self.retry.should_relaunch(attempt):
            self._c_escalations.inc()
            self._record(
                "watchdog_escalation",
                unit=unit.description.name,
                attempts=attempt,
            )
            self._watched.pop(unit, None)
            self._g_watched.set(len(self._watched))
            self._scheduler.fail_execution(
                unit,
                f"watchdog: no completion within deadline after "
                f"{attempt} attempt(s)",
            )
            return
        delay = self.retry.backoff(attempt)
        self._c_relaunches.inc()
        self._record(
            "watchdog_relaunch",
            unit=unit.description.name,
            attempt=attempt,
            backoff_s=round(delay, 6),
        )
        self._scheduler.relaunch_execution(unit, delay, attempt + 1)

    # -- heartbeat -----------------------------------------------------------

    def _observe(self, duration: float) -> None:
        self._history.append(duration)
        bisect.insort(self._sorted, duration)
        if len(self._history) > _HISTORY_CAP:
            old = self._history.popleft()
            del self._sorted[bisect.bisect_left(self._sorted, old)]

    def _cohort_median(self) -> Optional[float]:
        """Lower median of completed durations; None below ``_MIN_COHORT``."""
        n = len(self._sorted)
        if n < _MIN_COHORT:
            return None
        return self._sorted[(n - 1) // 2]

    def _tick(self) -> None:
        """Periodic heartbeat: score stragglers, maybe speculate."""
        if not self._watched:
            # Nothing supervised; disarm — the next execution start
            # re-arms, so an idle watchdog costs no events.
            self._tick_event = None
            return
        self._c_checks.inc()
        median = self._cohort_median()
        if median is not None:
            threshold = _STRAGGLER_FACTOR * median
            now = self._clock.now
            for unit, entry in list(self._watched.items()):
                if now - entry["t_start"] <= threshold:
                    continue
                if not entry["straggler"]:
                    entry["straggler"] = True
                    self._c_stragglers.inc()
                    self._record(
                        "straggler",
                        unit=unit.description.name,
                        elapsed=round(now - entry["t_start"], 6),
                        threshold=round(threshold, 6),
                    )
                if self.spec.speculative and not entry["speculated"]:
                    # No capacity right now is not a verdict — the next
                    # tick retries the launch.
                    if self._scheduler.launch_speculative(unit):
                        entry["speculated"] = True
                        self._c_spec_launches.inc()
                        self._record(
                            "speculative_launch",
                            unit=unit.description.name,
                        )
        self._tick_event = self._clock.schedule(
            self.spec.check_interval_s, self._tick
        )

    # -- checkpoint ----------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Serializable supervision state: the cohort history and the
        fire time of the pending heartbeat (None while disarmed).

        Per-unit entries are *not* captured: a checkpoint is taken at a
        quiesced barrier, when nothing is executing.  The heartbeat can
        still be armed there, and its phase decides when the next cycle's
        stragglers are scored.
        """
        tick = self._tick_event
        return {
            "history": [float(d) for d in self._history],
            "tick_t": tick.time if tick is not None else None,
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore :meth:`state_dict` output, re-arming the heartbeat at
        its captured time (the clock must not be past it)."""
        self._history = deque(float(d) for d in state["history"])
        self._sorted = sorted(self._history)
        if self._tick_event is not None:
            self._tick_event.cancel()
            self._tick_event = None
        if state["tick_t"] is not None:
            self._tick_event = self._clock.schedule_at(
                float(state["tick_t"]), self._tick
            )
