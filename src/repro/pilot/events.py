"""Discrete-event simulation core: virtual clock and event queue.

Every time-valued quantity the reproduction reports (MD time, exchange time,
data time, RepEx/RP overheads, utilization) is measured on this virtual
clock, replacing the wallclock of the paper's XSEDE runs.  The queue is a
binary heap keyed by ``(time, sequence)`` so that simultaneous events fire
in scheduling order, which keeps runs fully deterministic.

Cancellation is lazy (events are flagged, not removed), but the queue
keeps an exact count of dead entries so ``len(queue)`` is O(1), and it
compacts the heap once cancelled events dominate it — under heavy
preemption/chaos the heap would otherwise grow without bound.  Compaction
never changes pop order: keys ``(time, seq)`` are unique, so re-heapifying
the surviving events yields exactly the order the lazy pops would have.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Sequence, Tuple


class SimulationError(RuntimeError):
    """Raised when the event loop is driven into an invalid state."""


class SimulatedCrash(SimulationError):
    """An injected hard kill of the run at a chosen virtual time.

    Raised out of the event loop (and hence out of ``RepEx.run``) to model
    the process dying mid-simulation — no cleanup code in the simulated
    workload gets to run, which is exactly the point: crash/resume tests
    recover from whatever checkpoints were already on disk.
    """


class Event:
    """A scheduled callback, ordered in the queue by ``(time, seq)``.

    The heap itself stores ``(time, seq, event)`` tuples so that sift
    comparisons stay in C; the keys are unique, so the event object is
    never compared.
    """

    __slots__ = ("time", "seq", "callback", "cancelled", "_queue")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        queue: Optional["EventQueue"] = None,
    ):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.cancelled = False
        #: queue whose dead-event accounting tracks this event (None once
        #: the event left the heap, so late cancels don't corrupt the
        #: count)
        self._queue = queue

    def cancel(self) -> None:
        """Mark the event so it is skipped when popped (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._queue is not None:
            self._queue._note_cancelled()
            self._queue = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, seq={self.seq!r}, "
            f"cancelled={self.cancelled!r})"
        )


#: compaction trigger: at least this many dead events *and* more dead than
#: live ones (the floor keeps tiny queues from churning)
_COMPACT_MIN_DEAD = 64


class EventQueue:
    """Virtual clock + pending-event heap.

    The clock only moves forward, and only by popping events; callbacks may
    schedule further events.  ``run_until`` drives the loop to a predicate or
    to queue exhaustion.
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        #: binary heap of (time, seq, event) — tuple keys keep every sift
        #: comparison in C, and (time, seq) is unique per event
        self._heap: List[Tuple[float, int, Event]] = []
        self._seq = itertools.count()
        self._n_fired = 0
        self._n_cancelled = 0
        self._peak_heap = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def n_fired(self) -> int:
        """Total number of events executed so far (diagnostics)."""
        return self._n_fired

    @property
    def n_cancelled(self) -> int:
        """Dead events currently sitting in the heap awaiting purge."""
        return self._n_cancelled

    @property
    def peak_heap(self) -> int:
        """High-water mark of the pending-event heap (diagnostics)."""
        return self._peak_heap

    def __len__(self) -> int:
        """Live (non-cancelled) events still pending — O(1)."""
        return len(self._heap) - self._n_cancelled

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule into the past (t={time} < now={self._now})"
            )
        t = float(time)
        event = Event(t, next(self._seq), callback, queue=self)
        heapq.heappush(self._heap, (t, event.seq, event))
        if len(self._heap) > self._peak_heap:
            self._peak_heap = len(self._heap)
        return event

    def schedule_many(
        self,
        items: Sequence[Tuple[float, Callable[[], None]]],
    ) -> List[Event]:
        """Batched :meth:`schedule`: ``[(delay, callback), ...]``.

        Sequence numbers are allocated in list order, so the relative fire
        order among the batch (and against interleaved single schedules)
        is identical to looping ``schedule`` — only the heap maintenance
        is amortized: one ``heapify`` instead of k pushes when the batch
        rivals the heap in size.
        """
        events: List[Event] = []
        for delay, callback in items:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule into the past (delay={delay})"
                )
            events.append(
                Event(self._now + float(delay), next(self._seq), callback,
                      queue=self)
            )
        if len(events) >= max(8, len(self._heap) // 2):
            self._heap.extend((e.time, e.seq, e) for e in events)
            heapq.heapify(self._heap)
        else:
            for event in events:
                heapq.heappush(self._heap, (event.time, event.seq, event))
        if len(self._heap) > self._peak_heap:
            self._peak_heap = len(self._heap)
        return events

    def step(self) -> bool:
        """Execute the next pending event.  Return False if queue is empty."""
        while self._heap:
            time, _, event = heapq.heappop(self._heap)
            if event.cancelled:
                self._n_cancelled -= 1
                continue
            event._queue = None
            if time < self._now:
                raise SimulationError("event heap yielded a past event")
            self._now = time
            self._n_fired += 1
            event.callback()
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> None:
        """Drain the queue (optionally at most ``max_events`` events)."""
        fired = 0
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                return

    def run_until(
        self,
        predicate: Callable[[], bool],
        *,
        max_events: int = 50_000_000,
    ) -> None:
        """Fire events until ``predicate()`` is true.

        Raises
        ------
        SimulationError
            If the queue empties or ``max_events`` fire before the predicate
            holds — both indicate a deadlock in the simulated workload.
        """
        fired = 0
        while not predicate():
            if not self.step():
                raise SimulationError(
                    "event queue exhausted before condition was met "
                    "(simulated workload deadlocked)"
                )
            fired += 1
            if fired > max_events:
                raise SimulationError(
                    f"condition not met after {max_events} events"
                )

    def next_event_time(self) -> Optional[float]:
        """Fire time of the next live event, or None when the queue is empty.

        Dead events found at the top are purged on the way — the peek is
        amortized O(1) and leaves the heap cleaner than it found it.
        """
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heapq.heappop(heap)
            self._n_cancelled -= 1
        return heap[0][0] if heap else None

    def advance_to(self, time: float) -> None:
        """Move the clock forward with no events (idle time)."""
        if time < self._now:
            raise SimulationError(
                f"cannot move clock backwards (t={time} < now={self._now})"
            )
        next_t = self.next_event_time()
        if next_t is not None and next_t < time:
            raise SimulationError(
                "advance_to would skip pending events; run them first"
            )
        self._now = float(time)

    def account_batch(
        self,
        n_events: int,
        advance_to: float,
        *,
        peak: Optional[int] = None,
    ) -> None:
        """Fold an externally simulated batch of events into the clock.

        The SoA fast path computes a whole phase's event timeline without
        materializing :class:`Event` objects; this credits those events so
        the queue's diagnostics (``n_fired``, ``peak_heap``) and the clock
        itself end up exactly where the reference event-by-event execution
        would have left them.

        Raises
        ------
        SimulationError
            If the batch would move the clock backwards or skip over
            pending live events (the caller must fall back to the
            reference path instead).
        """
        if n_events < 0:
            raise SimulationError(f"n_events must be >= 0, got {n_events}")
        if advance_to < self._now:
            raise SimulationError(
                f"cannot move clock backwards (t={advance_to} < now={self._now})"
            )
        next_t = self.next_event_time()
        if next_t is not None and next_t < advance_to:
            raise SimulationError(
                "account_batch would skip pending events; run them first"
            )
        self._now = float(advance_to)
        self._n_fired += n_events
        if peak is not None and peak > self._peak_heap:
            self._peak_heap = peak

    def _note_cancelled(self) -> None:
        """Account one newly dead event; compact when the dead dominate."""
        self._n_cancelled += 1
        if (
            self._n_cancelled >= _COMPACT_MIN_DEAD
            and self._n_cancelled * 2 > len(self._heap)
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled events and re-heapify (pop order is unchanged)."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._n_cancelled = 0
