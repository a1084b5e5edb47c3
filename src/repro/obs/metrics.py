"""Per-run metrics: counters, gauges, virtual-time histograms.

The paper's evidence is a timing decomposition (Eq. 1) plus utilization
(Eq. 4); this module gives every layer of the stack a shared place to
record the numbers those figures need — ``emm.cycles``,
``exchange.accepted``, ``scheduler.queue_depth``, ``staging.bytes_mb``.
Each run owns one :class:`MetricsRegistry`, handed to its components at
construction; they cache their instruments there, so passing a
:class:`NullRegistry` disables the whole layer with no per-event
branching.

Metric names are dotted strings; the taxonomy is documented in
``docs/OBSERVABILITY.md``.
"""

from __future__ import annotations

import contextlib
from itertools import islice
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.spans import Span, SpanRecord


class MetricError(ValueError):
    """Raised on invalid metric operations (type clash, bad quantile)."""


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise MetricError(
                f"counter {self.name!r} cannot decrease (amount={amount})"
            )
        self.value += amount


class Gauge:
    """A value that can move both ways (queue depths, cores in use)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.value -= amount


class Histogram:
    """A distribution of samples (virtual-time durations, sizes).

    Samples are kept exactly — runs here are bounded by the discrete-event
    simulation, not by production cardinality — so quantiles are exact
    order statistics with linear interpolation.
    """

    __slots__ = ("name", "_samples")

    def __init__(self, name: str):
        self.name = name
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        """Record one sample."""
        self._samples.append(float(value))

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return sum(self._samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean (0.0 when empty)."""
        return self.total / len(self._samples) if self._samples else 0.0

    def quantile(self, q: float) -> float:
        """Quantile ``q`` in [0, 1] with linear interpolation.

        Returns 0.0 when no samples have been observed.
        """
        if not 0.0 <= q <= 1.0:
            raise MetricError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        pos = q * (len(ordered) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(ordered) - 1)
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def to_dict(self) -> Dict[str, float]:
        """Summary statistics (count/total/mean/min/max/p50/p90/p99)."""
        if not self._samples:
            return {"count": 0, "total": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": min(self._samples),
            "max": max(self._samples),
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


#: Anything with a ``now`` attribute (EventQueue, Session) or a callable.
ClockLike = Union[Callable[[], float], object]


def _parent_id(parent: Optional[object]) -> Optional[str]:
    """Resolve a parent given as Span, SpanRecord, or raw id string."""
    if parent is None:
        return None
    if isinstance(parent, str):
        return parent
    return getattr(parent, "span_id", None)


class MetricsRegistry:
    """Named instruments plus finished spans, with a bound virtual clock.

    Instruments are created on first use, so components may cache
    instrument references at construction (the scheduler does, for its
    per-event hot path).  A registry serves one run: it is bound to that
    run's clock once, and binding it again raises :class:`MetricError`.
    """

    enabled: bool = True

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self.spans: List[SpanRecord] = []
        self._now: Callable[[], float] = lambda: 0.0
        self._clock_bound = False
        # Monotone per-run span ids ("sp00000", ...), deterministic for a
        # seeded workload, so the parent/child links survive the manifest
        # round-trip.
        self._span_seq = 0

    # -- clock ---------------------------------------------------------------

    def bind_clock(self, clock: ClockLike) -> None:
        """Use ``clock`` (callable or object with ``.now``) for span times.

        A registry belongs to one run, so it is bound once: a second
        binding raises :class:`MetricError`.
        """
        if self._clock_bound:
            raise MetricError(
                "registry is already bound to a run's clock; each run "
                "needs its own registry"
            )
        if callable(clock):
            self._now = clock
        else:
            self._now = lambda: clock.now
        self._clock_bound = True

    @property
    def clock_bound(self) -> bool:
        """True once a virtual clock has been bound."""
        return self._clock_bound

    def now(self) -> float:
        """Current virtual time (0.0 until a clock is bound)."""
        return self._now()

    # -- instruments ---------------------------------------------------------

    def _get(self, store: Dict, cls, name: str):
        inst = store.get(name)
        if inst is None:
            for other in (self._counters, self._gauges, self._histograms):
                if other is not store and name in other:
                    raise MetricError(
                        f"metric {name!r} already registered as "
                        f"{type(other[name]).__name__}"
                    )
            inst = store[name] = cls(name)
        return inst

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._get(self._counters, Counter, name)

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get(self._gauges, Gauge, name)

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get(self._histograms, Histogram, name)

    # -- spans ---------------------------------------------------------------

    def begin_span(
        self,
        name: str,
        *,
        parent: Optional[object] = None,
        unit: Optional[str] = None,
        **tags,
    ) -> Span:
        """Open a span at the current virtual time; close with ``.end()``.

        ``parent`` may be another :class:`Span`, a
        :class:`~repro.obs.spans.SpanRecord`, or a span id string; the
        child records the parent's id so the causal tree can be rebuilt
        from the manifest.  ``unit`` names the compute unit the span
        describes (settable later via ``span.unit = ...``).
        """
        span_id = f"sp{self._span_seq:05d}"
        self._span_seq += 1
        return Span(
            name,
            self._now,
            self.spans,
            tags,
            span_id=span_id,
            parent_id=_parent_id(parent),
            unit=unit,
        )

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        *,
        parent: Optional[object] = None,
        unit: Optional[str] = None,
        **tags,
    ) -> Iterator[Span]:
        """Context-manager form of :meth:`begin_span`."""
        sp = self.begin_span(name, parent=parent, unit=unit, **tags)
        try:
            yield sp
        finally:
            sp.end()

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict]:
        """JSON-serializable dump of every instrument's current value."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.to_dict() for n, h in sorted(self._histograms.items())
            },
        }

    # -- checkpointing -------------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """The registry's fixed-size state: counter and gauge values, each
        histogram's sample count, and the span-id counter.

        The growing part — raw samples and finished spans, both only
        ever appended — is read incrementally with :meth:`records_since`.
        Together they are everything needed to continue recording mid-run
        without any observable difference, so a resumed run's manifest is
        byte-comparable to an uninterrupted one's.
        """
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: len(h._samples) for n, h in sorted(self._histograms.items())
            },
            "span_seq": self._span_seq,
        }

    def records_since(
        self, counts: Dict[str, int], n_spans: int
    ) -> Tuple[Dict[str, Iterator[float]], Iterator[Dict[str, object]]]:
        """Histogram samples past ``counts`` (name -> samples already
        read; :meth:`state_dict`'s ``histograms`` of an earlier call) and
        finished spans past the first ``n_spans``, JSON-safe.

        Both are read lazily, so a caller that encodes them never holds
        them all at once: the samples of each histogram that grew, by
        name, and the spans' dicts.
        """
        samples = {
            n: islice(h._samples, counts.get(n, 0), None)
            for n, h in self._histograms.items()
            if len(h._samples) > counts.get(n, 0)
        }
        spans = (s.to_dict() for s in islice(self.spans, n_spans, None))
        return samples, spans

    def load_state(
        self,
        state: Dict[str, object],
        samples: Dict[str, List[float]],
        spans: List[Dict[str, object]],
    ) -> None:
        """Restore :meth:`state_dict` output plus every sample and span
        :meth:`records_since` ever returned, mutating instruments in place.

        Cached instrument references held by live components stay valid,
        and the span-id counter continues where the captured run left
        off.  A no-op on disabled
        registries.
        """
        if not self.enabled:
            return
        for name, value in state["counters"].items():
            self.counter(name).value = float(value)
        for name, value in state["gauges"].items():
            self.gauge(name).value = float(value)
        for name in state["histograms"]:
            hist = self.histogram(name)
            hist._samples[:] = [float(s) for s in samples.get(name, [])]
        self.spans[:] = [SpanRecord.from_dict(d) for d in spans]
        self._span_seq = int(state["span_seq"])


class _NullInstrument:
    """Accepts every instrument method and does nothing."""

    __slots__ = ("name",)
    count = 0
    total = 0.0
    mean = 0.0
    value = 0.0

    def __init__(self, name: str = "null"):
        self.name = name

    def inc(self, amount: float = 1.0) -> None:  # noqa: D102 - no-op
        pass

    def dec(self, amount: float = 1.0) -> None:  # noqa: D102 - no-op
        pass

    def set(self, value: float) -> None:  # noqa: D102 - no-op
        pass

    def observe(self, value: float) -> None:  # noqa: D102 - no-op
        pass

    def quantile(self, q: float) -> float:  # noqa: D102 - no-op
        return 0.0

    def to_dict(self) -> Dict[str, float]:  # noqa: D102 - no-op
        return {"count": 0, "total": 0.0, "mean": 0.0}


class NullRegistry(MetricsRegistry):
    """A registry that records nothing (the observability off-switch).

    Spans are never materialized (the :class:`~repro.obs.spans.Span` takes
    a ``None`` sink and skips even the clock read), instruments are shared
    no-ops, and :class:`~repro.core.framework.RepEx` skips attaching the
    tracer when it sees ``enabled`` false — bounding the cost of the whole
    layer to a handful of attribute lookups per event.
    """

    enabled = False

    def __init__(self):
        super().__init__()
        self._null = _NullInstrument()

    def counter(self, name: str) -> Counter:
        """A shared no-op instrument."""
        return self._null  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        """A shared no-op instrument."""
        return self._null  # type: ignore[return-value]

    def histogram(self, name: str) -> Histogram:
        """A shared no-op instrument."""
        return self._null  # type: ignore[return-value]

    def begin_span(
        self,
        name: str,
        *,
        parent: Optional[object] = None,
        unit: Optional[str] = None,
        **tags,
    ) -> Span:
        """A span with no sink: start/end never touch the clock."""
        return Span(name, self._now, None, tags)
