"""Span-based tracing on the virtual clock.

A span is one named interval of virtual time with free-form tags —
``exchange`` sweeps, ``md`` phases, whole ``cycle``s.  Spans complement the
unit rows a run's :class:`~repro.pilot.trace.Tracer` feeds to its log:
the rows say what each *task* did, spans say what each *phase of the
algorithm* did, and the :class:`~repro.obs.manifest.RunManifest` exports
both so the paper's Figs. 5-13 timing decompositions can be re-derived
from a single artifact.

Spans are recorded into whatever sink (usually
``MetricsRegistry.spans``) the creating registry provides; a null sink
makes the whole span a no-op, which is how the off-path cost is bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional


@dataclass
class SpanRecord:
    """One finished span: a named virtual-time interval with tags.

    ``span_id``/``parent_id`` link spans into the causal tree the
    critical-path analysis walks (a cycle span is the parent of its md
    and exchange phase spans); ``unit`` names the compute unit a span
    describes, joining the algorithm view with the pilot-level unit
    timeline.  All three are optional: PR-1-era manifests predate them
    and must keep loading, so :meth:`to_dict` omits them when unset.
    """

    name: str
    t_start: float
    t_end: float
    tags: Dict[str, object] = field(default_factory=dict)
    span_id: Optional[str] = None
    parent_id: Optional[str] = None
    unit: Optional[str] = None

    @property
    def duration(self) -> float:
        """Virtual seconds between start and end (never negative)."""
        return max(0.0, self.t_end - self.t_start)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (lineage fields omitted when unset)."""
        data: Dict[str, object] = {
            "name": self.name,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "tags": dict(self.tags),
        }
        if self.span_id is not None:
            data["span_id"] = self.span_id
        if self.parent_id is not None:
            data["parent_id"] = self.parent_id
        if self.unit is not None:
            data["unit"] = self.unit
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "SpanRecord":
        """Rebuild a record from :meth:`to_dict` output.

        Tolerates records written before the lineage fields existed.
        """
        span_id = data.get("span_id")
        parent_id = data.get("parent_id")
        unit = data.get("unit")
        return cls(
            name=str(data["name"]),
            t_start=float(data["t_start"]),
            t_end=float(data["t_end"]),
            tags=dict(data.get("tags", {})),
            span_id=str(span_id) if span_id is not None else None,
            parent_id=str(parent_id) if parent_id is not None else None,
            unit=str(unit) if unit is not None else None,
        )


class Span:
    """An open span; call :meth:`end` (or use as a context manager).

    Created through :meth:`MetricsRegistry.begin_span
    <repro.obs.metrics.MetricsRegistry.begin_span>` rather than directly.
    The EMMs use the manual begin/end form where a phase ends inside an
    event callback (the async exchange sweep); everything else uses the
    ``with`` form.
    """

    __slots__ = (
        "name",
        "tags",
        "t_start",
        "span_id",
        "parent_id",
        "unit",
        "_now",
        "_sink",
        "_closed",
    )

    def __init__(
        self,
        name: str,
        now: Callable[[], float],
        sink: Optional[List[SpanRecord]],
        tags: Dict[str, object],
        span_id: Optional[str] = None,
        parent_id: Optional[str] = None,
        unit: Optional[str] = None,
    ):
        self.name = name
        self.tags = tags
        self.span_id = span_id
        self.parent_id = parent_id
        #: unit name this span describes; settable after creation (the
        #: async EMM learns the exchange unit's name only after submit)
        self.unit = unit
        self._now = now
        self._sink = sink
        self._closed = False
        self.t_start = now() if sink is not None else 0.0

    def end(self) -> Optional[SpanRecord]:
        """Close the span at the current virtual time (idempotent)."""
        if self._closed or self._sink is None:
            self._closed = True
            return None
        self._closed = True
        record = SpanRecord(
            name=self.name,
            t_start=self.t_start,
            t_end=self._now(),
            tags=self.tags,
            span_id=self.span_id,
            parent_id=self.parent_id,
            unit=self.unit,
        )
        self._sink.append(record)
        return record

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.end()
