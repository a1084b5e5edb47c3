"""Critical-path analytics over a run manifest.

The paper's Fig. 5 answers "where did the core-seconds go"; this module
answers the harder causal question, "which chain of work determined the
wallclock".  From a :class:`~repro.obs.manifest.RunManifest` it rebuilds
the causal structure of each cycle — units waiting on the scheduler,
staging, executing, the exchange barrier — and walks backward from the
cycle's end through whatever activity was blocking at each instant,
yielding

* the **critical path** of each cycle as a chain of segments (unit state
  intervals and idle/barrier gaps), each attributed to a phase,
* per-cycle **idle/barrier attribution** (time on the critical path not
  covered by any unit activity: task-prep overhead, exchange barriers,
  the async pool), and
* a Fig.-5-style **phase decomposition** in core-seconds recomputed
  independently from the timeline, which must agree with the manifest's
  own ``phase_totals`` (asserted in the tests).

Everything is a pure function of the manifest, so two analyses of the
same run always agree — the property the ``repro obs diff`` triage rests
on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.manifest import (
    STATE_ORDER,
    RunManifest,
    classify,
    row_phase_totals,
    unit_chain,
)
from repro.utils.tables import render_table

#: phases a critical-path segment can be attributed to, in report order
KINDS: Tuple[str, ...] = ("md", "exchange", "staging", "overhead", "idle", "other")

#: numeric tolerance when matching interval endpoints (timeline
#: timestamps are rounded to 1 microsecond)
EPS = 5e-6


@dataclass
class Segment:
    """One link of a critical path: an activity (or gap) in time order."""

    t_start: float
    t_end: float
    #: phase bucket (one of :data:`KINDS`)
    kind: str
    #: unit name, or ``"idle"`` for uncovered gaps
    label: str
    #: unit state for activity segments, None for gaps
    state: Optional[str] = None

    @property
    def duration(self) -> float:
        """Virtual seconds this segment spans (never negative)."""
        return max(0.0, self.t_end - self.t_start)


@dataclass
class CyclePath:
    """The critical path of one cycle (or async exchange sweep)."""

    name: str
    index: int
    t_start: float
    t_end: float
    segments: List[Segment] = field(default_factory=list)
    dimension: Optional[str] = None

    @property
    def duration(self) -> float:
        """Window span in virtual seconds."""
        return max(0.0, self.t_end - self.t_start)

    def totals(self) -> Dict[str, float]:
        """Critical-path seconds per phase bucket (sums to the span)."""
        out = {k: 0.0 for k in KINDS}
        for seg in self.segments:
            out[seg.kind] += seg.duration
        return out

    @property
    def idle(self) -> float:
        """Seconds of the critical path not covered by any unit activity."""
        return self.totals()["idle"]


def cycle_windows(manifest: RunManifest) -> List[Tuple[str, int, float, float, Optional[str]]]:
    """The analysis windows: sync cycles, async sweeps, or the whole run.

    Returns ``(name, index, t_start, t_end, dimension)`` tuples sorted
    by start time.  Synchronous manifests have one ``cycle`` span per
    cycle; asynchronous manifests have per-sweep ``exchange`` spans;
    manifests with no spans at all (a killed run's stream) fall back to a
    single window over the timeline's extent.
    """
    windows = []
    cycles = manifest.spans_named("cycle")
    if cycles:
        for span in cycles:
            index = int(span.tags.get("cycle", len(windows)))
            windows.append(
                (
                    f"cycle {index}",
                    index,
                    span.t_start,
                    span.t_end,
                    span.tags.get("dimension"),
                )
            )
    else:
        for span in manifest.spans_named("exchange"):
            index = int(span.tags.get("sweep", span.tags.get("cycle", len(windows))))
            windows.append(
                (
                    f"sweep {index}",
                    index,
                    span.t_start,
                    span.t_end,
                    span.tags.get("dimension"),
                )
            )
    if not windows:
        times = [t for t, _, _ in manifest.timeline]
        if times:
            windows.append(("run", 0, min(times), max(times), None))
        elif manifest.t_end > manifest.t_start:
            windows.append(("run", 0, manifest.t_start, manifest.t_end, None))
    windows.sort(key=lambda w: (w[2], w[1]))
    return windows


@dataclass(frozen=True)
class _Interval:
    unit: str
    state: str
    t0: float
    t1: float
    kind: str
    cores: int


def _intervals(manifest: RunManifest) -> List[_Interval]:
    out = []
    for row in manifest.units:
        phase = row.get("phase")
        cores = int(row.get("cores") or 1)
        for state, t0, t1 in unit_chain(row):
            out.append(
                _Interval(
                    row["name"], state, t0, t1, classify(state, phase), cores
                )
            )
    return out


def _walk_window(
    intervals: List[_Interval], w0: float, w1: float
) -> List[Segment]:
    """Backward walk from ``w1``: at each instant, follow the activity
    that was blocking (the latest-ending interval at or before the
    cursor); gaps with no covering activity become ``idle`` segments —
    that is exactly the barrier/prep time the async pattern removes."""
    inside = [
        iv
        for iv in intervals
        if iv.t1 > w0 + EPS and iv.t0 < w1 - EPS and iv.t1 - iv.t0 > 0
    ]
    # Sorted by end time; ties broken by start, unit name, and lifecycle
    # rank so the walk is deterministic.
    rank = {name: i for i, name in enumerate(STATE_ORDER)}
    inside.sort(key=lambda iv: (iv.t1, iv.t0, iv.unit, rank.get(iv.state, 99)))
    segments: List[Segment] = []
    t = w1
    hi = len(inside)
    while t > w0 + EPS:
        while hi > 0 and inside[hi - 1].t1 > t + EPS:
            hi -= 1
        if hi == 0:
            segments.append(Segment(w0, t, "idle", "idle"))
            break
        best = inside[hi - 1]
        if best.t1 < t - EPS:
            segments.append(Segment(best.t1, t, "idle", "idle"))
            t = best.t1
            continue
        start = max(best.t0, w0)
        segments.append(Segment(start, t, best.kind, best.unit, best.state))
        t = start
        hi -= 1
    segments.reverse()
    return segments


def critical_paths(manifest: RunManifest) -> List[CyclePath]:
    """The per-cycle critical paths of a run."""
    intervals = _intervals(manifest)
    paths = []
    for name, index, w0, w1, dimension in cycle_windows(manifest):
        path = CyclePath(
            name=name,
            index=index,
            t_start=w0,
            t_end=w1,
            segments=_walk_window(intervals, w0, w1),
            dimension=dimension,
        )
        paths.append(path)
    return paths


def decomposition(manifest: RunManifest) -> Dict[str, float]:
    """Fig.-5-style per-phase core-seconds, recomputed from the timeline.

    Independent of the manifest's own ``phase_totals`` header field —
    the two must agree to within timeline rounding, which is the
    self-consistency check the tests pin.
    """
    return row_phase_totals(manifest.units)


def render_report(
    manifest: RunManifest, *, max_segments: int = 6
) -> str:
    """The ``repro obs critical-path`` report.

    Per cycle: the phase attribution of the critical path plus its
    longest segments; then the independent Fig.-5 decomposition table.
    """
    paths = critical_paths(manifest)
    lines = [
        f"{manifest.title}: {len(paths)} window(s), "
        f"pattern={manifest.pattern}, wallclock {manifest.wallclock:.1f} s"
    ]
    rows = []
    for path in paths:
        totals = path.totals()
        rows.append(
            [path.name, path.dimension or "-", f"{path.duration:.1f}"]
            + [f"{totals[k]:.1f}" for k in KINDS]
        )
    lines.append("")
    lines.append(
        render_table(
            ["window", "dim", "span"] + list(KINDS),
            rows,
            title="Critical path per cycle (seconds on the path)",
        )
    )
    for path in paths:
        longest = sorted(
            path.segments, key=lambda s: (-s.duration, s.t_start)
        )[:max_segments]
        lines.append("")
        lines.append(
            f"{path.name}: {len(path.segments)} segment(s), "
            f"idle {path.idle:.1f} s of {path.duration:.1f} s"
        )
        for seg in sorted(longest, key=lambda s: s.t_start):
            what = seg.label if seg.state is None else f"{seg.label} [{seg.state}]"
            lines.append(
                f"  {seg.t_start:12.1f} .. {seg.t_end:12.1f}  "
                f"{seg.kind:<9} {seg.duration:10.1f} s  {what}"
            )
    decomp = decomposition(manifest)
    lines.append("")
    lines.append(
        render_table(
            ["phase", "core-seconds"],
            [[k, f"{v:.1f}"] for k, v in decomp.items()],
            title="Phase decomposition (core-seconds, from timeline)",
        )
    )
    return "\n".join(lines)
