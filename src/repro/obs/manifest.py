"""Run manifests: one queryable artifact per simulation run.

A :class:`RunManifest` is written at the end of
:meth:`RepEx.run() <repro.core.framework.RepEx.run>` and bundles

* identity — title, config hash, pattern, mode, replica/core counts,
* the per-phase time decomposition (md / exchange / staging / overhead)
  derived from the unit tracer, in core-seconds,
* a snapshot of every metric in the active registry,
* every finished span, and
* the event-ordered per-unit state timeline.

The export format is JSONL (one self-describing record per line) so large
timelines stream, and ``repro obs summary <manifest>`` renders the same
phase table the paper's figures plot.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecord
from repro.pilot.trace import Tracer
from repro.pilot.unit import UnitState

#: Bump when the JSONL schema changes shape.
#: v1: run/metrics/span/event/fault records.
#: v2: adds per-unit ``unit`` metadata records and optional
#:     ``span_id``/``parent_id``/``unit`` fields on span records; v1
#:     manifests still load (the additions are strictly optional).
#: v3: adds per-dimension ``ladder`` records (occupancy, up/down
#:     walkers, round-trip times) and ``alert`` transition records;
#:     both are strictly optional, so v2/v1 manifests still load.
SCHEMA_VERSION = 3

#: Unit metadata phases folded into the manifest's ``exchange`` bucket.
_EXCHANGE_PHASES = frozenset({"exchange", "single_point"})


class ManifestError(ValueError):
    """Raised when a manifest cannot be parsed."""


def config_hash(config) -> str:
    """Stable sha256 over a config's canonical dict form (first 16 hex)."""
    canonical = json.dumps(config.to_dict(), sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def phase_totals(tracer: Tracer) -> Dict[str, float]:
    """Per-phase core-second totals derived from a tracer's unit records.

    Buckets: ``md`` and ``exchange`` are EXECUTING dwell split by the
    units' ``phase`` metadata tag (``single_point`` counts as exchange,
    matching the EMM's accounting); ``staging`` is input+output staging
    dwell of every unit; ``overhead`` is scheduling + launch-pending
    dwell; ``other`` catches execution of untagged units.
    """
    totals = {
        "md": 0.0,
        "exchange": 0.0,
        "staging": 0.0,
        "overhead": 0.0,
        "other": 0.0,
    }
    for rec in tracer.records.values():
        cores = rec.cores
        executing = rec.dwell(UnitState.EXECUTING) * cores
        phase = rec.metadata.get("phase")
        if phase == "md":
            totals["md"] += executing
        elif phase in _EXCHANGE_PHASES:
            totals["exchange"] += executing
        else:
            totals["other"] += executing
        totals["staging"] += (
            rec.dwell(UnitState.STAGING_INPUT)
            + rec.dwell(UnitState.STAGING_OUTPUT)
        ) * cores
        totals["overhead"] += (
            rec.dwell(UnitState.SCHEDULING)
            + rec.dwell(UnitState.AGENT_EXECUTING_PENDING)
        ) * cores
    return totals


@dataclass
class RunManifest:
    """Everything observable about one finished simulation run."""

    title: str
    config_hash: str
    pattern: str
    execution_mode: str
    n_replicas: int
    pilot_cores: int
    seed: int
    t_start: float
    t_end: float
    #: core-seconds per phase; see :func:`phase_totals`
    phase_totals: Dict[str, float] = field(default_factory=dict)
    #: Eq. 4 utilization as the EMM accounted it
    utilization: float = 0.0
    #: registry snapshot at the end of the run
    metrics: Dict[str, Dict] = field(default_factory=dict)
    spans: List[SpanRecord] = field(default_factory=list)
    #: event-ordered ``[time, unit_name, state]`` triples
    timeline: List[List] = field(default_factory=list)
    n_units: int = 0
    #: fault-injection events (node crashes, preemptions, staging
    #: transients) recorded by the pilot's fault domain; empty when
    #: faults are disabled
    fault_events: List[Dict] = field(default_factory=list)
    #: per-unit metadata (name/cores/phase/rid/cycle/final_state) from
    #: :meth:`Tracer.unit_meta`; empty in pre-v2 manifests
    units: List[Dict] = field(default_factory=list)
    #: per-dimension exchange-dynamics records (occupancy, walkers,
    #: round-trip times) from
    #: :meth:`LadderTracker.records() <repro.obs.ladder.LadderTracker.records>`;
    #: empty in pre-v3 manifests and under a null registry
    ladder: List[Dict] = field(default_factory=list)
    #: alert firing/resolved transition records from
    #: :class:`~repro.obs.alerts.AlertManager`; empty when no rules ran
    alerts: List[Dict] = field(default_factory=list)
    #: True when this manifest was loaded from an unfinalised stream
    #: (the run died before :meth:`ManifestStream.finalize`)
    partial: bool = False
    #: parse warnings collected by a tolerant load (``recover=True``);
    #: empty for a clean parse, never serialized
    recovered: List[str] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION

    # -- construction --------------------------------------------------------

    @classmethod
    def from_run(
        cls,
        config,
        result,
        tracer: Optional[Tracer],
        registry: MetricsRegistry,
        fault_events: Optional[List[Dict]] = None,
        ladder: Optional[List[Dict]] = None,
        alerts: Optional[List[Dict]] = None,
    ) -> "RunManifest":
        """Assemble the manifest for a finished run.

        ``config``/``result`` are duck-typed (SimulationConfig /
        SimulationResult) so this module stays import-light; ``tracer``
        may be None under a null registry, which yields an identity-only
        manifest.  ``fault_events`` is the fault domain's event list in
        dict form, when fault injection was active; ``ladder`` and
        ``alerts`` are the v3 exchange-dynamics and alert-transition
        record lists, when those subsystems ran.
        """
        manifest = cls(
            title=result.title,
            config_hash=config_hash(config),
            pattern=result.pattern,
            execution_mode=result.execution_mode,
            n_replicas=result.n_replicas,
            pilot_cores=result.pilot_cores,
            seed=getattr(config, "seed", 0),
            t_start=result.t_start,
            t_end=result.t_end,
            utilization=result.utilization(),
            metrics=registry.snapshot() if registry.enabled else {},
            spans=list(registry.spans),
        )
        if tracer is not None:
            manifest.phase_totals = phase_totals(tracer)
            manifest.timeline = tracer.timeline()
            manifest.n_units = len(tracer.records)
            manifest.units = tracer.unit_meta()
        if fault_events:
            manifest.fault_events = list(fault_events)
        if ladder:
            manifest.ladder = list(ladder)
        if alerts:
            manifest.alerts = list(alerts)
        return manifest

    # -- derived -------------------------------------------------------------

    @property
    def wallclock(self) -> float:
        """Virtual seconds the run spanned."""
        return max(0.0, self.t_end - self.t_start)

    def busy_core_seconds(self) -> float:
        """MD + exchange execution core-seconds from the phase totals."""
        return self.phase_totals.get("md", 0.0) + self.phase_totals.get(
            "exchange", 0.0
        )

    def spans_named(self, name: str) -> List[SpanRecord]:
        """All spans with ``name``, in recording order."""
        return [s for s in self.spans if s.name == name]

    # -- JSONL round-trip ----------------------------------------------------

    def to_jsonl(self) -> str:
        """Serialize as one self-describing JSON record per line."""
        header = {
            "kind": "run",
            "schema_version": self.schema_version,
            "title": self.title,
            "config_hash": self.config_hash,
            "pattern": self.pattern,
            "execution_mode": self.execution_mode,
            "n_replicas": self.n_replicas,
            "pilot_cores": self.pilot_cores,
            "seed": self.seed,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "utilization": self.utilization,
            "phase_totals": self.phase_totals,
            "n_units": self.n_units,
            "partial": self.partial,
        }
        lines = [json.dumps(header, sort_keys=True)]
        lines.append(
            json.dumps({"kind": "metrics", "data": self.metrics}, sort_keys=True)
        )
        for span in self.spans:
            record = {"kind": "span"}
            record.update(span.to_dict())
            lines.append(json.dumps(record, sort_keys=True))
        for unit in self.units:
            record = {"kind": "unit"}
            record.update(unit)
            lines.append(json.dumps(record, sort_keys=True))
        for event in self.fault_events:
            record = {"kind": "fault"}
            record.update(event)
            lines.append(json.dumps(record, sort_keys=True))
        for entry in self.ladder:
            record = {"kind": "ladder"}
            record.update(entry)
            lines.append(json.dumps(record, sort_keys=True))
        for entry in self.alerts:
            record = {"kind": "alert"}
            record.update(entry)
            lines.append(json.dumps(record, sort_keys=True))
        for t, unit, state in self.timeline:
            lines.append(
                json.dumps(
                    {"kind": "event", "t": t, "unit": unit, "state": state},
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str, *, recover: bool = False) -> "RunManifest":
        """Parse :meth:`to_jsonl` output back into a manifest.

        With ``recover=True`` a damaged manifest — a streamed file cut
        mid-record by a kill, or records from a newer schema — does not
        raise: unparsable or unknown lines are skipped, each skip is
        noted in :attr:`recovered`, and the result is marked
        :attr:`partial` so downstream consumers know the view is
        incomplete.  A manifest with no ``run`` header at all is beyond
        recovery and still raises :class:`ManifestError`.
        """
        header: Optional[Dict] = None
        metrics: Dict[str, Dict] = {}
        spans: List[SpanRecord] = []
        timeline: List[List] = []
        fault_events: List[Dict] = []
        units: List[Dict] = []
        ladder: List[Dict] = []
        alerts: List[Dict] = []
        warnings: List[str] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if recover:
                    warnings.append(
                        f"line {lineno}: truncated or invalid JSON dropped"
                    )
                    continue
                raise ManifestError(f"line {lineno}: invalid JSON: {exc}") from None
            kind = record.get("kind")
            if kind == "run":
                # Last header wins: a finalized ManifestStream appends a
                # non-partial header after the provisional one.
                header = record
            elif kind == "metrics":
                metrics = record.get("data", {})
            elif kind == "span":
                spans.append(SpanRecord.from_dict(record))
            elif kind == "event":
                timeline.append([record["t"], record["unit"], record["state"]])
            elif kind == "fault":
                fault_events.append(
                    {k: v for k, v in record.items() if k != "kind"}
                )
            elif kind == "unit":
                units.append({k: v for k, v in record.items() if k != "kind"})
            elif kind == "ladder":
                ladder.append({k: v for k, v in record.items() if k != "kind"})
            elif kind == "alert":
                alerts.append({k: v for k, v in record.items() if k != "kind"})
            else:
                if recover:
                    warnings.append(
                        f"line {lineno}: unknown record kind {kind!r} dropped"
                    )
                    continue
                raise ManifestError(
                    f"line {lineno}: unknown record kind {kind!r}"
                )
        if header is None:
            raise ManifestError("no 'run' header record found")
        return cls(
            title=header["title"],
            config_hash=header["config_hash"],
            pattern=header["pattern"],
            execution_mode=header["execution_mode"],
            n_replicas=header["n_replicas"],
            pilot_cores=header["pilot_cores"],
            seed=header.get("seed", 0),
            t_start=header["t_start"],
            t_end=header["t_end"],
            phase_totals=header.get("phase_totals", {}),
            utilization=header.get("utilization", 0.0),
            metrics=metrics,
            spans=spans,
            timeline=timeline,
            n_units=header.get("n_units", 0),
            fault_events=fault_events,
            units=units,
            ladder=ladder,
            alerts=alerts,
            partial=header.get("partial", False) or bool(warnings),
            recovered=warnings,
            schema_version=header.get("schema_version", SCHEMA_VERSION),
        )

    def dump(self, path) -> Path:
        """Write the JSONL form to ``path``; returns the Path written."""
        path = Path(path)
        path.write_text(self.to_jsonl())
        return path

    @classmethod
    def load(cls, path, *, recover: bool = False) -> "RunManifest":
        """Read a manifest previously written with :meth:`dump`."""
        return cls.from_jsonl(Path(path).read_text(), recover=recover)

    # -- rendering -----------------------------------------------------------

    def summary_lines(self) -> List[str]:
        """Human-readable summary (used by ``repro obs summary``)."""
        lines = [
            f"{self.title}: {self.n_replicas} replicas, "
            f"pattern={self.pattern}, mode={self.execution_mode}, "
            f"{self.pilot_cores} cores, config={self.config_hash}",
            f"wallclock (virtual)  : {self.wallclock:12.1f} s",
            f"utilization (Eq. 4)  : {100 * self.utilization:12.1f} %",
        ]
        if self.phase_totals:
            lines.append("phase totals (core-seconds):")
            for phase in ("md", "exchange", "staging", "overhead", "other"):
                value = self.phase_totals.get(phase, 0.0)
                if phase == "other" and value == 0.0:
                    continue
                lines.append(f"  {phase:<10} {value:14.1f}")
        counters = self.metrics.get("counters", {})
        if counters:
            lines.append("counters:")
            for name, value in counters.items():
                lines.append(f"  {name:<28} {value:14.1f}")
        if self.ladder:
            lines.append("exchange dynamics (per dimension):")
            for rec in self.ladder:
                walkers = rec.get("walkers", {})
                lines.append(
                    f"  {rec.get('dimension', '?'):<14} "
                    f"round trips {rec.get('round_trips', 0):>5}  "
                    f"mean RTT {rec.get('mean_rtt_s', 0.0):12.1f} s  "
                    f"up/down walkers {walkers.get('up', 0)}/"
                    f"{walkers.get('down', 0)}"
                )
        if self.alerts:
            n_firing = sum(
                1 for a in self.alerts if a.get("state") == "firing"
            ) - sum(1 for a in self.alerts if a.get("state") == "resolved")
            lines.append(
                f"alerts: {len(self.alerts)} transitions, "
                f"{max(0, n_firing)} still firing at end of run"
            )
        lines.append(
            f"spans: {len(self.spans)}, timeline events: "
            f"{len(self.timeline)}, units: {self.n_units}"
        )
        if self.fault_events:
            lines.append(f"fault events: {len(self.fault_events)}")
        for warning in self.recovered:
            lines.append(f"RECOVERED: {warning}")
        if self.partial:
            lines.append("PARTIAL: the run did not finalize this manifest")
        return lines

    def to_summary_dict(self) -> Dict:
        """Machine-readable summary (``repro obs summary --format json``).

        Recovery warnings are *not* part of this dict — the CLI routes
        them to stderr so piped JSON stays clean.
        """
        return {
            "title": self.title,
            "config_hash": self.config_hash,
            "pattern": self.pattern,
            "execution_mode": self.execution_mode,
            "n_replicas": self.n_replicas,
            "pilot_cores": self.pilot_cores,
            "seed": self.seed,
            "schema_version": self.schema_version,
            "wallclock_s": self.wallclock,
            "utilization": self.utilization,
            "phase_totals": dict(self.phase_totals),
            "counters": dict(self.metrics.get("counters", {})),
            "ladder": [dict(rec) for rec in self.ladder],
            "alerts": [dict(rec) for rec in self.alerts],
            "n_spans": len(self.spans),
            "n_timeline_events": len(self.timeline),
            "n_units": self.n_units,
            "n_fault_events": len(self.fault_events),
            "partial": self.partial,
        }


class ManifestStream:
    """Incrementally flushed JSONL manifest (crash-tolerant observability).

    :class:`RunManifest` is assembled only after a run finishes, which
    makes it useless for diagnosing a run that *dies* — exactly the case
    the fault-injection work cares about.  A ``ManifestStream`` opens its
    file up front with a provisional run header marked ``partial`` and
    appends one flushed line per unit state transition
    (:meth:`on_transition`, wired as a
    :meth:`~repro.pilot.trace.Tracer.add_sink` callback) and per fault
    event (:meth:`on_fault`), so a killed process still leaves a loadable
    prefix on disk.  :meth:`finalize` appends the metrics snapshot, the
    spans, and a final non-partial header; :meth:`RunManifest.from_jsonl`
    takes the *last* run header, so a finalized stream loads exactly like
    :meth:`RunManifest.dump` output.
    """

    def __init__(self, path, config):
        self.path = Path(path)
        self._fh = self.path.open("w")
        self._closed = False
        self._n_alerts_streamed = 0
        self._write(
            {
                "kind": "run",
                "schema_version": SCHEMA_VERSION,
                "partial": True,
                "title": config.title,
                "config_hash": config_hash(config),
                "pattern": config.pattern.kind,
                "execution_mode": config.effective_mode,
                "n_replicas": config.n_replicas,
                "pilot_cores": config.resource.cores,
                "seed": getattr(config, "seed", 0),
                "t_start": 0.0,
                "t_end": 0.0,
            }
        )

    def _write(self, record: Dict) -> None:
        if self._closed:
            return
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()

    # -- sinks ---------------------------------------------------------------

    def on_transition(self, unit_name: str, state: str, t: float) -> None:
        """Tracer sink: flush one unit state-transition line."""
        self._write(
            {"kind": "event", "t": round(t, 6), "unit": unit_name, "state": state}
        )

    def on_fault(self, event) -> None:
        """Fault-domain sink: flush one fault event line.

        ``event`` is a :class:`~repro.pilot.faultdomain.FaultEvent` (or
        anything with a ``to_dict``).
        """
        record = {"kind": "fault"}
        record.update(event.to_dict())
        self._write(record)

    def on_alert(self, transition: Dict) -> None:
        """Alert-manager sink: flush one alert transition line.

        Streamed transitions are counted so :meth:`finalize` appends
        only the remainder, never duplicates.
        """
        record = {"kind": "alert"}
        record.update(transition)
        self._write(record)
        self._n_alerts_streamed += 1

    # -- lifecycle -----------------------------------------------------------

    def finalize(self, manifest: RunManifest) -> None:
        """Append metrics, spans and the final header, then close.

        The streamed event lines already carry the timeline, so only the
        end-of-run records are appended here.
        """
        if self._closed:
            return
        self._write({"kind": "metrics", "data": manifest.metrics})
        for span in manifest.spans:
            record = {"kind": "span"}
            record.update(span.to_dict())
            self._write(record)
        for unit in manifest.units:
            record = {"kind": "unit"}
            record.update(unit)
            self._write(record)
        for entry in manifest.ladder:
            record = {"kind": "ladder"}
            record.update(entry)
            self._write(record)
        for entry in manifest.alerts[self._n_alerts_streamed:]:
            record = {"kind": "alert"}
            record.update(entry)
            self._write(record)
        self._write(
            {
                "kind": "run",
                "schema_version": manifest.schema_version,
                "partial": False,
                "title": manifest.title,
                "config_hash": manifest.config_hash,
                "pattern": manifest.pattern,
                "execution_mode": manifest.execution_mode,
                "n_replicas": manifest.n_replicas,
                "pilot_cores": manifest.pilot_cores,
                "seed": manifest.seed,
                "t_start": manifest.t_start,
                "t_end": manifest.t_end,
                "utilization": manifest.utilization,
                "phase_totals": manifest.phase_totals,
                "n_units": manifest.n_units,
            }
        )
        self.close()

    def close(self) -> None:
        """Close the file; idempotent, later writes are dropped."""
        if self._closed:
            return
        self._closed = True
        self._fh.close()

    def __enter__(self) -> "ManifestStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
