"""Run manifests: one queryable artifact per simulation run.

A :class:`RunManifest` is written at the end of
:meth:`RepEx.run() <repro.core.framework.RepEx.run>` and bundles

* identity — title, config hash, pattern, mode, replica/core counts,
* the per-phase time decomposition (md / exchange / staging / overhead)
  summed by the run's log as each unit finished, in core-seconds,
* a snapshot of every metric in the run's registry,
* every finished span, and
* one row per unit: its metadata and the entry time of every state,
  from which the event-ordered state timeline is a view.

The export format is JSONL (one self-describing record per line) so large
runs stream, and ``repro obs summary <manifest>`` renders the same
phase table the paper's figures plot.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecord
from repro.pilot.trace import Tracer
from repro.pilot.unit import ComputeUnit, UnitState

#: Bump when the JSONL schema changes shape.  v4: a ``unit`` record
#: carries its transitions as ``t``, the entry time of every state of
#: :data:`STATE_ORDER` (null where not entered); dumps and streamed
#: files hold the same records.  Only v4 is read: the ``event`` and
#: ``alert`` records of earlier files are unknown kinds, which load only
#: with recovery.
SCHEMA_VERSION = 4

#: ``UnitState`` names in declaration order, which is lifecycle order:
#: the order of a v4 unit row's ``t`` entries.
STATE_ORDER: Tuple[str, ...] = tuple(state.value for state in UnitState)

_STATE_INDEX = {state: i for i, state in enumerate(UnitState)}

#: The phase buckets of :func:`classify`, in report order.
PHASES: Tuple[str, ...] = ("md", "exchange", "staging", "overhead", "other")

#: Unit metadata phases folded into the manifest's ``exchange`` bucket.
_EXCHANGE_PHASES = frozenset({"exchange", "single_point"})

#: The bucket of every state but EXECUTING, which splits by phase.
_STATE_BUCKET = {
    "STAGING_INPUT": "staging",
    "STAGING_OUTPUT": "staging",
    "SCHEDULING": "overhead",
    "AGENT_EXECUTING_PENDING": "overhead",
}

_by_name = itemgetter("name")

#: the sort key of a run log's ``(name, line)`` pairs
_pair_name = itemgetter(0)

_NUMBER = (int, float)

#: The record kinds a manifest holds, each with the fields it cannot
#: load without and their JSON types.
_REQUIRED = {
    "run": {
        "title": str,
        "config_hash": str,
        "pattern": str,
        "execution_mode": str,
        "n_replicas": int,
        "pilot_cores": int,
        "t_start": _NUMBER,
        "t_end": _NUMBER,
    },
    "metrics": {},
    "span": {"name": str, "t_start": _NUMBER, "t_end": _NUMBER},
    "fault": {},
    "unit": {"name": str},
    "ladder": {},
}

#: ``json.dumps(record, sort_keys=True)`` without building an encoder
#: per call.
_encode = json.JSONEncoder(sort_keys=True).encode


class ManifestError(ValueError):
    """Raised when a manifest cannot be parsed."""


def _config_json(value):
    """``default`` hook: a dataclass instance as its fields, else ``str``."""
    if hasattr(type(value), "__dataclass_fields__"):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    return str(value)


def config_hash(config) -> str:
    """Stable sha256 over a config dataclass's canonical JSON (first 16 hex).

    The text is ``json.dumps(asdict(config), sort_keys=True,
    default=str)``, built without ``asdict``'s deep copy: the encoder
    asks :func:`_config_json` for each dataclass it meets and writes
    lists, tuples, dicts and scalars itself, as it would from the copy.
    """
    canonical = json.dumps(config, sort_keys=True, default=_config_json)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def classify(state: str, phase: Optional[str]) -> str:
    """The phase bucket of a unit's dwell in ``state``.

    EXECUTING splits by the unit's ``phase`` tag (``single_point``
    counts as exchange, matching the EMM's accounting; an untagged unit
    is ``other``), the staging states bucket as ``staging``, scheduler
    wait and launch delay as ``overhead``.  A run log's running sums,
    the totals :meth:`RunManifest.from_jsonl` derives for a killed run
    and :func:`repro.obs.critical_path.decomposition` all bucket here.
    """
    if state == "EXECUTING":
        if phase == "md":
            return "md"
        return "exchange" if phase in _EXCHANGE_PHASES else "other"
    return _STATE_BUCKET.get(state, "other")


def unit_chain(row: Dict) -> List[Tuple[str, float, float]]:
    """One unit row's ``(state, t_start, t_end)`` intervals.

    The row's ``t`` lists entry times in lifecycle order, which is the
    order the unit entered them; each state entered lasts until the
    next.  The last state entered — the final state of a finished unit —
    opens no interval.
    """
    entered = [
        (state, t) for state, t in zip(STATE_ORDER, row["t"]) if t is not None
    ]
    return [
        (state, t0, t1) for (state, t0), (_, t1) in zip(entered, entered[1:])
    ]


def row_phase_totals(rows: Iterable[Dict]) -> Dict[str, float]:
    """Per-phase core-seconds of unit rows, from their (1 µs) entry times."""
    totals = dict.fromkeys(PHASES, 0.0)
    for row in rows:
        phase = row.get("phase")
        cores = int(row.get("cores") or 1)
        for state, t0, t1 in unit_chain(row):
            totals[classify(state, phase)] += (t1 - t0) * cores
    return totals


def _unit_row(unit: ComputeUnit, totals: Dict[str, float]) -> Dict:
    """A unit's v4 row; adds the unit's dwell to ``totals`` on the way.

    The row is what a dump and a streamed file both write for the unit;
    its ``t`` entries are rounded to 1 µs.  The dwell (core-seconds in
    each state the unit has left, bucketed by :func:`classify`) comes
    from the unrounded entry times.  The uid is left out because it
    comes from a global counter and would break byte-stable manifests.
    """
    description = unit.description
    metadata = description.metadata
    phase = metadata.get("phase")
    cores = description.cores
    entered: List[Optional[float]] = [None] * len(STATE_ORDER)
    last = None
    for state, t in unit.timestamps.items():
        i = _STATE_INDEX[state]
        entered[i] = round(t, 6)
        if last is not None:
            totals[classify(last, phase)] += (t - t_last) * cores
        last, t_last = STATE_ORDER[i], t
    return {
        "name": description.name,
        "cores": cores,
        "phase": phase,
        "rid": metadata.get("rid"),
        "cycle": metadata.get("cycle"),
        "final_state": last if unit.done else None,
        "t": entered,
    }


def _unit_line(row: Dict) -> str:
    """The ``unit`` line of ``row``, as a dump and a stream write it."""
    return _encode({"kind": "unit", **row}) + "\n"


def _line_row(line: str) -> Dict:
    """The row of a ``unit`` line, as :meth:`RunManifest.from_jsonl`
    parses it."""
    row = json.loads(line)
    del row["kind"]
    return row


def _is_number(value) -> bool:
    return isinstance(value, _NUMBER) and not isinstance(value, bool)


def _problem(record) -> Optional[str]:
    """Why a parsed JSONL line cannot load as a record, or None."""
    if not isinstance(record, dict):
        return "record that is not a JSON object"
    kind = record.get("kind")
    required = _REQUIRED.get(kind)
    if required is None:
        return f"unknown record kind {kind!r}"
    for name, kinds in required.items():
        value = record.get(name)
        if not (
            _is_number(value) if kinds is _NUMBER else isinstance(value, kinds)
        ):
            return f"{kind} record without a valid {name!r}"
    if kind == "unit":
        entered = record.get("t")
        if not (
            isinstance(entered, list)
            and len(entered) == len(STATE_ORDER)
            and all(t is None or _is_number(t) for t in entered)
        ):
            return (
                f"unit record whose 't' is not {len(STATE_ORDER)} "
                "numbers or nulls"
            )
    return None


@dataclass
class RunManifest:
    """Everything observable about one finished simulation run.

    A manifest assembled from a run keeps each unit row as its log kept
    it: the ``unit`` line a dump writes, which :meth:`dump` writes
    unchanged.  :attr:`units` decodes those lines on first read and
    caches the rows.
    """

    title: str
    config_hash: str
    pattern: str
    execution_mode: str
    n_replicas: int
    pilot_cores: int
    seed: int
    t_start: float
    t_end: float
    #: core-seconds per phase of :data:`PHASES` (see :func:`classify`)
    phase_totals: Dict[str, float] = field(default_factory=dict)
    #: Eq. 4 utilization as the EMM accounted it
    utilization: float = 0.0
    #: registry snapshot at the end of the run
    metrics: Dict[str, Dict] = field(default_factory=dict)
    spans: List[SpanRecord] = field(default_factory=list)
    n_units: int = 0
    #: fault-injection events (node crashes, preemptions, staging
    #: transients) recorded by the pilot's fault domain; empty when
    #: faults are disabled
    fault_events: List[Dict] = field(default_factory=list)
    #: per-dimension exchange-dynamics records (occupancy, walkers,
    #: round-trip times) from
    #: :meth:`LadderTracker.records() <repro.obs.ladder.LadderTracker.records>`;
    #: empty under a null registry
    ladder: List[Dict] = field(default_factory=list)
    #: True when this manifest was loaded from an unfinalised stream
    #: (the run died before :meth:`ManifestStream.finalize`)
    partial: bool = False
    #: parse warnings collected by a tolerant load (``recover=True``);
    #: empty for a clean parse, never serialized
    recovered: List[str] = field(default_factory=list)
    schema_version: int = SCHEMA_VERSION
    #: the ``unit`` line per unit, sorted by name, as its run's log kept
    #: it (empty for a parsed manifest)
    _unit_lines: List[str] = field(
        default_factory=list, repr=False, compare=False
    )
    #: the rows of :attr:`units`: parsed, or decoded from
    #: :attr:`_unit_lines` on first read
    _units: Optional[List[Dict]] = field(
        default=None, repr=False, compare=False
    )
    _timeline: Optional[List[List]] = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- construction --------------------------------------------------------

    @classmethod
    def from_run(
        cls,
        config,
        result,
        run_log: Optional["ManifestStream"],
        registry: MetricsRegistry,
        fault_events: Optional[List[Dict]] = None,
        ladder: Optional[List[Dict]] = None,
    ) -> "RunManifest":
        """Assemble the manifest for a finished run.

        ``config``/``result`` are duck-typed (SimulationConfig /
        SimulationResult) so this module stays import-light.  The unit
        rows and phase totals are ``run_log``'s; it is None under a null
        registry, which yields an identity-only manifest.
        ``fault_events`` is the fault domain's event list in dict form,
        when fault injection was active; ``ladder`` is the v3
        exchange-dynamics record list, when the ladder tracker ran.
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
        if run_log is not None:
            manifest.phase_totals = dict(run_log.totals)
            # stable: the attempts of a relaunched unit share its name
            manifest._unit_lines = [
                line for _, line in sorted(run_log.rows, key=_pair_name)
            ]
            manifest.n_units = len(manifest._unit_lines)
        if fault_events:
            manifest.fault_events = list(fault_events)
        if ladder:
            manifest.ladder = list(ladder)
        return manifest

    # -- derived -------------------------------------------------------------

    @property
    def units(self) -> List[Dict]:
        """One row per unit, sorted by name: ``name``, ``cores``,
        ``phase``, ``rid``, ``cycle``, ``final_state`` and ``t`` (entry
        time per state of :data:`STATE_ORDER`, None where not entered).

        Decoded from the kept ``unit`` lines on first read and cached, so
        later edits to the rows do not reach :meth:`dump`; each row
        equals what :meth:`from_jsonl` parses from the line.
        """
        if self._units is None:
            self._units = [_line_row(line) for line in self._unit_lines]
        return self._units

    def __eq__(self, other) -> bool:
        """Field by field, the unit rows by content: a manifest from a
        run equals the one parsed from its dump."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.units == other.units and all(
            getattr(self, f.name) == getattr(other, f.name)
            for f in fields(self)
            if f.compare
        )

    @property
    def timeline(self) -> List[List]:
        """Event-ordered ``[time, unit_name, state]`` triples.

        A view, built on first access and cached (later edits to
        :attr:`units` do not show), over the unit rows' ``t`` entries.
        Times are rounded to 1 µs and ties are broken by unit name then
        state, so the list is byte-stable across runs of the same seeded
        workload regardless of uid allocation order, and equal for a
        run's dump and its streamed file — this is what the golden-trace
        regression fixtures are diffed against.
        """
        if self._timeline is None:
            triples = []
            for unit in self.units:
                name = unit["name"]
                for state, t in zip(STATE_ORDER, unit["t"]):
                    if t is not None:
                        triples.append((t, name, state))
            triples.sort()
            self._timeline = [[t, name, state] for t, name, state in triples]
        return self._timeline

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

    def _header(self) -> Dict:
        """The ``run`` record."""
        return {
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

    def _lines(self) -> Iterator[str]:
        """The JSONL records, one newline-terminated line each."""
        yield _encode(self._header()) + "\n"
        yield _encode({"kind": "metrics", "data": self.metrics}) + "\n"
        for span in self.spans:
            yield _encode({"kind": "span", **span.to_dict()}) + "\n"
        for event in self.fault_events:
            yield _encode({"kind": "fault", **event}) + "\n"
        for entry in self.ladder:
            yield _encode({"kind": "ladder", **entry}) + "\n"
        if self._unit_lines:
            yield from self._unit_lines
        else:
            for unit in self.units:
                yield _unit_line(unit)

    def to_jsonl(self) -> str:
        """Serialize as one self-describing JSON record per line."""
        return "".join(self._lines())

    @classmethod
    def from_jsonl(cls, text: str, *, recover: bool = False) -> "RunManifest":
        """Parse :meth:`to_jsonl` or streamed output back into a manifest.

        Unit rows are sorted by name: a dump writes them in that order, a
        stream as the units finish.  A stream whose run never finalized
        it ends on its provisional header, which holds no ``n_units``;
        then the unit count, the end time (the latest entry time) and
        the phase totals come from the rows.  A record that is not valid
        JSON, is of an unknown kind, or lacks a field its kind requires
        raises :class:`ManifestError`.  With
        ``recover=True`` a damaged manifest — a streamed file cut
        mid-record by a kill, or records from a newer schema — does not
        raise: each bad line is skipped and noted in :attr:`recovered`,
        and the result is marked :attr:`partial` so downstream consumers
        know the view is incomplete.  A manifest with no usable ``run``
        header is beyond recovery and still raises.
        """
        header: Optional[Dict] = None
        metrics: Dict[str, Dict] = {}
        spans: List[SpanRecord] = []
        fault_events: List[Dict] = []
        units: List[Dict] = []
        ladder: List[Dict] = []
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
            problem = _problem(record)
            if problem is not None:
                # a bad header is never recoverable: it is the identity
                if not recover or (
                    isinstance(record, dict) and record.get("kind") == "run"
                ):
                    raise ManifestError(f"line {lineno}: {problem}")
                warnings.append(f"line {lineno}: {problem} dropped")
                continue
            kind = record.pop("kind")
            if kind == "run":
                # Last header wins: a finalized ManifestStream appends a
                # non-partial header after the provisional one.
                header = record
            elif kind == "metrics":
                metrics = record.get("data", {})
            elif kind == "span":
                spans.append(SpanRecord.from_dict(record))
            elif kind == "fault":
                fault_events.append(record)
            elif kind == "unit":
                units.append(record)
            else:
                ladder.append(record)
        if header is None:
            raise ManifestError("no 'run' header record found")
        units.sort(key=_by_name)
        if header.get("partial") and "n_units" not in header:
            header["n_units"] = len(units)
            header["t_end"] = max(
                (t for row in units for t in row["t"] if t is not None),
                default=header["t_end"],
            )
            header["phase_totals"] = row_phase_totals(units)
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
            n_units=header.get("n_units", 0),
            fault_events=fault_events,
            ladder=ladder,
            partial=header.get("partial", False) or bool(warnings),
            recovered=warnings,
            schema_version=header.get("schema_version", SCHEMA_VERSION),
            _units=units,
        )

    def dump(self, path) -> Path:
        """Write the JSONL form to ``path``; returns the Path written."""
        path = Path(path)
        with path.open("w") as fh:
            fh.writelines(self._lines())
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
            "n_spans": len(self.spans),
            "n_timeline_events": len(self.timeline),
            "n_units": self.n_units,
            "n_fault_events": len(self.fault_events),
            "partial": self.partial,
        }


class ManifestStream:
    """A run's log: the one owner of its finished units' rows.

    :meth:`on_unit` is the run's :class:`~repro.pilot.trace.Tracer` sink:
    it builds each unit's v4 row once, when the unit reaches a final
    state, adds the unit's dwell to the five running phase sums
    (:attr:`totals`) and keeps the row as its ``unit`` line, the exact
    line a dump and a stream write (:attr:`rows`), from which
    :meth:`RunManifest.from_run` assembles the manifest.  A checkpoint
    journals the same rows, decoded (:meth:`rows_since`), and
    :meth:`restore` re-encodes them.

    Given a ``path`` the log is also an incrementally flushed JSONL
    manifest, so a run that *dies* still leaves a loadable prefix on
    disk: the file opens with a provisional run header marked
    ``partial`` and gets one flushed line per finished unit (the row a
    dump holds) and per fault event (:meth:`on_fault`).
    :meth:`finalize` appends the metrics snapshot, the spans, the
    ladder and a final non-partial header;
    :meth:`RunManifest.from_jsonl` takes the *last* run header and sorts
    the unit rows by name, so a finalized stream loads exactly like
    :meth:`RunManifest.dump` output.  A run that raises calls
    :meth:`abort`, which adds the rows of the units still in flight.
    Without a ``path`` the log is held in memory only.
    """

    def __init__(self, path, config):
        #: ``(name, line)`` per finished unit, in finish order: its name
        #: and its v4 row's ``unit`` line
        self.rows: List[Tuple[str, str]] = []
        #: core-seconds per phase of :data:`PHASES` over :attr:`rows`,
        #: summed in finish order from the unrounded entry times
        self.totals: Dict[str, float] = dict.fromkeys(PHASES, 0.0)
        self._fh = None
        if path is None:
            return
        self._fh = Path(path).open("w")
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
        self._put(_encode(record) + "\n")

    def _put(self, line: str) -> None:
        if self._fh is None:
            return
        self._fh.write(line)
        self._fh.flush()

    def _keep(self, row: Dict) -> None:
        line = _unit_line(row)
        self.rows.append((row["name"], line))
        self._put(line)

    # -- sinks ---------------------------------------------------------------

    def on_unit(self, unit: ComputeUnit) -> None:
        """Tracer sink: keep a finished unit's row as its line, add its
        dwell to the phase sums, and flush the line."""
        self._keep(_unit_row(unit, self.totals))

    def rows_since(self, start: int) -> Iterator[Dict]:
        """The rows of the units that finished after the first ``start``,
        decoded from their lines one at a time."""
        return (_line_row(line) for _, line in islice(self.rows, start, None))

    def restore(self, rows: List[Dict], totals: Dict[str, float]) -> None:
        """Refill the log from a checkpoint: its journaled ``rows``, each
        re-encoded to its line, and its phase sums.  The lines reach the
        file too, so a stream opened before the restore still holds the
        pre-checkpoint units."""
        self.rows = []
        self.totals = {phase: float(totals[phase]) for phase in PHASES}
        for row in rows:
            self._keep(row)

    def on_fault(self, event) -> None:
        """Fault-domain sink: flush one fault event line.

        ``event`` is a :class:`~repro.pilot.faultdomain.FaultEvent` (or
        anything with a ``to_dict``).
        """
        record = {"kind": "fault"}
        record.update(event.to_dict())
        self._write(record)

    # -- lifecycle -----------------------------------------------------------

    def finalize(self, manifest: RunManifest) -> None:
        """Append metrics, spans, the ladder and the final header, then close.

        The unit rows are already on disk, one per unit as it finished:
        a run ends only once every unit it submitted is final.
        """
        if self._fh is None:
            return
        self._write({"kind": "metrics", "data": manifest.metrics})
        for span in manifest.spans:
            self._write({"kind": "span", **span.to_dict()})
        for entry in manifest.ladder:
            self._write({"kind": "ladder", **entry})
        self._write(manifest._header())
        self.close()

    def abort(self, tracer: Optional[Tracer]) -> None:
        """Write the rows of ``tracer``'s units in flight, then close.

        The post-mortem of a run that raised: finished units already have
        their rows, so the file ends with one row per traced unit, its
        ``final_state`` null where the unit was still in flight.
        """
        if tracer is not None:
            spare = dict.fromkeys(PHASES, 0.0)
            for unit in tracer.in_flight.values():
                self._put(_unit_line(_unit_row(unit, spare)))
        self.close()

    def close(self) -> None:
        """Close the file; idempotent, later writes are dropped."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "ManifestStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
