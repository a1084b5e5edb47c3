"""Trace export: Chrome Trace Event JSON and OpenMetrics text.

The paper's figures are timing decompositions; the fastest way to *see*
one is to load the run in a trace viewer.  :func:`chrome_trace` renders a
:class:`~repro.obs.manifest.RunManifest` into the Chrome Trace Event
Format (the JSON Perfetto and ``chrome://tracing`` load), with

* one lane holding the algorithm's phase spans (``cycle`` > ``md`` /
  ``exchange`` as nested slices),
* one lane per replica showing each unit's lifecycle (the whole unit as
  an outer slice, its pilot states nested inside),
* one lane per pilot core showing a deterministic rendering of core
  occupancy over virtual time, and
* one lane for framework units (exchange calculations) without a replica.

:func:`openmetrics` renders the manifest's final metric snapshot in the
OpenMetrics/Prometheus text exposition format, so existing dashboards
and ``promtool`` can consume the numbers.  Both exports are pure
functions of the manifest: the same manifest always produces the same
bytes, which is what lets CI diff them.

Virtual-time seconds map to trace microseconds (``ts``/``dur``), the
unit the Chrome format expects.
"""

from __future__ import annotations

import re
from typing import Dict, Iterable, List, Tuple

from repro.obs.manifest import RunManifest, unit_chain

#: process ids of the fixed lanes
PID_PHASES = 1
PID_REPLICAS = 2
PID_FRAMEWORK = 3
PID_CORES = 4


def _us(t: float) -> int:
    """Virtual seconds -> integer trace microseconds."""
    return int(round(t * 1e6))


def unit_intervals(manifest: RunManifest) -> Dict[str, List[Tuple[str, float, float]]]:
    """Per-unit-name ``(state, t_start, t_end)`` chains from the unit rows.

    A relaunched unit keeps its name, so the chains of all attempts of
    one name are concatenated in row order.
    """
    intervals: Dict[str, List[Tuple[str, float, float]]] = {}
    for unit in manifest.units:
        intervals.setdefault(unit["name"], []).extend(unit_chain(unit))
    return intervals


def _core_assignment(
    executions: Iterable[Tuple[str, float, float, int]],
    n_cores: int,
) -> List[Tuple[str, float, float, int]]:
    """Deterministic first-fit rendering of EXECUTING intervals onto cores.

    The manifest does not record which physical cores the scheduler
    picked, so this synthesizes *a* valid non-overlapping assignment:
    intervals sorted by (start, name) each take the lowest-numbered
    cores that are free.  Returns ``(unit, t0, t1, core)`` tuples, one
    per core occupied.
    """
    free_at = [0.0] * n_cores
    placed: List[Tuple[str, float, float, int]] = []
    eps = 1e-9
    for name, t0, t1, cores in sorted(executions, key=lambda e: (e[1], e[0])):
        grabbed = []
        for core in range(n_cores):
            if free_at[core] <= t0 + eps:
                grabbed.append(core)
                if len(grabbed) == cores:
                    break
        if len(grabbed) < cores:
            # crashed/quarantined capacity can leave no consistent
            # rendering; drop the unit rather than draw an overlap
            continue
        for core in grabbed:
            free_at[core] = t1
            placed.append((name, t0, t1, core))
    return placed


def chrome_trace(manifest: RunManifest) -> Dict:
    """Render ``manifest`` as a Chrome Trace Event Format document.

    Deterministic: event order, lane numbering and JSON content are pure
    functions of the manifest.  Load the output in Perfetto
    (https://ui.perfetto.dev) or ``chrome://tracing``.
    """
    events: List[Dict] = []

    def meta_event(pid: int, tid: int, kind: str, label: str) -> Dict:
        return {
            "ph": "M",
            "ts": 0,
            "pid": pid,
            "tid": tid,
            "name": kind,
            "args": {"name": label},
        }

    def slice_event(
        pid: int, tid: int, name: str, t0: float, t1: float, args: Dict
    ) -> Dict:
        return {
            "ph": "X",
            "ts": _us(t0),
            "dur": max(0, _us(t1) - _us(t0)),
            "pid": pid,
            "tid": tid,
            "name": name,
            "args": args,
        }

    # -- lane 1: algorithm phase spans ---------------------------------------
    events.append(meta_event(PID_PHASES, 0, "process_name", "algorithm"))
    events.append(meta_event(PID_PHASES, 1, "thread_name", "phases"))
    for span in manifest.spans:
        args: Dict[str, object] = {
            k: v for k, v in sorted(span.tags.items()) if v is not None
        }
        if span.span_id is not None:
            args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.unit is not None:
            args["unit"] = span.unit
        events.append(
            slice_event(PID_PHASES, 1, span.name, span.t_start, span.t_end, args)
        )

    # -- lanes 2/3: per-replica and framework unit lifecycles ----------------
    events.append(meta_event(PID_REPLICAS, 0, "process_name", "replicas"))
    events.append(meta_event(PID_FRAMEWORK, 0, "process_name", "framework units"))
    events.append(meta_event(PID_FRAMEWORK, 1, "thread_name", "exchange"))
    replica_tids = set()
    executions = []
    for row in manifest.units:
        chain = unit_chain(row)
        if not chain:
            continue
        unit = row["name"]
        rid = row.get("rid")
        if rid is not None:
            pid, tid = PID_REPLICAS, rid + 1
            if tid not in replica_tids:
                replica_tids.add(tid)
                events.append(
                    meta_event(pid, tid, "thread_name", f"replica {rid}")
                )
        else:
            pid, tid = PID_FRAMEWORK, 1
        phase = row.get("phase")
        t0, t1 = chain[0][1], chain[-1][2]
        outer_args: Dict[str, object] = {"unit": unit}
        if phase is not None:
            outer_args["phase"] = phase
        events.append(slice_event(pid, tid, unit, t0, t1, outer_args))
        for state, s0, s1 in chain:
            events.append(
                slice_event(pid, tid, state, s0, s1, {"unit": unit})
            )
            if state == "EXECUTING":
                cores = int(row.get("cores") or 1)
                executions.append((unit, s0, s1, cores))

    # -- lane 4: synthesized core occupancy ----------------------------------
    if manifest.pilot_cores > 0 and executions:
        events.append(meta_event(PID_CORES, 0, "process_name", "cores"))
        placed = _core_assignment(executions, manifest.pilot_cores)
        for core in sorted({c for _, _, _, c in placed}):
            events.append(
                meta_event(PID_CORES, core + 1, "thread_name", f"core {core}")
            )
        for unit, t0, t1, core in sorted(placed, key=lambda p: (p[3], p[1], p[0])):
            events.append(
                slice_event(PID_CORES, core + 1, unit, t0, t1, {"unit": unit})
            )

    # Stable global order: metadata first, then by (ts, pid, tid,
    # -dur, name) so outer slices precede the slices they contain.
    events.sort(
        key=lambda e: (
            e["ph"] != "M",
            e["ts"],
            e["pid"],
            e["tid"],
            -e.get("dur", 0),
            e["name"],
        )
    )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "title": manifest.title,
            "config_hash": manifest.config_hash,
            "pattern": manifest.pattern,
            "execution_mode": manifest.execution_mode,
            "schema_version": manifest.schema_version,
        },
    }


#: keys every trace event must carry (the CI schema gate checks these)
REQUIRED_EVENT_KEYS = ("ph", "ts", "pid", "tid", "name")


def validate_chrome_trace(doc: Dict) -> int:
    """Validate a :func:`chrome_trace` document against the schema.

    Checks the shape Perfetto actually requires: a ``traceEvents`` list
    whose every event carries :data:`REQUIRED_EVENT_KEYS`, numeric
    non-negative ``ts``, and a non-negative ``dur`` on complete (``X``)
    events.  Returns the number of events; raises ``ValueError`` with
    every problem found otherwise.
    """
    problems: List[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("document has no 'traceEvents' list")
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {i}: not an object")
            continue
        missing = [k for k in REQUIRED_EVENT_KEYS if k not in event]
        if missing:
            problems.append(f"event {i}: missing keys {missing}")
            continue
        if not isinstance(event["ts"], (int, float)) or event["ts"] < 0:
            problems.append(f"event {i}: bad ts {event['ts']!r}")
        if event["ph"] == "X" and event.get("dur", 0) < 0:
            problems.append(f"event {i}: negative dur")
    if problems:
        raise ValueError(
            f"{len(problems)} schema violation(s): " + "; ".join(problems[:10])
        )
    return len(events)


# -- OpenMetrics --------------------------------------------------------------

_LABELLED_RE = re.compile(r"^(?P<base>[^{]+)\{(?P<labels>.*)\}$", re.DOTALL)
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_:]")


def escape_label_value(value: str) -> str:
    """Escape a label value per the OpenMetrics text exposition rules.

    Backslash, double-quote and newline are the three characters the
    spec requires escaping inside a quoted label value; anything else
    passes through verbatim.
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def unescape_label_value(value: str) -> str:
    """Invert :func:`escape_label_value` (exposition -> raw value)."""
    out: List[str] = []
    i = 0
    while i < len(value):
        ch = value[i]
        if ch == "\\" and i + 1 < len(value):
            nxt = value[i + 1]
            out.append({"\\": "\\", '"': '"', "n": "\n"}.get(nxt, nxt))
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def split_label_pairs(labels: str) -> List[Tuple[str, str]]:
    """Parse a label-set body into ``(key, raw value)`` pairs.

    Handles both registry-style unquoted values (``dim=temperature``)
    and exposition-style quoted values with escapes
    (``tenant="acme \\"west\\""``); commas inside quoted values do not
    split pairs.  Registry names never quote, so an unquoted value
    cannot itself contain ``,`` or ``=`` — tenants/scenarios with such
    characters arrive via campaign labelling which this parser and
    :func:`escape_label_value` round-trip correctly once quoted.
    """
    pairs: List[Tuple[str, str]] = []
    i, n = 0, len(labels)
    while i < n:
        eq = labels.find("=", i)
        if eq < 0:
            break
        key = labels[i:eq].strip().lstrip(",").strip()
        j = eq + 1
        while j < n and labels[j] in " \t":
            j += 1
        if j < n and labels[j] == '"':
            # quoted value: scan to the closing unescaped quote
            j += 1
            buf: List[str] = []
            while j < n:
                ch = labels[j]
                if ch == "\\" and j + 1 < n:
                    buf.append(ch)
                    buf.append(labels[j + 1])
                    j += 2
                    continue
                if ch == '"':
                    break
                buf.append(ch)
                j += 1
            value = unescape_label_value("".join(buf))
            i = j + 1
        else:
            end = labels.find(",", j)
            if end < 0:
                end = n
            value = labels[j:end].strip()
            i = end
        if key:
            pairs.append((key, value))
        # skip the pair separator
        while i < n and labels[i] in ", \t":
            i += 1
    return pairs


_SIMPLE_VALUE_RE = re.compile(r"^[^\s\",=\\{}]+$")


def format_label(key: str, value) -> str:
    """Render one ``key=value`` pair for a registry metric name.

    Simple values stay bare (``dim=temperature``, matching the existing
    registry naming convention everywhere); values containing ``"``,
    ``\\``, newlines, commas, equals or braces are quoted and escaped so
    :func:`split_label_pairs` recovers them exactly.
    """
    value = str(value)
    if _SIMPLE_VALUE_RE.match(value):
        return f"{key}={value}"
    return f'{key}="{escape_label_value(value)}"'


def _metric_name(name: str) -> Tuple[str, str]:
    """Split a registry metric name into (exposition name, label string).

    ``exchange.attempted{dim=temperature}`` becomes
    ``("exchange_attempted", 'dim="temperature"')``.  Label values are
    escaped for the exposition, so tenant/scenario names containing
    ``"``, ``\\`` or newlines survive the round trip.
    """
    labels = ""
    m = _LABELLED_RE.match(name)
    if m:
        name = m.group("base")
        pairs = [
            f'{key}="{escape_label_value(value)}"'
            for key, value in split_label_pairs(m.group("labels"))
        ]
        labels = ",".join(pairs)
    return _SANITIZE_RE.sub("_", name.strip()), labels


def _format_value(value: float) -> str:
    return repr(float(value))


def openmetrics_snapshot(metrics: Dict) -> str:
    """A registry-shaped metrics dict in OpenMetrics text exposition.

    ``metrics`` is the ``{"counters": ..., "gauges": ..., "histograms":
    ...}`` snapshot a :class:`~repro.obs.metrics.MetricsRegistry`
    produces (and a :class:`~repro.obs.manifest.RunManifest` embeds).
    Counters become ``<name>_total``, gauges plain samples, histograms
    summaries (quantiles + ``_count``/``_sum``), each with a ``# TYPE``
    line; dotted registry names map to underscores and ``{dim=...}``
    suffixes to proper label sets.  Ends with ``# EOF`` per the spec.

    This is the shared rendering path for single-run manifests
    (:func:`openmetrics`) and for campaign-level aggregations with
    ``{tenant=...}`` labels (:mod:`repro.campaign.service`).
    """
    lines: List[str] = []
    metrics = metrics or {}

    def sample(name: str, labels: str, value: float, suffix: str = "") -> str:
        label_part = f"{{{labels}}}" if labels else ""
        return f"{name}{suffix}{label_part} {_format_value(value)}"

    typed: Dict[str, str] = {}

    def type_line(name: str, kind: str) -> None:
        if typed.get(name) is None:
            typed[name] = kind
            lines.append(f"# TYPE {name} {kind}")

    for raw, value in sorted((metrics.get("counters") or {}).items()):
        name, labels = _metric_name(raw)
        type_line(name, "counter")
        lines.append(sample(name, labels, value, suffix="_total"))
    for raw, value in sorted((metrics.get("gauges") or {}).items()):
        name, labels = _metric_name(raw)
        type_line(name, "gauge")
        lines.append(sample(name, labels, value))
    for raw, stats in sorted((metrics.get("histograms") or {}).items()):
        name, labels = _metric_name(raw)
        type_line(name, "summary")
        for q_key, q_label in (("p50", "0.5"), ("p90", "0.9"), ("p99", "0.99")):
            if q_key in stats:
                q_labels = f'quantile="{q_label}"'
                if labels:
                    q_labels = f"{labels},{q_labels}"
                lines.append(sample(name, q_labels, stats[q_key]))
        lines.append(sample(name, labels, stats.get("count", 0), suffix="_count"))
        lines.append(sample(name, labels, stats.get("total", 0.0), suffix="_sum"))
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def openmetrics(manifest: RunManifest) -> str:
    """The manifest's metric snapshot in OpenMetrics text exposition.

    A thin wrapper over :func:`openmetrics_snapshot`; both exports are
    pure functions of their input, so the same manifest always produces
    the same bytes.
    """
    return openmetrics_snapshot(manifest.metrics or {})


_EXPOSITION_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_VALID_TYPES = frozenset(
    {"counter", "gauge", "summary", "histogram", "unknown", "info", "stateset"}
)


def validate_openmetrics(text: str) -> int:
    """Validate an OpenMetrics text exposition.

    Checks the structural rules consumers depend on: every ``# TYPE``
    line declares a valid name and type, every sample line has a valid
    metric name, a parseable (possibly quoted/escaped) label set and a
    float value, and the exposition terminates with ``# EOF``.  Returns
    the number of sample lines; raises ``ValueError`` listing every
    problem otherwise.  This is the OpenMetrics counterpart of
    :func:`validate_chrome_trace`, used by ``repro obs validate``.
    """
    problems: List[str] = []
    samples = 0
    lines = text.splitlines()
    if not lines or lines[-1].strip() != "# EOF":
        problems.append("exposition does not end with '# EOF'")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            problems.append(f"line {lineno}: blank line in exposition")
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) < 4:
                    problems.append(f"line {lineno}: malformed TYPE line")
                elif not _EXPOSITION_NAME_RE.match(parts[2]):
                    problems.append(
                        f"line {lineno}: bad metric name {parts[2]!r}"
                    )
                elif parts[3] not in _VALID_TYPES:
                    problems.append(
                        f"line {lineno}: unknown metric type {parts[3]!r}"
                    )
            continue
        # sample line: name[{labels}] value
        m = re.match(r"^(?P<name>[^\s{]+)(\{(?P<labels>.*)\})?\s+(?P<value>\S+)\s*$", line)
        if not m:
            problems.append(f"line {lineno}: unparsable sample line")
            continue
        if not _EXPOSITION_NAME_RE.match(m.group("name")):
            problems.append(
                f"line {lineno}: bad metric name {m.group('name')!r}"
            )
        labels = m.group("labels")
        if labels:
            # every pair must be key="..." with balanced quoting
            if not re.match(
                r'^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"'
                r'(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*$',
                labels,
            ):
                problems.append(f"line {lineno}: malformed label set")
        try:
            float(m.group("value"))
        except ValueError:
            problems.append(
                f"line {lineno}: non-numeric value {m.group('value')!r}"
            )
        samples += 1
    if problems:
        raise ValueError(
            f"{len(problems)} exposition violation(s): "
            + "; ".join(problems[:10])
        )
    return samples
