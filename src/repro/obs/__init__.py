"""Structured observability: metrics, spans, and run manifests.

The paper's central evidence is a timing decomposition (Eq. 1) and a
utilization metric (Eq. 4); this package makes the reproduction report
them as first-class data rather than ad-hoc prints:

* :mod:`repro.obs.metrics` — counters/gauges/histograms in the
  :class:`MetricsRegistry` each run owns (pass a :class:`NullRegistry`
  to turn the layer off),
* :mod:`repro.obs.spans` — named virtual-time intervals recorded by the
  EMMs around each cycle/phase,
* :mod:`repro.obs.manifest` — the :class:`RunManifest` JSONL artifact
  every ``RepEx.run()`` attaches to its result, rendered by
  ``repro obs summary``,
* :mod:`repro.obs.export` — Chrome Trace Event JSON (Perfetto-loadable)
  and OpenMetrics text renderings of a manifest,
* :mod:`repro.obs.critical_path` — per-cycle critical-path and Fig.-5
  phase-decomposition analytics,
* :mod:`repro.obs.diff` — run-to-run manifest comparison for perf- and
  chaos-regression triage,
* :mod:`repro.obs.ladder` — per-replica ladder occupancy and round-trip
  time tracking (exchange dynamics).

Host (wall-clock) time is measured from outside the program:
``benchmarks/e2e/run.py --trace 1`` splits it per layer.

See ``docs/OBSERVABILITY.md`` for the metric-name and span taxonomy.
"""

from repro.obs.critical_path import (
    CyclePath,
    Segment,
    critical_paths,
    decomposition,
    render_report,
)
from repro.obs.diff import Delta, ManifestDiff, diff_manifests, render_diff
from repro.obs.export import (
    chrome_trace,
    escape_label_value,
    format_label,
    openmetrics,
    validate_chrome_trace,
    validate_openmetrics,
)
from repro.obs.ladder import LadderTracker
from repro.obs.manifest import (
    ManifestError,
    ManifestStream,
    RunManifest,
    SCHEMA_VERSION,
    config_hash,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullRegistry,
)
from repro.obs.spans import Span, SpanRecord

__all__ = [
    "Counter",
    "CyclePath",
    "Delta",
    "Gauge",
    "Histogram",
    "LadderTracker",
    "ManifestDiff",
    "ManifestError",
    "ManifestStream",
    "MetricError",
    "MetricsRegistry",
    "NullRegistry",
    "RunManifest",
    "SCHEMA_VERSION",
    "Segment",
    "Span",
    "SpanRecord",
    "chrome_trace",
    "config_hash",
    "critical_paths",
    "decomposition",
    "diff_manifests",
    "escape_label_value",
    "format_label",
    "openmetrics",
    "render_diff",
    "render_report",
    "validate_chrome_trace",
    "validate_openmetrics",
]
