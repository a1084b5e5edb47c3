"""Run-to-run manifest diffing for perf- and chaos-regression triage.

This module diffs the *observability* of two runs: wallclock and
utilization, the Fig.-5 phase decomposition in core-seconds, every
metric counter, the per-dimension acceptance rates, fault-event counts,
and the critical-path attribution from :mod:`repro.obs.critical_path`.  A run
diffed against itself reports all-zero deltas (pinned in the tests), so
any nonzero line in a before/after triage is a real behavioural shift,
not analysis noise.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.critical_path import KINDS, critical_paths, decomposition
from repro.obs.manifest import RunManifest
from repro.utils.tables import render_table

#: ``exchange.accepted{dim=temperature}`` -> ("accepted", "temperature")
_DIM_COUNTER_RE = re.compile(r"^exchange\.(accepted|attempted)\{dim=(.+)\}$")

#: counter deltas smaller than this are treated as zero
TOL = 1e-9


@dataclass
class Delta:
    """One compared quantity: old value, new value, difference."""

    name: str
    old: float
    new: float

    @property
    def delta(self) -> float:
        """``new - old``."""
        return self.new - self.old

    @property
    def pct(self) -> Optional[float]:
        """Relative change, or None when the old value is zero."""
        return (self.delta / self.old) if abs(self.old) > TOL else None

    @property
    def changed(self) -> bool:
        """True when the difference exceeds the tolerance."""
        return abs(self.delta) > TOL


@dataclass
class ManifestDiff:
    """Everything that differs (or not) between two run manifests."""

    title_a: str
    title_b: str
    same_config: bool
    wallclock: Delta
    utilization: Delta
    phases: List[Delta] = field(default_factory=list)
    counters: List[Delta] = field(default_factory=list)
    acceptance: List[Delta] = field(default_factory=list)
    critical_path: List[Delta] = field(default_factory=list)
    #: per-dimension exchange dynamics (round trips, mean RTT) from the
    #: v3 ``ladder`` records; empty when neither manifest carries them
    ladder: List[Delta] = field(default_factory=list)
    fault_events: Optional[Delta] = None

    def changed(self) -> List[Delta]:
        """Every delta whose difference exceeds the tolerance."""
        out = [d for d in self.all_deltas() if d.changed]
        return out

    def all_deltas(self) -> List[Delta]:
        """All compared quantities, flat."""
        deltas = [self.wallclock, self.utilization]
        deltas += self.phases + self.counters + self.acceptance
        deltas += self.critical_path + self.ladder
        if self.fault_events is not None:
            deltas.append(self.fault_events)
        return deltas

    @property
    def identical(self) -> bool:
        """True when every compared quantity is zero-delta."""
        return not self.changed()


def _acceptance_rates(manifest: RunManifest) -> Dict[str, float]:
    """Overall and per-dimension acceptance rates from the counters."""
    counters = (manifest.metrics or {}).get("counters", {})
    rates: Dict[str, float] = {}
    attempted = counters.get("exchange.attempted", 0.0)
    if attempted:
        rates["overall"] = counters.get("exchange.accepted", 0.0) / attempted
    per_dim: Dict[str, Dict[str, float]] = {}
    for name, value in counters.items():
        m = _DIM_COUNTER_RE.match(name)
        if m:
            per_dim.setdefault(m.group(2), {})[m.group(1)] = value
    for dim, vals in per_dim.items():
        if vals.get("attempted"):
            rates[dim] = vals.get("accepted", 0.0) / vals["attempted"]
    return rates


def _critical_path_totals(manifest: RunManifest) -> Dict[str, float]:
    """Whole-run critical-path seconds per phase bucket."""
    totals = {k: 0.0 for k in KINDS}
    for path in critical_paths(manifest):
        for kind, value in path.totals().items():
            totals[kind] += value
    return totals


def _ladder_stats(manifest: RunManifest) -> Dict[str, float]:
    """Flatten the v3 ladder records into comparable scalars.

    Manifests written before schema v3 have no ladder records; the dict
    is empty then and ``_paired`` treats every quantity as 0 on that
    side, so old-vs-new diffs stay well defined.
    """
    stats: Dict[str, float] = {}
    for rec in manifest.ladder or []:
        dim = rec.get("dimension", "?")
        stats[f"round_trips.{dim}"] = float(rec.get("round_trips", 0))
        stats[f"mean_rtt_s.{dim}"] = float(rec.get("mean_rtt_s", 0.0))
    return stats


def _paired(
    a: Dict[str, float], b: Dict[str, float], prefix: str = ""
) -> List[Delta]:
    names = sorted(set(a) | set(b))
    return [
        Delta(f"{prefix}{n}", float(a.get(n, 0.0)), float(b.get(n, 0.0)))
        for n in names
    ]


def diff_manifests(a: RunManifest, b: RunManifest) -> ManifestDiff:
    """Compare two manifests; ``a`` is the baseline, ``b`` the candidate."""
    counters_a = (a.metrics or {}).get("counters", {})
    counters_b = (b.metrics or {}).get("counters", {})
    return ManifestDiff(
        title_a=a.title,
        title_b=b.title,
        same_config=a.config_hash == b.config_hash,
        wallclock=Delta("wallclock_s", a.wallclock, b.wallclock),
        utilization=Delta("utilization", a.utilization, b.utilization),
        phases=_paired(decomposition(a), decomposition(b), prefix="phase."),
        counters=_paired(counters_a, counters_b),
        acceptance=_paired(
            _acceptance_rates(a), _acceptance_rates(b), prefix="acceptance."
        ),
        critical_path=_paired(
            _critical_path_totals(a),
            _critical_path_totals(b),
            prefix="critical_path.",
        ),
        ladder=_paired(_ladder_stats(a), _ladder_stats(b), prefix="rtt."),
        fault_events=Delta(
            "fault_events", len(a.fault_events), len(b.fault_events)
        ),
    )


def render_diff(diff: ManifestDiff, *, only_changed: bool = False) -> str:
    """The ``repro obs diff`` report.

    With ``only_changed`` the zero-delta rows are suppressed (handy when
    diffing large chaos runs).
    """
    header = [
        f"a: {diff.title_a}",
        f"b: {diff.title_b}",
        "config: "
        + ("identical" if diff.same_config else "DIFFERENT (config_hash mismatch)"),
    ]
    deltas = diff.all_deltas()
    if only_changed:
        deltas = [d for d in deltas if d.changed]
    rows: List[List[object]] = []
    for d in deltas:
        pct = f"{d.pct:+.1%}" if d.pct is not None else "-"
        rows.append(
            [d.name, f"{d.old:.4f}", f"{d.new:.4f}", f"{d.delta:+.4f}", pct]
        )
    body = render_table(
        ["quantity", "a", "b", "delta", "pct"],
        rows,
        title="Manifest diff",
        align_right=False,
    )
    changed = diff.changed()
    verdict = (
        "no differences: the runs are observationally identical"
        if not changed
        else f"{len(changed)} quantity(ies) differ"
    )
    return "\n".join(header + ["", body, "", verdict])
