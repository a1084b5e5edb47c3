"""Run, record and compare the canonical perf scenarios.

Results are machine-readable JSON — ``BENCH_scale.json`` at the repo root
is the committed trajectory, ``repro bench --compare old new`` is the
regression gate (exits nonzero when events/s drops more than the
threshold).  Wallclock is measured with observability off (null registry)
so the numbers track the simulator's own hot paths, not the metrics
layer.
"""

from __future__ import annotations

import cProfile
import io
import json
import pstats
import statistics
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.campaign.spec import CampaignSpec
from repro.core.framework import RepEx
from repro.obs.metrics import MetricsRegistry, NullRegistry, using_registry
from repro.perf.scenarios import SCENARIOS, scenario_names

#: canonical result file name, written at the repo root
BENCH_FILENAME = "BENCH_scale.json"

#: default allowed events/s regression before --compare fails
DEFAULT_THRESHOLD = 0.25


#: fields that must not vary across repeats of one scenario
_DETERMINISTIC_FIELDS = ("events_fired", "peak_heap", "virtual_s", "n_failures")


def run_scenario(
    name: str,
    *,
    fast: bool = False,
    profile: bool = False,
    profile_top: int = 25,
    repeats: Optional[int] = None,
) -> Dict[str, object]:
    """Run one scenario and return its measurement record.

    ``repeats`` reruns the scenario and reports the **median** wallclock
    (with the min/max spread alongside, as ``wall_min_s``/``wall_max_s``)
    — a single sample on a noisy host routinely swings 2x, and best-of-N
    systematically flatters the new side of a comparison.  The
    deterministic counters must agree across repeats — a mismatch raises
    — so only timing noise is summarized away.  Defaults to 3 for fast
    runs (they finish in ~0.1 s, where OS scheduling noise dominates the
    measurement) and 1 for full runs; profiling always runs once.

    With ``profile=True`` the run happens under :mod:`cProfile` and the
    top ``profile_top`` functions by internal time are printed to stdout
    (the wallclock then includes profiler overhead — don't commit those
    numbers).
    """
    if repeats is None:
        repeats = 3 if fast else 1
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if profile:
        repeats = 1
    records = [
        _measure(name, fast=fast, profile=profile, profile_top=profile_top)
        for _ in range(repeats)
    ]
    result = records[0]
    for record in records[1:]:
        for field in _DETERMINISTIC_FIELDS:
            if record[field] != result[field]:
                raise RuntimeError(
                    f"scenario {name!r} is non-deterministic: "
                    f"{field} varied across repeats "
                    f"({record[field]!r} vs {result[field]!r})"
                )
    walls = [float(r["wall_s"]) for r in records]
    wall = statistics.median(walls)
    events = int(result["events_fired"])
    result["wall_s"] = round(wall, 4)
    result["wall_min_s"] = round(min(walls), 4)
    result["wall_max_s"] = round(max(walls), 4)
    result["events_per_s"] = round(events / wall, 1) if wall > 0 else 0.0
    result["repeats"] = repeats
    return result


def _print_hotspots(profiler: cProfile.Profile, top: int, name: str) -> None:
    """Print the ``top`` functions of a profiled run by internal time."""
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.sort_stats("tottime").print_stats(top)
    print(f"--- cProfile top {top} (tottime) for {name} ---")
    print(stream.getvalue())


def _measure(
    name: str,
    *,
    fast: bool,
    profile: bool,
    profile_top: int,
) -> Dict[str, object]:
    scenario = SCENARIOS[name]
    config = scenario.build(fast)
    if isinstance(config, CampaignSpec):
        return _measure_campaign(
            scenario, config, fast=fast, profile=profile,
            profile_top=profile_top,
        )
    with using_registry(NullRegistry()):
        repex = RepEx(config)
        profiler = cProfile.Profile() if profile else None
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        result = repex.run()
        if profiler is not None:
            profiler.disable()
        wall = time.perf_counter() - start
    clock = repex.session.clock
    if profiler is not None:
        _print_hotspots(profiler, profile_top, name)
    events = clock.n_fired
    return {
        "description": scenario.description,
        "fast": fast,
        "n_replicas": config.n_replicas,
        "n_cycles": config.n_cycles,
        "wall_s": round(wall, 4),
        "virtual_s": round(clock.now, 3),
        "events_fired": events,
        "events_per_s": round(events / wall, 1) if wall > 0 else 0.0,
        "peak_heap": clock.peak_heap,
        "n_failures": result.n_failures,
    }


def _measure_campaign(
    scenario,
    spec: CampaignSpec,
    *,
    fast: bool,
    profile: bool,
    profile_top: int,
) -> Dict[str, object]:
    """Measure a campaign scenario: the two-level DES end to end.

    The arbiter is driven directly (rather than through
    :func:`~repro.campaign.service.run_campaign`) so the outer event
    queue's counters are readable afterwards, and every inner session
    runs under a null registry — the same observability-off convention
    the single-simulation measurements use.  The deterministic fields
    aggregate both levels: ``events_fired`` sums the arbiter clock and
    every inner clock, ``virtual_s`` is the campaign makespan, and
    ``n_failures`` counts inner failures plus crash-induced relaunches.
    """
    from repro.campaign.arbiter import Arbiter, SessionOutcome
    from repro.campaign.service import expand_requests
    from repro.core.config import SimulationConfig

    def in_process_runner(request):
        config = SimulationConfig.from_dict(request.payload)
        repex = RepEx(config, registry=NullRegistry())
        result = repex.run()
        return SessionOutcome(
            duration_s=result.t_end,
            ok=True,
            events_fired=repex.session.clock.n_fired,
            peak_heap=repex.session.clock.peak_heap,
            n_failures=result.n_failures,
        )

    requests = expand_requests(spec)
    arbiter = Arbiter(
        spec.datacenter,
        spec.tenants,
        faults=spec.faults,
        queue_limit=spec.queue_limit,
        relaunch_limit=spec.relaunch_limit,
        seed=spec.seed,
    )
    profiler = cProfile.Profile() if profile else None
    start = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    arbiter.prepare(in_process_runner)
    for request in requests:
        arbiter.submit(request)
    records = arbiter.run(in_process_runner)
    if profiler is not None:
        profiler.disable()
    wall = time.perf_counter() - start
    if profiler is not None:
        _print_hotspots(profiler, profile_top, scenario.name)
    outcomes = [r.outcome for r in records if r.outcome is not None]
    events = arbiter.clock.n_fired + sum(o.events_fired for o in outcomes)
    n_replicas = 0
    n_cycles = 0
    for record in records:
        payload = record.request.payload or {}
        windows = 1
        for dim in payload.get("dimensions", []):
            windows *= int(dim.get("n_windows", 1))
        n_replicas += windows
        n_cycles += int(payload.get("n_cycles", 1))
    peaks = [arbiter.clock.peak_heap] + [o.peak_heap for o in outcomes]
    return {
        "description": scenario.description,
        "fast": fast,
        "n_replicas": n_replicas,
        "n_cycles": n_cycles,
        "n_sessions": len(records),
        "relaunches": sum(r.relaunches for r in records),
        "wall_s": round(wall, 4),
        "virtual_s": round(arbiter.clock.now, 3),
        "events_fired": events,
        "events_per_s": round(events / wall, 1) if wall > 0 else 0.0,
        "peak_heap": max(peaks),
        "n_failures": sum(o.n_failures for o in outcomes)
        + sum(r.relaunches for r in records),
    }


def run_suite(
    names: Optional[Iterable[str]] = None,
    *,
    fast: bool = False,
    profile: bool = False,
    repeats: Optional[int] = None,
    echo: Optional[object] = None,
) -> Dict[str, object]:
    """Run scenarios (all by default) and return the result document.

    ``echo``, if given, is called with a one-line summary after each
    scenario (the CLI passes ``print``).
    """
    selected = list(names) if names else scenario_names()
    unknown = [n for n in selected if n not in SCENARIOS]
    if unknown:
        raise KeyError(
            f"unknown scenario(s) {unknown}; known: {scenario_names()}"
        )
    doc: Dict[str, object] = {
        "_meta": {
            "schema": 1,
            "fast": fast,
            "note": (
                "framework-throughput benchmarks: numeric_steps=1, "
                "observability off; fast and full runs are not comparable"
            ),
        }
    }
    for name in selected:
        record = run_scenario(name, fast=fast, profile=profile, repeats=repeats)
        doc[name] = record
        if echo is not None:
            echo(
                f"{name:<20} wall {record['wall_s']:>8.3f} s   "
                f"{record['events_fired']:>7} events   "
                f"{record['events_per_s']:>9.1f} ev/s   "
                f"peak heap {record['peak_heap']}"
            )
    return doc


def export_traces(
    names: Optional[Iterable[str]] = None,
    *,
    fast: bool = False,
    trace_dir: str,
    echo: Optional[object] = None,
) -> List[Path]:
    """Re-run scenarios with observability ON and write trace artifacts.

    The timed measurements above run under a null registry, so they have
    no manifest to export; this does one *separate* instrumented run per
    scenario (not comparable to the timed numbers) and writes
    ``<name>.manifest.jsonl`` plus a Perfetto-loadable
    ``<name>.trace.json`` into ``trace_dir``.  Returns the paths written.
    """
    from repro.obs.export import chrome_trace

    selected = list(names) if names else scenario_names()
    unknown = [n for n in selected if n not in SCENARIOS]
    if unknown:
        raise KeyError(
            f"unknown scenario(s) {unknown}; known: {scenario_names()}"
        )
    out = Path(trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: List[Path] = []
    for name in selected:
        config = SCENARIOS[name].build(fast)
        slug = name.replace("/", "_")
        if isinstance(config, CampaignSpec):
            # A campaign has no single manifest; write the per-session
            # manifest tree plus the aggregated report instead.  The
            # --compare attribution path degrades gracefully when its
            # <slug>.manifest.jsonl is absent.
            from repro.campaign.service import run_campaign

            report = run_campaign(
                config, manifest_dir=out / f"{slug}.sessions"
            )
            report_path = out / f"{slug}.report.json"
            report_path.write_text(
                json.dumps(report.to_dict(), indent=2, sort_keys=True)
                + "\n"
            )
            written.append(report_path)
            if echo is not None:
                echo(f"{name:<20} campaign report -> {report_path}")
            continue
        with using_registry(MetricsRegistry()):
            result = RepEx(config).run()
        manifest = result.manifest
        manifest_path = out / f"{slug}.manifest.jsonl"
        manifest.dump(manifest_path)
        trace_path = out / f"{slug}.trace.json"
        trace_path.write_text(
            json.dumps(chrome_trace(manifest), indent=2, sort_keys=True) + "\n"
        )
        written += [manifest_path, trace_path]
        if echo is not None:
            echo(f"{name:<20} traces -> {manifest_path} {trace_path}")
    return written


def write_results(doc: Dict[str, object], path: str) -> None:
    """Write a result document as indented JSON (trailing newline)."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def load_results(path: str) -> Dict[str, object]:
    """Load a result document written by :func:`write_results`."""
    return json.loads(Path(path).read_text())


def compare_results(
    old: Dict[str, object],
    new: Dict[str, object],
    *,
    threshold: float = DEFAULT_THRESHOLD,
    attribute_dirs: Optional[Tuple[str, str]] = None,
) -> Tuple[List[str], int]:
    """Diff two result documents on events/s.

    Returns (report lines, number of regressions).  A scenario regresses
    when its new events/s falls below ``(1 - threshold)`` times the old
    one.  Scenarios present on only one side are reported but never fail
    the gate.

    ``attribute_dirs`` is an (old, new) pair of trace directories as
    written by ``repro bench --trace-dir``; when given, every regressed
    scenario's report is followed by a phase/critical-path attribution
    diffed from the two ``<scenario>.manifest.jsonl`` files, so the
    failure output says *where* the time went, not just that it did.
    """
    lines: List[str] = []
    regressions = 0
    old_scenarios = {k: v for k, v in old.items() if not k.startswith("_")}
    new_scenarios = {k: v for k, v in new.items() if not k.startswith("_")}
    for name in old_scenarios:
        if name not in new_scenarios:
            lines.append(f"{name:<20} only in old results (skipped)")
            continue
        o = float(old_scenarios[name]["events_per_s"])
        n = float(new_scenarios[name]["events_per_s"])
        change = (n - o) / o if o > 0 else 0.0
        verdict = "ok"
        regressed = o > 0 and n < o * (1.0 - threshold)
        if regressed:
            verdict = f"REGRESSION (> {threshold:.0%} slower)"
            regressions += 1
        lines.append(
            f"{name:<20} {o:>9.1f} -> {n:>9.1f} ev/s  "
            f"({change:+7.1%})  {verdict}"
        )
        if regressed and attribute_dirs is not None:
            lines += _attribute_regression(name, attribute_dirs)
    for name in new_scenarios:
        if name not in old_scenarios:
            lines.append(f"{name:<20} only in new results (skipped)")
    return lines, regressions


def _attribute_regression(
    name: str, attribute_dirs: Tuple[str, str]
) -> List[str]:
    """Phase-attribution lines for one regressed scenario.

    Loads ``<scenario>.manifest.jsonl`` from the old and new trace
    directories and runs :func:`repro.obs.diff.diff_manifests` on the
    pair, reporting the wallclock, per-phase core-second and
    critical-path deltas.  All-zero deltas mean the simulated behaviour
    is unchanged, so the events/s drop is host noise or a hot-path
    slowdown — also worth saying.  Missing manifests degrade to a hint
    line rather than failing the compare.
    """
    from repro.obs.diff import diff_manifests
    from repro.obs.manifest import ManifestError, RunManifest

    slug = name.replace("/", "_")
    manifests = []
    for trace_dir in attribute_dirs:
        path = Path(trace_dir) / f"{slug}.manifest.jsonl"
        try:
            manifests.append(RunManifest.load(path, recover=True))
        except (OSError, ManifestError) as exc:
            return [f"    attribution unavailable: {exc}"]
    diff = diff_manifests(manifests[0], manifests[1])
    shifted = [
        d
        for d in [diff.wallclock] + diff.phases + diff.critical_path
        if d.changed
    ]
    if not shifted:
        return [
            "    attribution: manifests diff all-zero — the simulated "
            "behaviour is unchanged; the slowdown is in the framework "
            "hot paths or the measurement host"
        ]
    return [
        f"    {d.name:<32} {d.old:>12.3f} -> {d.new:>12.3f}"
        + (f"  ({d.pct:+.1%})" if d.pct is not None else "")
        for d in shifted
    ]
