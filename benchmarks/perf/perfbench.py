"""Run, record and compare the canonical perf scenarios.

Run every scenario (:mod:`perf_scenarios`) and write the committed
trajectory ``BENCH_scale.json``; compare two result files on events/s::

    PYTHONPATH=src python benchmarks/perf/perfbench.py
    PYTHONPATH=src python benchmarks/perf/perfbench.py --fast -o fast.json
    PYTHONPATH=src python benchmarks/perf/perfbench.py --compare OLD NEW

Exit codes: 0 success, 1 ``--compare`` found a regression past the
threshold, 2 unreadable result file, unknown scenario or bad usage.
Wallclock is measured with observability off (null registry) so the
numbers track the simulator's own hot paths, not the metrics layer.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import json
import pstats
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from perf_scenarios import SCENARIOS, scenario_names
from repro.campaign.spec import CampaignSpec
from repro.core.framework import RepEx
from repro.obs.metrics import NullRegistry

#: functions ``--profile`` prints per scenario
PROFILE_TOP = 25

#: default allowed events/s regression before --compare fails
DEFAULT_THRESHOLD = 0.25

#: record fields that must be identical on every run and every machine
DETERMINISTIC_FIELDS = (
    "events_fired",
    "peak_heap",
    "virtual_s",
    "n_failures",
    "n_replicas",
    "n_cycles",
)


def run_scenario(
    name: str,
    *,
    fast: bool = False,
    profile: bool = False,
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
    measurement) and 1 for full runs; profiling always runs once, and
    its wallclock includes the profiler's overhead.
    """
    if repeats is None:
        repeats = 3 if fast else 1
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if profile:
        repeats = 1
    records = [
        _measure(name, fast=fast, profile=profile) for _ in range(repeats)
    ]
    result = records[0]
    for record in records[1:]:
        for field in DETERMINISTIC_FIELDS:
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


def _timed(fn, *, profile: bool, name: str):
    """Call ``fn()`` and return its value and wallclock seconds.

    With ``profile`` the call runs under :mod:`cProfile`, and the top
    :data:`PROFILE_TOP` functions by internal time are printed after it.
    """
    profiler = cProfile.Profile() if profile else None
    start = time.perf_counter()
    value = fn() if profiler is None else profiler.runcall(fn)
    wall = time.perf_counter() - start
    if profiler is not None:
        stream = io.StringIO()
        stats = pstats.Stats(profiler, stream=stream)
        stats.sort_stats("tottime").print_stats(PROFILE_TOP)
        print(f"--- cProfile top {PROFILE_TOP} (tottime) for {name} ---")
        print(stream.getvalue())
    return value, wall


def _measure(name: str, *, fast: bool, profile: bool) -> Dict[str, object]:
    """One run's record; ``run_scenario`` adds ``events_per_s``."""
    scenario = SCENARIOS[name]
    config = scenario.build(fast)
    if isinstance(config, CampaignSpec):
        return _measure_campaign(scenario, config, fast=fast, profile=profile)
    repex = RepEx(config, registry=NullRegistry())
    result, wall = _timed(repex.run, profile=profile, name=name)
    clock = repex.session.clock
    return {
        "description": scenario.description,
        "fast": fast,
        "n_replicas": config.n_replicas,
        "n_cycles": config.n_cycles,
        "wall_s": round(wall, 4),
        "virtual_s": round(clock.now, 3),
        "events_fired": clock.n_fired,
        "peak_heap": clock.peak_heap,
        "n_failures": result.n_failures,
    }


def _measure_campaign(
    scenario,
    spec: CampaignSpec,
    *,
    fast: bool,
    profile: bool,
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

    def drive():
        arbiter.prepare(in_process_runner)
        for request in requests:
            arbiter.submit(request)
        return arbiter.run(in_process_runner)

    records, wall = _timed(drive, profile=profile, name=scenario.name)
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
        "peak_heap": max(peaks),
        "n_failures": sum(o.n_failures for o in outcomes)
        + sum(r.relaunches for r in records),
    }


def run_suite(
    names: List[str],
    *,
    fast: bool = False,
    profile: bool = False,
    repeats: Optional[int] = None,
) -> Dict[str, object]:
    """Run scenarios and return the result document, printing a
    one-line summary after each."""
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
    for name in names:
        record = run_scenario(name, fast=fast, profile=profile, repeats=repeats)
        doc[name] = record
        print(
            f"{name:<20} wall {record['wall_s']:>8.3f} s   "
            f"{record['events_fired']:>7} events   "
            f"{record['events_per_s']:>9.1f} ev/s   "
            f"peak heap {record['peak_heap']}"
        )
    return doc


def export_traces(names: List[str], *, fast: bool, trace_dir: str) -> None:
    """Re-run scenarios with observability ON and write trace artifacts.

    The timed measurements above run under a null registry, so they have
    no manifest to export; this does one *separate* instrumented run per
    scenario (not comparable to the timed numbers) and writes
    ``<name>.manifest.jsonl`` plus a Perfetto-loadable
    ``<name>.trace.json`` into ``trace_dir``.
    """
    from repro.obs.export import chrome_trace

    out = Path(trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in names:
        config = SCENARIOS[name].build(fast)
        if isinstance(config, CampaignSpec):
            # A campaign has no single manifest; write the per-session
            # manifest tree plus the aggregated report instead.  The
            # --compare attribution path degrades gracefully when its
            # <name>.manifest.jsonl is absent.
            from repro.campaign.service import run_campaign

            sessions = out / f"{name}.sessions"
            report = run_campaign(config, manifest_dir=sessions)
            report_path = out / f"{name}.report.json"
            report_path.write_text(
                json.dumps(report.to_dict(), indent=2, sort_keys=True)
                + "\n"
            )
            print(f"{name:<20} campaign report -> {report_path}")
            continue
        result = RepEx(config).run()
        manifest = result.manifest
        manifest_path = out / f"{name}.manifest.jsonl"
        manifest.dump(manifest_path)
        trace_path = out / f"{name}.trace.json"
        trace_path.write_text(
            json.dumps(chrome_trace(manifest), indent=2, sort_keys=True) + "\n"
        )
        print(f"{name:<20} traces -> {manifest_path} {trace_path}")


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
    written by ``--trace-dir``; when given, every regressed scenario's
    report is followed by the ``repro obs diff --only-changed`` report of
    the two ``<scenario>.manifest.jsonl`` files, so the failure output
    says *where* the time went, not just that it did.
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
            lines.append(_attribution(name, attribute_dirs))
    for name in new_scenarios:
        if name not in old_scenarios:
            lines.append(f"{name:<20} only in new results (skipped)")
    return lines, regressions


def _attribution(name: str, attribute_dirs: Tuple[str, str]) -> str:
    """The manifest diff of one regressed scenario's old and new runs;
    a missing manifest degrades to a hint rather than failing the
    compare."""
    from repro.obs.diff import diff_manifests, render_diff
    from repro.obs.manifest import ManifestError, RunManifest

    manifests = []
    for trace_dir in attribute_dirs:
        path = Path(trace_dir) / f"{name}.manifest.jsonl"
        try:
            manifests.append(RunManifest.load(path, recover=True))
        except (OSError, ManifestError) as exc:
            return f"    attribution unavailable: {exc}"
    return render_diff(diff_manifests(*manifests), only_changed=True)


def build_parser() -> argparse.ArgumentParser:
    """The script's argument parser."""
    parser = argparse.ArgumentParser(
        prog="perfbench.py",
        description="run the perf scenarios or compare two result files",
    )
    parser.add_argument(
        "-o", "--output", default="BENCH_scale.json",
        help="result file to write (default: BENCH_scale.json)",
    )
    parser.add_argument(
        "--fast", action="store_true",
        help="run the trimmed CI-smoke variants (not comparable to full runs)",
    )
    parser.add_argument(
        "--scenario", action="append", metavar="NAME",
        help="run only this scenario (repeatable; default: all)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print hotspots (results not saved)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None, metavar="N",
        help="run each scenario N times and report the median wallclock "
             "with min/max spread (default: 3 fast, 1 full)",
    )
    parser.add_argument(
        "--compare", nargs=2, metavar=("OLD", "NEW"),
        help="diff two result files on events/s instead of running",
    )
    parser.add_argument(
        "--attribute", nargs=2, metavar=("OLD_DIR", "NEW_DIR"),
        help="with --compare: trace directories (from --trace-dir) whose "
             "<scenario>.manifest.jsonl files attribute each regression "
             "to phase/critical-path shifts",
    )
    parser.add_argument(
        "--threshold", type=float, default=DEFAULT_THRESHOLD, metavar="FRAC",
        help="allowed events/s regression for --compare (default: 0.25)",
    )
    parser.add_argument(
        "--trace-dir", metavar="DIR",
        help="after the timed suite, write per-scenario manifest + Chrome "
             "trace artifacts into this directory (separate instrumented "
             "runs; not comparable to the timed numbers)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        parser.error(f"--repeats must be >= 1, got {args.repeats}")
    if args.compare:
        try:
            old, new = (load_results(path) for path in args.compare)
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        lines, regressions = compare_results(
            old,
            new,
            threshold=args.threshold,
            attribute_dirs=tuple(args.attribute) if args.attribute else None,
        )
        for line in lines:
            print(line)
        if regressions:
            print(
                f"{regressions} scenario(s) regressed more than "
                f"{args.threshold:.0%} in events/s",
                file=sys.stderr,
            )
            return 1
        return 0

    names = args.scenario or scenario_names()
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        print(
            f"error: unknown scenario(s) {unknown}; known: {scenario_names()}",
            file=sys.stderr,
        )
        return 2
    doc = run_suite(
        names, fast=args.fast, profile=args.profile, repeats=args.repeats
    )
    if args.profile:
        print("profiled run: wallclock includes profiler overhead, not saved")
        return 0
    write_results(doc, args.output)
    print(f"results written to {args.output}")
    if args.trace_dir:
        export_traces(names, fast=args.fast, trace_dir=args.trace_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
