"""Command-line interface: configuration-file-driven simulations.

The paper's usability requirement is that an REMD run "must be fully
specified by configuration files"; this module makes that literal:

.. code-block:: console

    $ python -m repro run examples/configs/tremd.json --manifest run.jsonl
    $ python -m repro check examples/configs/tremd.json
    $ python -m repro campaign examples/configs/campaign.json --metrics-out metrics.txt
    $ python -m repro obs summary run.jsonl --format json
    $ python -m repro obs timeline run.jsonl
    $ python -m repro obs export run.jsonl --format chrome -o run.trace.json
    $ python -m repro obs critical-path run.jsonl
    $ python -m repro obs diff before.jsonl after.jsonl
    $ python -m repro obs validate run.trace.json
    $ python -m repro obs validate metrics.txt --format openmetrics
    $ python -m repro table1
    $ python -m repro engines

``run`` executes the simulation on the simulated runtime and prints the
Eq. 1 cycle decomposition, acceptance ratios and utilization; ``check``
validates a configuration without running it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.core import RepEx
from repro.core.capabilities import TABLE1_HEADERS, table1_rows
from repro.core.checkpoint import CheckpointError
from repro.core.config import ConfigError, SimulationConfig
from repro.md.engine import available_engines
from repro.obs.manifest import ManifestError, RunManifest
from repro.pilot.events import SimulatedCrash
from repro.utils.tables import render_table


def _load_config(path: str) -> SimulationConfig:
    text = Path(path).read_text()
    return SimulationConfig.from_json(text)


def cmd_run(args: argparse.Namespace) -> int:
    """Run a simulation from a JSON configuration file."""
    try:
        config = _load_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print(
        f"{config.title}: {config.n_replicas} replicas "
        f"({config.type_string}), {config.n_cycles} cycles, "
        f"pattern={config.pattern.kind}, mode={config.effective_mode}, "
        f"engine={config.engine.name}, resource={config.resource.name}/"
        f"{config.resource.cores} cores"
    )
    repex_kwargs = {}
    if args.checkpoint_every or args.checkpoint_every_s:
        repex_kwargs["checkpoint_dir"] = args.checkpoint_dir or "checkpoints"
    if args.checkpoint_every:
        repex_kwargs["checkpoint_every"] = args.checkpoint_every
    if args.checkpoint_every_s:
        repex_kwargs["checkpoint_every_s"] = args.checkpoint_every_s
    if args.checkpoint_keep:
        repex_kwargs["checkpoint_keep"] = args.checkpoint_keep
    if args.resume:
        repex_kwargs["resume_from"] = args.resume
    if args.stop_after_cycle is not None:
        repex_kwargs["stop_after_cycle"] = args.stop_after_cycle
    if args.stop_after_checkpoint is not None:
        repex_kwargs["stop_after_checkpoint"] = args.stop_after_checkpoint
    if args.crash_at_time is not None:
        repex_kwargs["crash_at_time"] = args.crash_at_time
    if args.manifest:
        repex_kwargs["manifest_path"] = args.manifest
    try:
        repex = RepEx(config, **repex_kwargs)
    except (CheckpointError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        result = repex.run()
    except SimulatedCrash as exc:
        ckpt_dir = repex.checkpoint_dir
        hint = (
            f"resume with --resume {ckpt_dir / 'latest.json'}"
            if ckpt_dir is not None
            and (ckpt_dir / "latest.json").exists()
            else "no checkpoint on disk — nothing to resume from"
        )
        print(f"crashed: {exc}; {hint}", file=sys.stderr)
        return 3
    if result.interrupted:
        flag = (
            "--stop-after-cycle"
            if args.stop_after_cycle is not None
            else "--stop-after-checkpoint"
        )
        if repex.checkpoints:
            print(
                f"stopped early at a checkpoint ({flag}); resume with --resume"
            )
        else:
            print(
                f"stopped early ({flag}); no checkpoint written — nothing "
                "to resume from"
            )
    if repex.checkpoints and repex.checkpoint_dir is not None:
        print(
            f"{len(repex.checkpoints)} checkpoint(s) written to "
            f"{repex.checkpoint_dir}"
        )

    # An asynchronous run's MD happens between its exchange sweeps, never
    # inside one, so a sweep has no T_MD: the run's MD core-seconds stand
    # in for it.
    is_async = result.pattern == "asynchronous"
    print()
    print(
        render_table(
            (["sweep", "dim"] if is_async else ["cycle", "dim", "T_MD"])
            + ["T_EX", "T_data", "T_RepEx", "T_RP", "Ts" if is_async else "Tc"],
            [
                [c.cycle, c.dimension or "-"]
                + ([] if is_async else [c.t_md])
                + [c.t_ex, c.t_data, c.t_repex, c.t_rp, c.span]
                for c in result.cycle_timings
            ],
            title=(
                "Exchange sweeps" if is_async else "Cycle decomposition"
            ) + " (virtual seconds)",
        )
    )
    print()
    if is_async:
        print(f"average sweep time : {result.average_cycle_time():10.1f} s")
        print(f"MD core-seconds    : {result.md_core_seconds:10.1f}")
    else:
        print(f"average cycle time : {result.average_cycle_time():10.1f} s")
    print(f"utilization        : {100 * result.utilization():10.1f} %")
    for name, stats in result.exchange_stats.items():
        print(
            f"acceptance[{name}]".ljust(19)
            + f": {stats.ratio:10.3f} ({stats.accepted}/{stats.attempted})"
        )
    if result.n_failures:
        print(
            f"failures           : {result.n_failures} "
            f"({result.n_relaunches} relaunched)"
        )

    if args.output:
        summary = {
            "title": result.title,
            "type": result.type_string,
            "pattern": result.pattern,
            "execution_mode": result.execution_mode,
            "n_replicas": result.n_replicas,
            "average_cycle_time": result.average_cycle_time(),
            "utilization": result.utilization(),
            "acceptance": {
                k: v.ratio for k, v in result.exchange_stats.items()
            },
            "n_failures": result.n_failures,
            "n_relaunches": result.n_relaunches,
            "cycles": [
                {
                    "cycle": c.cycle,
                    "dimension": c.dimension,
                    "t_md": c.t_md,
                    "t_ex": c.t_ex,
                    "t_data": c.t_data,
                    "t_repex": c.t_repex,
                    "t_rp": c.t_rp,
                    "span": c.span,
                }
                for c in result.cycle_timings
            ],
        }
        Path(args.output).write_text(json.dumps(summary, indent=2))
        print(f"\nsummary written to {args.output}")

    if args.manifest:
        # written while the run was in flight, by its ManifestStream
        print(f"manifest streamed to {args.manifest}")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Validate a configuration file without running it."""
    try:
        config = _load_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 2
    print(
        f"ok: {config.title} — {config.n_replicas} replicas "
        f"({config.type_string}), mode {config.effective_mode}, "
        f"{config.engine.name} on {config.resource.name}"
    )
    return 0


def _load_manifest(path: str) -> Optional[RunManifest]:
    """Load a manifest, recovering what a truncated stream left behind.

    A run that died mid-stream leaves a JSONL file cut inside a record;
    the analysis commands still work on whatever was recovered, with the
    dropped lines reported on stderr.  Only a manifest with no ``run``
    header at all (or an unreadable file) is a hard error.
    """
    try:
        manifest = RunManifest.load(path, recover=True)
    except (OSError, ManifestError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None
    for warning in manifest.recovered:
        print(f"warning: {path}: {warning}", file=sys.stderr)
    return manifest


def _strict_violation(args: argparse.Namespace, path: str,
                      manifest: RunManifest) -> bool:
    """True when ``--strict`` forbids using this (recovered) manifest.

    Pipelines that feed manifests into dashboards want truncation to be
    an error, not a warning; ``--strict`` turns any recovery into exit
    code 4 before a single degraded number is rendered.
    """
    if not getattr(args, "strict", False) or not manifest.recovered:
        return False
    print(
        f"error: {path}: manifest needed recovery "
        f"({len(manifest.recovered)} warning(s)) — refusing under --strict",
        file=sys.stderr,
    )
    return True


def cmd_obs_summary(args: argparse.Namespace) -> int:
    """Print a run manifest's phase decomposition and metrics.

    ``--format json`` emits one machine-readable object; recovery
    warnings go to stderr (in :func:`_load_manifest`), so piped JSON
    stays clean.
    """
    manifest = _load_manifest(args.manifest)
    if manifest is None:
        return 2
    if _strict_violation(args, args.manifest, manifest):
        return 4
    if getattr(args, "format", "text") == "json":
        print(
            json.dumps(manifest.to_summary_dict(), indent=2, sort_keys=True)
        )
    else:
        for line in manifest.summary_lines():
            print(line)
    return 0


def cmd_obs_timeline(args: argparse.Namespace) -> int:
    """Print a manifest's event-ordered unit timeline."""
    if args.limit < 0:
        print(f"error: -n/--limit must be >= 0, got {args.limit}",
              file=sys.stderr)
        return 2
    manifest = _load_manifest(args.manifest)
    if manifest is None:
        return 2
    if _strict_violation(args, args.manifest, manifest):
        return 4
    events = manifest.timeline
    if args.limit and len(events) > args.limit:
        shown, hidden = events[: args.limit], len(events) - args.limit
    else:
        shown, hidden = events, 0
    for t, unit, state in shown:
        print(f"{t:14.6f}  {state:<24} {unit}")
    if hidden:
        print(f"... {hidden} more events")
    return 0


def cmd_obs_export(args: argparse.Namespace) -> int:
    """Render a manifest as a Chrome trace or OpenMetrics text."""
    from repro.obs.export import chrome_trace, openmetrics

    manifest = _load_manifest(args.manifest)
    if manifest is None:
        return 2
    if _strict_violation(args, args.manifest, manifest):
        return 4
    if args.format == "chrome":
        text = (
            json.dumps(chrome_trace(manifest), indent=2, sort_keys=True) + "\n"
        )
    else:
        text = openmetrics(manifest)
    if args.output:
        Path(args.output).write_text(text)
        print(f"{args.format} export written to {args.output}")
    else:
        print(text, end="")
    return 0


def cmd_obs_critical_path(args: argparse.Namespace) -> int:
    """Print a manifest's per-cycle critical-path report."""
    from repro.obs.critical_path import render_report

    if args.segments < 0:
        print(f"error: --segments must be >= 0, got {args.segments}",
              file=sys.stderr)
        return 2
    manifest = _load_manifest(args.manifest)
    if manifest is None:
        return 2
    if _strict_violation(args, args.manifest, manifest):
        return 4
    print(render_report(manifest, max_segments=args.segments))
    return 0


def cmd_obs_diff(args: argparse.Namespace) -> int:
    """Compare two manifests (metrics, phases, critical path)."""
    from repro.obs.diff import diff_manifests, render_diff

    a = _load_manifest(args.a)
    b = _load_manifest(args.b)
    if a is None or b is None:
        return 2
    bad_a = _strict_violation(args, args.a, a)
    bad_b = _strict_violation(args, args.b, b)
    if bad_a or bad_b:
        return 4
    print(render_diff(diff_manifests(a, b), only_changed=args.only_changed))
    return 0


def cmd_obs_validate(args: argparse.Namespace) -> int:
    """Check an exported artifact against the schema CI requires.

    ``--format chrome`` (default) validates a Chrome trace JSON file;
    ``--format openmetrics`` validates an OpenMetrics text exposition
    (a ``--metrics-out`` file or an ``obs export --format openmetrics``
    file).
    """
    if args.format == "openmetrics":
        from repro.obs.export import validate_openmetrics

        try:
            n_samples = validate_openmetrics(Path(args.trace).read_text())
        except (OSError, ValueError) as exc:
            print(f"invalid: {args.trace}: {exc}", file=sys.stderr)
            return 2
        print(f"ok: {args.trace}: {n_samples} samples")
        return 0
    from repro.obs.export import validate_chrome_trace

    try:
        doc = json.loads(Path(args.trace).read_text())
        n_events = validate_chrome_trace(doc)
    except (OSError, ValueError) as exc:
        print(f"invalid: {args.trace}: {exc}", file=sys.stderr)
        return 2
    print(f"ok: {args.trace}: {n_events} events")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Run the fault-injection scenario matrix and report survival."""
    from repro.core.chaos import render_report, run_matrix

    outcomes = run_matrix(
        fast=args.fast, trace_dir=args.trace_dir, resume=not args.no_resume
    )
    print(render_report(outcomes))
    if args.trace_dir:
        print(f"trace artifacts written to {args.trace_dir}/")
    if args.output:
        Path(args.output).write_text(
            json.dumps([o.to_dict() for o in outcomes], indent=2)
        )
        print(f"\nreport written to {args.output}")
    return 0 if all(o.ok for o in outcomes) else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run a multi-tenant campaign from a JSON campaign spec.

    Exit codes: 0 all admitted sessions ran, 2 bad spec, 4 at least one
    session was rejected by admission control (the campaign itself still
    runs to completion).
    """
    from repro.campaign.service import expand_requests, run_campaign
    from repro.campaign.spec import CampaignError, CampaignSpec

    try:
        spec = CampaignSpec.from_json(Path(args.spec).read_text())
        requests = expand_requests(spec)
    except (OSError, CampaignError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    by_tenant: dict = {}
    for request in requests:
        by_tenant[request.tenant] = by_tenant.get(request.tenant, 0) + 1
    print(
        f"{spec.title}: {len(requests)} sessions across "
        f"{len(spec.tenants)} tenants on {spec.datacenter.nodes} nodes x "
        f"{spec.datacenter.cores_per_node} cores (seed {spec.seed})"
    )
    if args.dry_run:
        for request in requests:
            config = request.payload or {}
            print(
                f"  {request.uid:<24} {request.tenant:<12} "
                f"{request.cores:>5} cores  "
                f"pattern={((config.get('pattern') or {}).get('kind', 'synchronous'))}"
            )
        return 0

    try:
        report = run_campaign(spec, manifest_dir=args.out)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    rows = [
        [
            name,
            summary["sessions"],
            summary["states"].get("done", 0),
            summary["states"].get("rejected", 0),
            summary["states"].get("killed", 0)
            + summary["states"].get("failed", 0),
            summary["relaunches"],
            f"{summary['core_seconds']:.1f}",
        ]
        for name, summary in report.tenants.items()
    ]
    print()
    print(
        render_table(
            ["tenant", "sessions", "done", "rejected", "lost", "relaunches",
             "core-seconds"],
            rows,
            title="Per-tenant accounting",
        )
    )
    print()
    print(f"makespan           : {report.totals['makespan_s']:10.1f} s")
    print(f"utilization        : {100 * report.totals['utilization']:10.1f} %")
    if report.n_rejected:
        print(
            f"admission control rejected {report.n_rejected} session(s)",
            file=sys.stderr,
        )

    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(
            json.dumps(report.to_dict(), indent=2, sort_keys=True)
        )
        print(f"report + per-tenant manifests written to {out_dir}/")
    if args.metrics_out:
        Path(args.metrics_out).write_text(report.openmetrics())
        print(f"aggregated OpenMetrics written to {args.metrics_out}")
    return 4 if report.n_rejected else 0


def cmd_table1(args: argparse.Namespace) -> int:
    """Print the paper's Table 1 (package comparison)."""
    print(
        render_table(
            TABLE1_HEADERS,
            table1_rows(),
            title="Table 1: REMD package comparison",
            align_right=False,
        )
    )
    return 0


def cmd_engines(args: argparse.Namespace) -> int:
    """List registered MD engine adapters."""
    for name in available_engines():
        print(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RepEx reproduction: replica-exchange MD simulations",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "exit codes:\n"
            "  0  success\n"
            "  1  scenario failure: a chaos scenario did not survive\n"
            "  2  invalid configuration, unreadable or unwritable file,\n"
            "     or bad usage\n"
            "  3  simulated crash (run --crash-at-time); on-disk\n"
            "     checkpoints are the recovery points\n"
            "  4  degraded result: campaign admission control rejected\n"
            "     sessions, or obs --strict refused a recovered manifest\n"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a simulation from a JSON config")
    p_run.add_argument("config", help="path to the JSON configuration")
    p_run.add_argument(
        "-o", "--output", help="write a JSON summary to this path"
    )
    p_run.add_argument(
        "-m", "--manifest",
        help="stream the run manifest (JSONL) to this path while the run "
             "is in flight (a killed run leaves a partial one)",
    )
    p_run.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="snapshot the run every N cycles (synchronous pattern only)",
    )
    p_run.add_argument(
        "--checkpoint-every-s", type=float, default=0.0, metavar="SECONDS",
        help="quiesce and snapshot every N virtual seconds "
             "(asynchronous pattern only)",
    )
    p_run.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="directory for numbered snapshots + latest.json (default: "
             "./checkpoints when --checkpoint-every[-s] is set)",
    )
    p_run.add_argument(
        "--checkpoint-keep", type=int, default=0, metavar="N",
        help="retain only the newest N numbered snapshots "
             "(write-new-then-delete; 0 keeps all)",
    )
    p_run.add_argument(
        "--resume", metavar="CKPT",
        help="continue from a checkpoint file written by a previous run "
             "(pass the same checkpoint cadence flags to stay "
             "bit-identical to the uninterrupted run)",
    )
    p_run.add_argument(
        "--stop-after-cycle", type=int, default=None, metavar="N",
        help="stop cleanly after N completed cycles (synchronous; for "
             "later --resume)",
    )
    p_run.add_argument(
        "--stop-after-checkpoint", type=int, default=None, metavar="N",
        help="stop cleanly once N quiesce checkpoints exist "
             "(asynchronous; for later --resume)",
    )
    p_run.add_argument(
        "--crash-at-time", type=float, default=None, metavar="SECONDS",
        help="inject a hard kill at this virtual time (crash/resume "
             "testing; exits 3, leaving on-disk checkpoints as the "
             "recovery points)",
    )
    p_run.set_defaults(func=cmd_run)

    p_chaos = sub.add_parser(
        "chaos", help="run the fault-injection scenario matrix"
    )
    p_chaos.add_argument(
        "--fast", action="store_true",
        help="run the trimmed CI-smoke matrix",
    )
    p_chaos.add_argument(
        "-o", "--output", help="write the JSON report to this path"
    )
    p_chaos.add_argument(
        "--trace-dir", metavar="DIR",
        help="also write per-scenario manifest + Chrome trace artifacts "
             "into this directory (surviving scenarios only)",
    )
    p_chaos.add_argument(
        "--no-resume", action="store_true",
        help="skip the crash/resume verdict column (each surviving "
             "scenario is otherwise killed mid-run and restarted from "
             "its newest checkpoint)",
    )
    p_chaos.set_defaults(func=cmd_chaos)

    p_obs = sub.add_parser(
        "obs", help="inspect run manifests (metrics, spans, timelines)"
    )
    obs_sub = p_obs.add_subparsers(dest="obs_command", required=True)
    strict_parent = argparse.ArgumentParser(add_help=False)
    strict_parent.add_argument(
        "--strict", action="store_true",
        help="refuse manifests that needed truncation recovery "
             "(exit 4 instead of analyzing a degraded file)",
    )
    p_obs_summary = obs_sub.add_parser(
        "summary", parents=[strict_parent],
        help="print phase totals and metrics of a manifest",
    )
    p_obs_summary.add_argument("manifest", help="path to a manifest JSONL")
    p_obs_summary.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="text: human-readable lines (default); json: one "
             "machine-readable object (warnings stay on stderr)",
    )
    p_obs_summary.set_defaults(func=cmd_obs_summary)
    p_obs_timeline = obs_sub.add_parser(
        "timeline", parents=[strict_parent],
        help="print the event-ordered unit timeline",
    )
    p_obs_timeline.add_argument("manifest", help="path to a manifest JSONL")
    p_obs_timeline.add_argument(
        "-n", "--limit", type=int, default=40,
        help="max events to print (0 = all)",
    )
    p_obs_timeline.set_defaults(func=cmd_obs_timeline)
    p_obs_export = obs_sub.add_parser(
        "export", parents=[strict_parent],
        help="render a manifest as Chrome trace JSON or OpenMetrics text",
    )
    p_obs_export.add_argument("manifest", help="path to a manifest JSONL")
    p_obs_export.add_argument(
        "--format", choices=("chrome", "openmetrics"), default="chrome",
        help="chrome: Perfetto-loadable trace JSON (default); "
             "openmetrics: Prometheus-style metric exposition",
    )
    p_obs_export.add_argument(
        "-o", "--output", help="write to this path instead of stdout"
    )
    p_obs_export.set_defaults(func=cmd_obs_export)
    p_obs_cp = obs_sub.add_parser(
        "critical-path", parents=[strict_parent],
        help="per-cycle critical path and phase decomposition",
    )
    p_obs_cp.add_argument("manifest", help="path to a manifest JSONL")
    p_obs_cp.add_argument(
        "--segments", type=int, default=6, metavar="N",
        help="longest segments to list per cycle (default: 6)",
    )
    p_obs_cp.set_defaults(func=cmd_obs_critical_path)
    p_obs_diff = obs_sub.add_parser(
        "diff", parents=[strict_parent],
        help="compare two manifests (metrics, phases, critical path)",
    )
    p_obs_diff.add_argument("a", help="baseline manifest JSONL")
    p_obs_diff.add_argument("b", help="candidate manifest JSONL")
    p_obs_diff.add_argument(
        "--only-changed", action="store_true",
        help="suppress zero-delta rows",
    )
    p_obs_diff.set_defaults(func=cmd_obs_diff)
    p_obs_val = obs_sub.add_parser(
        "validate",
        help="check an exported trace or metrics file against the schema",
    )
    p_obs_val.add_argument(
        "trace",
        help="path to a Chrome trace JSON or OpenMetrics text file",
    )
    p_obs_val.add_argument(
        "--format", choices=("chrome", "openmetrics"), default="chrome",
        help="chrome: trace-event JSON (default); openmetrics: text "
             "exposition as written by --metrics-out or obs export",
    )
    p_obs_val.set_defaults(func=cmd_obs_validate)

    p_camp = sub.add_parser(
        "campaign",
        help="run a multi-tenant session campaign from a JSON spec",
    )
    p_camp.add_argument("spec", help="path to the JSON campaign spec")
    p_camp.add_argument(
        "--out", metavar="DIR",
        help="write report.json plus per-tenant manifest trees here",
    )
    p_camp.add_argument(
        "--metrics-out", metavar="FILE",
        help="write the aggregated OpenMetrics exposition to this path",
    )
    p_camp.add_argument(
        "--dry-run", action="store_true",
        help="print the expanded session grid without running anything",
    )
    p_camp.add_argument(
        "--json", action="store_true",
        help="print the full JSON report to stdout",
    )
    p_camp.set_defaults(func=cmd_campaign)

    p_check = sub.add_parser("check", help="validate a JSON config")
    p_check.add_argument("config", help="path to the JSON configuration")
    p_check.set_defaults(func=cmd_check)

    p_t1 = sub.add_parser("table1", help="print the package comparison table")
    p_t1.set_defaults(func=cmd_table1)

    p_eng = sub.add_parser("engines", help="list available MD engines")
    p_eng.set_defaults(func=cmd_engines)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # `repro obs timeline ... | head` closes stdout early; exit
        # quietly like any well-behaved filter instead of tracebacking
        # (the dup2 keeps the interpreter's shutdown flush from raising
        # a second time).
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except OSError as exc:
        # a file the command was pointed at could not be read or written
        # (a manifest, checkpoint, summary or report path)
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
