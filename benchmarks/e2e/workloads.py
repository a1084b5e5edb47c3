"""The four end-to-end workloads: inputs, one measured run, its checks.

Every workload goes through the public API the way ``repro run -m`` or
``repro campaign --out`` would: the generated input is parsed from a
plain dict, observability is on (a fresh ``MetricsRegistry`` per run),
the MD numerics really integrate, and the run writes its manifest,
checkpoints and report.  The benchmark generates every seed from its own
``--seed``; the program only sees the resulting config.

All four are closed batch jobs: one caller submits the run and waits for
its result.  In the campaign every session is submitted at t=0 to the
arbiter's admission queue.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import time
from pathlib import Path
from typing import Callable, Dict, List

clock = time.perf_counter


def derived_seed(seed: int, label: str) -> int:
    """A config seed drawn from the benchmark seed (stable across runs)."""
    return random.Random(f"{seed}/{label}").randrange(1, 2**31)


def _tremd(seed: int, scale: str) -> Dict:
    n, cycles = (512, 32) if scale == "full" else (64, 10)
    return {
        "config": {
            "title": "tremd-sync",
            "engine": {"name": "amber", "system": "ala2"},
            "resource": {"name": "supermic", "cores": n},
            "dimensions": [
                {"kind": "temperature", "n_windows": n,
                 "min_value": 273.0, "max_value": 373.0},
            ],
            "execution_mode": "I",
            "n_cycles": cycles,
            "numeric_steps": 100,
            "seed": derived_seed(seed, "tremd"),
        },
    }


def _tsu(seed: int, scale: str) -> Dict:
    t, s, u, cores, cycles, every = (
        (4, 4, 8, 32, 20, 5) if scale == "full" else (2, 2, 4, 4, 8, 3)
    )
    return {
        "config": {
            "title": "tsu-mode2",
            "engine": {"name": "amber", "system": "ala2"},
            "resource": {"name": "stampede", "cores": cores},
            "dimensions": [
                {"kind": "temperature", "n_windows": t,
                 "min_value": 300.0, "max_value": 340.0},
                {"kind": "salt", "n_windows": s,
                 "min_value": 0.0, "max_value": 1.0},
                {"kind": "umbrella", "n_windows": u,
                 "min_value": 0.0, "max_value": 360.0,
                 "angle": "phi", "force_constant": 0.0005},
            ],
            "execution_mode": "II",
            "n_cycles": cycles,
            "numeric_steps": 30,
            "seed": derived_seed(seed, "tsu"),
        },
        "checkpoint_every": every,
    }


def _async(seed: int, scale: str) -> Dict:
    n, cycles = (512, 20) if scale == "full" else (64, 6)
    return {
        "config": {
            "title": "async-namd",
            "engine": {"name": "namd", "system": "ala2"},
            "resource": {"name": "supermic", "cores": n},
            "pattern": {"kind": "asynchronous", "window_seconds": 90.0},
            "dimensions": [
                {"kind": "temperature", "n_windows": n,
                 "min_value": 273.0, "max_value": 373.0},
            ],
            "n_cycles": cycles,
            "numeric_steps": 1,
            "failure": {"probability": 0.05, "policy": "relaunch",
                        "max_relaunches": 3},
            "seed": derived_seed(seed, "async"),
        },
    }


def _campaign(seed: int, scale: str) -> Dict:
    # The campaign-256 scenario's shape (4 tenants x {sync, async} x
    # {2, 3 windows}, 8x8-core datacenter, crashes at 20 s and 75 s),
    # repeated until it holds 1024 sessions.
    repeat = 64 if scale == "full" else 4
    tenants = []
    for i in range(4):
        tenants.append(
            {
                "name": f"group{i}",
                "weight": 1.0 + (i % 2),
                "priority": i % 2,
                "quota_cores": 16,
                "base": {
                    "title": f"campaign-{i}",
                    "dimensions": [
                        {"kind": "temperature", "n_windows": 2,
                         "min_value": 300.0,
                         "max_value": 330.0 + 10.0 * i},
                    ],
                    "resource": {"name": "small-cluster", "cores": 4},
                    "n_cycles": 1,
                    "steps_per_cycle": 500,
                    "numeric_steps": 1,
                    "sample_stride": 0,
                    "seed": derived_seed(seed, f"campaign/group{i}"),
                },
                "grid": {
                    "pattern.kind": ["synchronous", "asynchronous"],
                    "dimensions.0.n_windows": [2, 3],
                },
                "repeat": repeat,
            }
        )
    return {
        "spec": {
            "title": "campaign",
            "seed": derived_seed(seed, "campaign"),
            "datacenter": {"nodes": 8, "cores_per_node": 8, "repair_s": 60.0},
            "faults": {"node_crashes": [[20.0, 0], [75.0, 3]]},
            "tenants": tenants,
            "relaunch_limit": 2,
        },
    }


#: workload name -> ``(seed, scale) -> input``; why each workload is in
#: the benchmark is recorded in BENCHMARK.json and README.md
WORKLOADS: Dict[str, Callable[[int, str], Dict]] = {
    "tremd-sync-512": _tremd,
    "tsu-mode2-ckpt": _tsu,
    "async-namd-faults": _async,
    "campaign-1k": _campaign,
}


# -- one measured run (executed inside a fresh child interpreter) ---------


def _tree_bytes(root: Path) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_summary(result) -> Dict:
    """The run report ``repro run -o`` writes."""
    return {
        "title": result.title,
        "type": result.type_string,
        "pattern": result.pattern,
        "execution_mode": result.execution_mode,
        "n_replicas": result.n_replicas,
        "average_cycle_time": result.average_cycle_time(),
        "utilization": result.utilization(),
        "acceptance": {k: v.ratio for k, v in result.exchange_stats.items()},
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


def _check_manifest(path: Path, problems: List[str]) -> None:
    from repro.obs.manifest import ManifestError, RunManifest

    try:
        manifest = RunManifest.load(path)
    except (OSError, ManifestError, ValueError) as exc:
        problems.append(f"manifest {path.name} does not reload: {exc}")
        return
    counters = (manifest.metrics or {}).get("counters") or {}
    attempted = counters.get("exchange.attempted", 0.0)
    accepted = counters.get("exchange.accepted", 0.0)
    if attempted and not 0.0 <= accepted / attempted <= 1.0:
        problems.append(f"manifest {path.name}: acceptance outside [0, 1]")


def run_single(inputs: Dict, workdir: Path, mode: str,
               t_first: float) -> Dict:
    """Set up (and unless ``mode == "setup"`` run) one simulation."""
    from repro import RepEx, SimulationConfig
    from repro.obs.metrics import MetricsRegistry

    t_ready = clock()
    config = SimulationConfig.from_dict(inputs["config"])
    every = inputs.get("checkpoint_every", 0)
    kwargs = {}
    if every:
        kwargs = {"checkpoint_every": every,
                  "checkpoint_dir": workdir / "checkpoints"}
    repex = RepEx(config, registry=MetricsRegistry(), **kwargs)
    t_built = clock()
    out = {"setup_s": t_built - t_first}
    if mode == "setup":
        return out

    result = repex.run()
    manifest_path = workdir / "run.jsonl"
    result.manifest.dump(manifest_path)
    (workdir / "summary.json").write_text(
        json.dumps(_run_summary(result), indent=2)
    )
    t_end = clock()

    units = sum(
        1 for rep in result.replicas for h in rep.history if not h.failed
    )
    out.update(
        wall_s=t_end - t_built,
        region_s=t_end - t_ready,
        # a single-run workload is one session: config in, report out
        session_s=[t_end - t_ready],
        units=units,
        attempts=units + result.n_failures,
        failed_attempts=result.n_failures,
        peak_rss_mb=_peak_rss_mb(),
        output_bytes=_tree_bytes(workdir),
    )

    problems: List[str] = []
    out["digest"] = hashlib.sha256(
        result.fingerprint().encode()
    ).hexdigest()
    for name, stats in result.exchange_stats.items():
        if not 0.0 <= stats.ratio <= 1.0:
            problems.append(f"acceptance[{name}] = {stats.ratio} outside [0, 1]")
    _check_manifest(manifest_path, problems)
    if every:
        from repro.core.checkpoint import Checkpoint, CheckpointError

        # the last checkpoint is taken at the last multiple of the
        # cadence before the final cycle
        expected = every * ((config.n_cycles - 1) // every)
        numbered = sorted((workdir / "checkpoints").glob("cycle_*.json"))
        for path in numbered[-1:] + [workdir / "checkpoints" / "latest.json"]:
            try:
                ckpt = Checkpoint.load(path)
            except (OSError, CheckpointError) as exc:
                problems.append(f"checkpoint {path.name} does not reload: {exc}")
                continue
            if ckpt.next_cycle != expected:
                problems.append(
                    f"checkpoint {path.name}: next_cycle {ckpt.next_cycle} "
                    f"!= {expected}"
                )
        if not numbered:
            problems.append("no checkpoint written")
    out["problems"] = problems
    return out


def run_campaign_workload(inputs: Dict, workdir: Path, mode: str,
                          t_first: float, tracer=None) -> Dict:
    """Set up (and unless ``mode == "setup"`` run) the campaign."""
    from repro.campaign.arbiter import SessionState
    from repro.campaign.runner import repex_runner
    from repro.campaign.service import expand_requests, run_campaign
    from repro.campaign.spec import CampaignSpec

    t_ready = clock()
    spec = CampaignSpec.from_dict(inputs["spec"])
    requests = expand_requests(spec)
    t_built = clock()
    out = {"setup_s": t_built - t_first}
    if mode == "setup":
        return out

    inner = repex_runner(workdir)
    latencies: List[float] = []

    def timed_runner(request):
        start = clock()
        outcome = inner(request)
        latencies.append(clock() - start)
        return outcome

    runner = timed_runner
    if tracer is not None:
        from layertrace import RUNNER_LAYER

        runner = tracer.wrap(RUNNER_LAYER, "timed_runner", timed_runner)
    report = run_campaign(spec, runner=runner, manifest_dir=workdir)
    report_text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    (workdir / "report.json").write_text(report_text)
    t_end = clock()

    done = [r for r in report.records if r.state is SessionState.DONE]
    units = 0
    for record in done:
        config = record.request.payload
        windows = 1
        for dim in config["dimensions"]:
            windows *= dim["n_windows"]
        units += windows * config["n_cycles"]
    attempts = sum(len(r.attempts) for r in report.records)
    out.update(
        wall_s=t_end - t_built,
        region_s=t_end - t_ready,
        session_s=latencies,
        units=units,
        attempts=attempts,
        failed_attempts=attempts - len(done),
        peak_rss_mb=_peak_rss_mb(),
        output_bytes=_tree_bytes(workdir),
    )

    problems: List[str] = []
    out["digest"] = hashlib.sha256(report_text.encode()).hexdigest()
    if len(done) != len(requests):
        problems.append(
            f"{len(requests) - len(done)} of {len(requests)} sessions "
            "did not end DONE"
        )
    manifests = sorted(workdir.glob("*/*.jsonl"))
    if len(manifests) != len(done):
        problems.append(
            f"{len(manifests)} session manifests for {len(done)} DONE sessions"
        )
    for path in manifests:
        _check_manifest(path, problems)
    out["problems"] = problems
    return out


def run_workload(name: str, seed: int, scale: str, workdir: Path, mode: str,
                 t_first: float, tracer=None) -> Dict:
    """Build the inputs of ``name`` and run it once in this process."""
    inputs = WORKLOADS[name](seed, scale)
    if "spec" in inputs:
        return run_campaign_workload(inputs, workdir, mode, t_first, tracer)
    return run_single(inputs, workdir, mode, t_first)
