"""End-to-end benchmark of the RepEx reproduction, with a per-layer ledger.

Run every workload and write ``<out>/results.json``::

    python3 benchmarks/e2e/run.py --seed 2016 --out bench-out/

Run one workload for a fixed measuring time and print one JSON result
line (end-to-end metrics with ``--trace 0``, the per-layer ledger with
``--trace 1``)::

    python3 benchmarks/e2e/run.py --workload tremd-sync-512 --seed 7 \\
        --seconds 18 --trace 0

Compare two sets of ``results.json`` files (comma-separated)::

    python3 benchmarks/e2e/run.py --compare old/results.json new/results.json

Every measured run is a fresh child interpreter (``--worker``), one at a
time and single-threaded: a discarded set-up-only warm-up child, set-up-
only children for ``setup_s``, timed children, then one traced child that
wraps each layer's public callables (``layertrace.py``).  End-to-end
metrics come from the untraced children only.  The program is imported
from ``src/`` next to this directory.
"""

import time

T_FIRST = time.perf_counter()  # setup_s counts from this line

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

#: set-up-only children per workload, on top of the timed children's own
#: set-up samples (the warm-up child is extra and discarded)
SETUP_CHILDREN = 5
#: timed children per workload at least (and exactly, without --seconds)
MIN_REPEATS = 3
#: a child that runs longer than this is killed and the benchmark fails
CHILD_TIMEOUT_S = 150

#: end-to-end metric -> unit (bounds and directions live in BENCHMARK.json)
E2E_UNITS = {
    "setup_s": "s",
    "us_per_unit": "us",
    "peak_rss_mb": "MiB",
    "output_mb": "MiB",
    "ok_frac": "frac",
    "session_ms_p50": "ms",
}


class BenchError(RuntimeError):
    """A child failed or the benchmark cannot run here."""


def percentile(values: List[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


# -- child side --------------------------------------------------------------


def worker(args) -> int:
    sys.path.insert(0, str(SRC))
    from workloads import run_workload

    tracer = None
    if args.mode == "traced":
        from layertrace import LayerTracer

        tracer = LayerTracer().install()
    scratch = args.out / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.worker}-", dir=scratch))
    try:
        out = run_workload(
            args.worker, args.seed, args.scale, workdir, args.mode, T_FIRST,
            tracer,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if tracer is not None:
        out["ledger"] = tracer.ledger(out["region_s"])
        tracer.dump(args.out / f"{args.worker}.spans.jsonl.gz")
    print(json.dumps(out))
    return 0


# -- parent side -------------------------------------------------------------


def spawn(name: str, mode: str, args) -> Dict:
    """Run one child interpreter to completion and return its report."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--worker", name,
        "--mode", mode, "--seed", str(args.seed), "--scale", args.scale,
        "--out", str(args.out),
    ]
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, capture_output=True, text=True, env=env, cwd=str(ROOT),
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: {mode} run exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-15:])
        raise BenchError(
            f"{name}: {mode} run exited {proc.returncode}\n{tail}"
        )
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{name}: {mode} run printed no result line")
    report["child_s"] = time.perf_counter() - start
    return report


def measure(name: str, args, setup_children: int, repeats: int,
            seconds: float, trace: bool) -> Dict:
    """Every child run of one workload, summarised and verified.

    Runs ``setup_children`` set-up-only children, then timed children:
    at least ``repeats``, and more while the next one is predicted to end
    within ``seconds`` of the first; then one traced child if ``trace``.
    """
    spawn(name, "setup", args)  # warm-up: bytecode, page cache; discarded
    setups = [spawn(name, "setup", args)["setup_s"]
              for _ in range(setup_children)]
    timed: List[Dict] = []
    start = time.perf_counter()
    while len(timed) < repeats or (
        time.perf_counter() - start
        + statistics.median(t["child_s"] for t in timed) <= seconds
    ):
        timed.append(spawn(name, "timed", args))
    traced = spawn(name, "traced", args) if trace else None

    setups += [t["setup_s"] for t in timed]
    sessions_ms = sorted(s * 1e3 for t in timed for s in t["session_s"])
    samples = {
        "setup_s": setups,
        "us_per_unit": [t["wall_s"] / t["units"] * 1e6 for t in timed],
        "peak_rss_mb": [t["peak_rss_mb"] for t in timed],
        "output_mb": [t["output_bytes"] / 2**20 for t in timed],
        "ok_frac": [1.0 - t["failed_attempts"] / t["attempts"] for t in timed],
        "session_ms_p50": [
            statistics.median(t["session_s"]) * 1e3 for t in timed
        ],
    }
    metrics = {
        key: {
            "value": statistics.median(values),
            "unit": E2E_UNITS[key],
            "n": len(values),
            "samples": values,
        }
        for key, values in samples.items()
    }
    # the session median pools every session of every timed run
    metrics["session_ms_p50"]["value"] = statistics.median(sessions_ms)
    metrics["session_ms_p50"]["n"] = len(sessions_ms)

    runs = timed + ([traced] if traced else [])
    problems = [p for run in runs for p in run["problems"]]
    digests = {run["digest"] for run in runs}
    if len(digests) > 1:
        problems.append(
            "outputs differ between runs"
            + (" (traced vs untraced)" if traced else "")
        )
    expected = json.loads((HERE / "expected.json").read_text())
    expected = expected.get(args.scale, {}).get(str(args.seed), {})
    if name in expected and timed[0]["digest"] != expected[name]:
        problems.append(
            f"output digest {timed[0]['digest'][:12]} != expected "
            f"{expected[name][:12]} at seed {args.seed}"
        )

    summary = {
        "metrics": metrics,
        "wall_s": [t["wall_s"] for t in timed],
        "sessions": len(sessions_ms),
        # p99 only where at least ten sessions lie beyond it
        "session_ms_p99": (
            percentile(sessions_ms, 99) if len(sessions_ms) >= 1000 else None
        ),
        "units": timed[0]["units"],
        "digest": timed[0]["digest"],
        "runs": len(runs),
        "failed_runs": sum(1 for run in runs if run["problems"])
        + (1 if len(digests) > 1 else 0),
        "problems": problems,
    }
    if traced is not None:
        ledger = dict(traced["ledger"])
        ledger["trace.overhead_frac"] = (
            traced["region_s"]
            / statistics.median(t["region_s"] for t in timed)
            - 1.0
        )
        summary["ledger"] = ledger
        summary["traced_digest"] = traced["digest"]
        summary["traced_wall_s"] = traced["region_s"]
    return summary


def print_metrics(name: str, summary: Dict) -> None:
    for key, m in summary["metrics"].items():
        print(f"{name:<18} {key:<15} {m['value']:>12.4f} {m['unit']:<5} "
              f"(median, n={m['n']})")
    walls = ", ".join(f"{w:.2f}" for w in summary["wall_s"])
    print(f"{name:<18} {'wall_s':<15} {walls} (information only)")
    if summary["session_ms_p99"] is not None:
        print(f"{name:<18} {'session_ms_p99':<15} "
              f"{summary['session_ms_p99']:>12.4f} ms    "
              f"(n={summary['sessions']}, information only)")


def print_ledger(name: str, ledger: Dict) -> None:
    layers = sorted(
        (k[: -len(".self_s")] for k in ledger if k.endswith(".self_s")),
        key=lambda layer: -ledger[f"{layer}.self_s"],
    )
    print(f"{name}: per-layer self time (traced run)")
    for layer in layers:
        print(f"  {layer:<22} {ledger[layer + '.self_s']:9.4f} s "
              f"{int(ledger[layer + '.calls']):>9} calls")
    for key in sorted(ledger):
        if not key.endswith((".self_s", ".calls")):
            print(f"  {key:<32} {ledger[key]:.6g}")


def run_one(args) -> int:
    """One workload, one JSON result line (the form BENCHMARK.json runs)."""
    from layertrace import metric_units

    if args.trace:
        # the ledger plus one untraced run for its overhead and digest
        summary = measure(args.workload, args, 0, 1, 0.0, trace=True)
    else:
        summary = measure(args.workload, args, SETUP_CHILDREN, MIN_REPEATS,
                          args.seconds, trace=False)
    print_metrics(args.workload, summary)
    if args.trace:
        print_ledger(args.workload, summary["ledger"])
        units = metric_units()
        metrics = {
            key: {"value": value, "unit": units[key]}
            for key, value in summary["ledger"].items()
        }
    else:
        metrics = {
            key: {"value": m["value"], "unit": m["unit"]}
            for key, m in summary["metrics"].items()
        }
    for problem in summary["problems"]:
        print(f"{args.workload}: FAILED CHECK: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not summary["problems"],
        "attempted": summary["runs"],
        "failed": summary["failed_runs"],
        "metrics": metrics,
    }))
    return 0 if not summary["problems"] else 1


def run_all(args) -> int:
    from workloads import WORKLOADS

    results = {"seed": args.seed, "scale": args.scale, "workloads": {}}
    failed = []
    for name in WORKLOADS:
        summary = measure(name, args, SETUP_CHILDREN, MIN_REPEATS,
                          args.seconds, trace=True)
        results["workloads"][name] = summary
        print_metrics(name, summary)
        print_ledger(name, summary["ledger"])
        for problem in summary["problems"]:
            print(f"{name}: FAILED CHECK: {problem}", file=sys.stderr)
        if summary["problems"]:
            failed.append(name)
    path = args.out / "results.json"
    path.write_text(json.dumps(results, indent=2, sort_keys=True))
    print(f"results written to {path}")
    if failed:
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# -- comparison --------------------------------------------------------------


def _side(paths: str) -> List[Dict]:
    return [json.loads(Path(p).read_text()) for p in paths.split(",")]


def _values(side: List[Dict], workload: str, metric: str) -> List[float]:
    """Per-file medians, or one file's per-run samples."""
    entries = [r["workloads"][workload]["metrics"][metric] for r in side
               if workload in r["workloads"]]
    if len(entries) == 1:
        return entries[0]["samples"]
    return [e["value"] for e in entries]


def verdict(old: List[float], new: List[float], bound: float,
            lower_is_better: bool) -> str:
    """improved / regressed / unresolved / unchanged against ``bound``."""
    sign = 1.0 if lower_is_better else -1.0
    old_med, new_med = statistics.median(old), statistics.median(new)
    worse = sign * (new_med - old_med) / abs(old_med) if old_med else 0.0

    def spread(values):
        if len(values) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        return (q3 - q1) / abs(med) if med else 0.0

    if max(spread(old), spread(new)) > bound:
        if all(sign * n < sign * o for n in new for o in old):
            return "improved"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def compare(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    old, new = _side(args.compare[0]), _side(args.compare[1])
    workloads = [w["name"] for w in spec["workloads"]]

    def quartiles(values):
        if len(values) < 2:
            return values[0], values[0], values[0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        return q1, statistics.median(values), q3

    regressed = []
    print(f"{'workload':<18} {'metric':<15} {'old q1/med/q3':>32} "
          f"{'new q1/med/q3':>32}  verdict")
    for workload in workloads:
        for m in spec["end_to_end"]:
            a = _values(old, workload, m["name"])
            b = _values(new, workload, m["name"])
            v = verdict(a, b, m["bound"], m["better"] == "lower")
            if v == "regressed":
                regressed.append((workload, m["name"]))
            qa = "/".join(f"{x:.4g}" for x in quartiles(a))
            qb = "/".join(f"{x:.4g}" for x in quartiles(b))
            print(f"{workload:<18} {m['name']:<15} {qa:>32} {qb:>32}  {v}")
    print()
    for workload in workloads:
        layers_old = [r["workloads"][workload]["ledger"] for r in old]
        layers_new = [r["workloads"][workload]["ledger"] for r in new]
        rows = []
        for key in layers_old[0]:
            if not key.endswith(".self_s"):
                continue
            a = statistics.median(led[key] for led in layers_old)
            b = statistics.median(led[key] for led in layers_new)
            rows.append((b - a, key[: -len(".self_s")], a, b))
        rows.sort(key=lambda row: -abs(row[0]))
        print(f"{workload}: per-layer self_s delta (new - old)")
        for delta, layer, a, b in rows:
            print(f"  {layer:<22} {a:9.4f} -> {b:9.4f} s  {delta:+.4f} s")
    if regressed:
        names = ", ".join(f"{w}/{m}" for w, m in regressed)
        print(f"regressed: {names}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every workload ~16x for tests")
    parser.add_argument("--out", type=Path, default=ROOT / "bench-out")
    parser.add_argument("--workload",
                        help="measure only this workload, print one result line")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="keep starting timed runs while they fit in "
                             "this many seconds (at least 3 runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports the per-layer ledger")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="comma-separated results.json files per side")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker:
        return worker(args)
    if args.compare:
        return compare(args)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources at {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    try:
        return run_one(args) if args.workload else run_all(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(args.out / "tmp", ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
