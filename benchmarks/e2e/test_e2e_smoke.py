"""Smoke test of the end-to-end benchmark.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.  The
benchmark itself runs at ``--scale smoke`` in child interpreters.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

from layertrace import LayerTracer, metric_units
from run import E2E_UNITS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def test_smoke_run_prints_every_metric_and_traced_run_matches(tmp_path):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "smoke",
         "--seed", "2016", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 60, f"smoke run took {elapsed:.1f} s"

    results = json.loads((tmp_path / "results.json").read_text())
    layer_metrics = {m["name"] for m in SPEC["per_layer"]}
    for workload in SPEC["workloads"]:
        name = workload["name"]
        for metric in SPEC["end_to_end"]:
            line = rf"^{re.escape(name)}\s+{metric['name']}\s+\S+\s+{metric['unit']}\s"
            assert re.search(line, proc.stdout, re.M), (name, metric["name"])
        summary = results["workloads"][name]
        assert summary["problems"] == []
        assert summary["digest"] == summary["traced_digest"]
        assert layer_metrics == set(summary["ledger"])
        assert summary["ledger"]["trace.unattributed_frac"] < 0.1
        assert (tmp_path / f"{name}.spans.jsonl.gz").is_file()


def test_benchmark_json_names_what_the_benchmark_reports():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == metric_units()


def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parents[1] / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "campaign-1k", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_child_spans():
    ticks = iter(range(100))
    tracer = LayerTracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("md.kernel", "inner", lambda: None)
    outer = tracer.wrap("core.amm", "outer", lambda: inner())
    outer()  # outer 0..3, inner 1..2
    ledger = tracer.ledger(traced_wall_s=4.0)
    assert ledger["core.amm.self_s"] == 2.0
    assert ledger["md.kernel.self_s"] == 1.0
    assert ledger["trace.unattributed_frac"] == 0.25
    assert [s[4] for s in tracer.spans] == [-1, 0]
