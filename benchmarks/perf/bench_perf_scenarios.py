"""CI smoke for the perf harness (``perfbench.py``).

Runs every canonical scenario in its ``fast`` variant and checks the
*deterministic* counters — events fired, heap high-water mark, virtual
time, failure count — against the committed baseline
``BENCH_baseline_fast.json``.  Those must match exactly on any machine:
they are a fingerprint of the scheduling/exchange semantics, the same
invariant the golden-trace fixtures protect.  Wallclock and events/s are
machine-dependent, so they are *not* asserted here; the CI ``perf-smoke``
job gates them separately with ``perfbench.py --compare`` at a 50%
threshold (the script's default is 25%).

Refresh the baseline after an intentional semantic change with:

    PYTHONPATH=src python benchmarks/perf/perfbench.py --fast \
        -o benchmarks/perf/BENCH_baseline_fast.json
"""

from __future__ import annotations

from pathlib import Path

import pytest

from perf_scenarios import SCENARIOS, scenario_names
from perfbench import DETERMINISTIC_FIELDS, load_results, run_scenario

BASELINE_PATH = Path(__file__).parent / "BENCH_baseline_fast.json"


@pytest.fixture(scope="module")
def baseline():
    return load_results(str(BASELINE_PATH))


def test_baseline_covers_all_scenarios(baseline):
    recorded = {k for k in baseline if not k.startswith("_")}
    assert recorded == set(SCENARIOS)
    assert baseline["_meta"]["fast"] is True


@pytest.mark.parametrize("name", scenario_names())
def test_fast_scenario_matches_baseline(name, baseline):
    record = run_scenario(name, fast=True)
    expected = baseline[name]
    for field in DETERMINISTIC_FIELDS:
        assert record[field] == expected[field], (
            f"{name}.{field}: {record[field]!r} != baseline "
            f"{expected[field]!r} — scheduling/exchange semantics changed; "
            "if intentional, refresh BENCH_baseline_fast.json and the "
            "golden traces together"
        )
