"""Chaos resilience — survival and cost of the fault-injection matrix.

Exercises the robustness claim ("in the presence of failures, the entire
simulation need not be stopped or restarted") quantitatively: every
scenario of the chaos matrix must behave as designed, and the table
reports what each fault pattern cost in cycles, relaunches and
utilization.  A second table isolates the overhead of recovery itself by
comparing a clean run against the same workload with one node crash under
each recovery policy.

``REPRO_FAST=1`` trims the matrix to the CI-smoke subset.
"""

from _harness import FAST, report
from repro.core import RepEx
from repro.core.chaos import render_report, run_matrix
from repro.core.config import (
    DimensionSpec,
    FailureSpec,
    PatternSpec,
    ResourceSpec,
    SimulationConfig,
)
from repro.utils.tables import render_table


def _policy_config(failure: FailureSpec) -> SimulationConfig:
    return SimulationConfig(
        title=f"bench-chaos-{failure.policy}",
        dimensions=[DimensionSpec("temperature", 8, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=40),
        pattern=PatternSpec(),
        n_cycles=2 if FAST else 4,
        steps_per_cycle=6000,
        numeric_steps=10,
        sample_stride=0,
        cores_per_replica=5,
        failure=failure,
        seed=2016,
    )


def policy_cost_rows():
    """[policy, cycles, failures, relaunched, t_end, util%] per policy."""
    rows = []
    cases = [
        ("none", FailureSpec()),
        ("continue", FailureSpec(policy="continue", node_crashes=[[40.0, 0]])),
        ("relaunch", FailureSpec(policy="relaunch", node_crashes=[[40.0, 0]])),
        ("retire", FailureSpec(policy="retire", node_crashes=[[40.0, 0]])),
    ]
    for label, failure in cases:
        result = RepEx(_policy_config(failure)).run()
        rows.append(
            [
                label,
                len(result.cycle_timings),
                result.n_failures,
                result.n_relaunches,
                result.n_retired,
                round(result.t_end, 1),
                round(100.0 * result.utilization(), 1),
            ]
        )
    return rows


def collect():
    return run_matrix(fast=FAST), policy_cost_rows()


def test_chaos_resilience(benchmark):
    outcomes, cost_rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    headers = [
        "policy",
        "cycles",
        "failed",
        "relaunched",
        "retired",
        "t_end (s)",
        "util%",
    ]
    report(
        "chaos_resilience",
        render_report(outcomes)
        + "\n\n"
        + render_table(
            headers,
            cost_rows,
            title="Recovery-policy cost of one node crash (8x5-core "
            "replicas, 2-node pilot)",
        ),
        headers=headers,
        rows=cost_rows,
    )

    assert all(o.ok for o in outcomes), [
        (o.name, o.error) for o in outcomes if not o.ok
    ]

    by_policy = {row[0]: row for row in cost_rows}
    clean, relaunch = by_policy["none"], by_policy["relaunch"]
    # the relaunch policy recovers the lost cycle at a wallclock cost
    assert relaunch[1] == clean[1]  # same number of completed cycles
    assert relaunch[3] > 0  # via actual relaunches
    assert relaunch[5] > clean[5]  # which cost virtual time
    # continue gives the time back by abandoning the killed MD segments
    assert by_policy["continue"][3] == 0
