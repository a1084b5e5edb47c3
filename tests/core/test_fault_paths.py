"""Fault-path accounting: cores and counters stay consistent under kills.

The paper's fault-tolerance requirement is that replica failures never
poison the pilot: every killed unit must release its cores, relaunches
must respect the policy budget, and the observability counters must agree
with the EMM's own failure accounting.
"""

import pytest

from repro.core import RepEx
from repro.core.config import FailureSpec
from repro.obs.metrics import MetricsRegistry
from tests.conftest import small_tremd_config


def faulty_config(probability, policy="relaunch", max_relaunches=2, **over):
    return small_tremd_config(
        failure=FailureSpec(
            probability=probability,
            policy=policy,
            max_relaunches=max_relaunches,
        ),
        **over,
    )


def run_faulty(config):
    registry = MetricsRegistry()
    repex = RepEx(config, registry=registry)
    return registry, repex, repex.run()


class TestCoreAccounting:
    def test_total_failure_releases_every_core(self):
        """probability=1.0: every MD attempt dies, nothing may leak."""
        registry, repex, result = run_faulty(faulty_config(1.0))
        scheduler = repex.pilot.scheduler
        assert scheduler.n_running == 0
        assert scheduler.used_cores == 0
        assert scheduler.free_cores == scheduler.capacity
        assert scheduler.free_gpus == scheduler.gpu_capacity
        assert result.n_failures > 0

    def test_partial_failure_no_core_leak(self):
        registry, repex, result = run_faulty(faulty_config(0.5))
        scheduler = repex.pilot.scheduler
        assert scheduler.n_running == 0
        assert scheduler.used_cores == 0
        assert 0 < result.n_failures
        # relaunches eventually succeeded: every replica finished its cycles
        for rep in result.replicas:
            assert len(rep.history) == 2

    def test_unit_counters_balance_under_failures(self):
        registry, _, result = run_faulty(faulty_config(0.5))
        counters = registry.snapshot()["counters"]
        assert counters["scheduler.submitted"] == (
            counters["scheduler.completed"]
            + counters["scheduler.failed"]
            + counters["scheduler.canceled"]
        )
        assert counters["scheduler.failed"] == result.n_failures

    def test_gauges_drain_after_faulty_run(self):
        registry, _, _ = run_faulty(faulty_config(1.0))
        gauges = registry.snapshot()["gauges"]
        assert gauges["scheduler.queue_depth"] == 0
        assert gauges["scheduler.used_cores"] == 0


class TestRelaunchBudget:
    def test_exhaustion_stops_at_max_relaunches(self):
        """With every attempt failing, each replica is relaunched exactly
        max_relaunches times per cycle, then the policy gives up."""
        config = faulty_config(1.0, max_relaunches=2)
        _, _, result = run_faulty(config)
        n = config.n_replicas * config.n_cycles
        assert result.n_relaunches == 2 * n
        assert result.n_failures == 3 * n  # initial + 2 relaunches

    def test_zero_budget_never_relaunches(self):
        _, _, result = run_faulty(faulty_config(1.0, max_relaunches=0))
        assert result.n_relaunches == 0
        assert result.n_failures == 4 * 2  # one per replica per cycle

    def test_continue_policy_never_relaunches(self):
        _, _, result = run_faulty(faulty_config(1.0, policy="continue"))
        assert result.n_relaunches == 0

    def test_simulation_records_every_cycle_despite_failures(self):
        _, _, result = run_faulty(faulty_config(1.0))
        assert len(result.cycle_timings) == 2
        assert result.exchange_stats["temperature"].attempted == 0


class TestFailureMetrics:
    def test_emm_counters_match_result(self):
        registry, _, result = run_faulty(faulty_config(1.0))
        counters = registry.snapshot()["counters"]
        assert counters["emm.failures"] == result.n_failures
        assert counters["emm.relaunches"] == result.n_relaunches

    def test_manifest_survives_faulty_run(self):
        _, _, result = run_faulty(faulty_config(1.0))
        manifest = result.manifest
        assert manifest is not None
        assert manifest.metrics["counters"]["emm.failures"] == (
            result.n_failures
        )
        states = {state for _, _, state in manifest.timeline}
        assert "FAILED" in states

    def test_healthy_run_reports_no_failures(self):
        registry, _, result = run_faulty(faulty_config(0.0))
        counters = registry.snapshot()["counters"]
        assert result.n_failures == 0
        assert counters.get("emm.failures", 0) == 0
        assert counters.get("scheduler.failed", 0) == 0
