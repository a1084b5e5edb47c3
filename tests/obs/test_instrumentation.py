"""End-to-end checks that the instrumented layers agree with the results.

Every test runs a small simulation on a registry of its own, so counters
reflect exactly one run and nothing the rest of the suite did.
"""

import pytest

from repro.core import RepEx, ram
from repro.core.config import (
    DimensionSpec,
    FailureSpec,
    PatternSpec,
    ResourceSpec,
)
from repro.obs.metrics import MetricError, MetricsRegistry
from repro.pilot.session import Session
from tests.conftest import small_tremd_config


def run_with_registry(config):
    registry = MetricsRegistry()
    result = RepEx(config, registry=registry).run()
    return registry, result


class TestSchedulerInstrumentation:
    def test_unit_counters_balance(self):
        registry, result = run_with_registry(small_tremd_config())
        counters = registry.snapshot()["counters"]
        assert counters["scheduler.submitted"] == (
            counters["scheduler.completed"]
            + counters["scheduler.failed"]
            + counters["scheduler.canceled"]
        )
        assert counters["scheduler.failed"] == 0
        assert counters["scheduler.started"] == counters["scheduler.submitted"]

    def test_gauges_drain_to_zero_after_run(self):
        registry, _ = run_with_registry(small_tremd_config())
        gauges = registry.snapshot()["gauges"]
        assert gauges["scheduler.queue_depth"] == 0
        assert gauges["scheduler.used_cores"] == 0

    def test_wait_histogram_covers_every_start(self):
        registry, _ = run_with_registry(small_tremd_config())
        snap = registry.snapshot()
        wait = snap["histograms"]["scheduler.wait_seconds"]
        assert wait["count"] == snap["counters"]["scheduler.started"]
        assert wait["min"] >= 0.0


class TestExchangeInstrumentation:
    def test_counters_match_result_stats(self):
        registry, result = run_with_registry(small_tremd_config())
        counters = registry.snapshot()["counters"]
        attempted = sum(s.attempted for s in result.exchange_stats.values())
        accepted = sum(s.accepted for s in result.exchange_stats.values())
        assert counters["exchange.attempted"] == attempted
        assert counters.get("exchange.accepted", 0) == accepted


    def test_each_counter_exists_from_its_first_count(self, monkeypatch):
        # a manifest lists every counter that exists, even at zero: a
        # lone replica makes no proposal, and a run that accepts no swap
        # has no accepted counters
        lone, _ = run_with_registry(
            small_tremd_config(
                dimensions=[DimensionSpec("temperature", 1, 273.0, 373.0)]
            )
        )
        counters = lone.snapshot()["counters"]
        assert not any(name.startswith("exchange.a") for name in counters)
        monkeypatch.setattr(ram, "metropolis_accept", lambda delta, rng: False)
        rejected, _ = run_with_registry(small_tremd_config())
        counters = rejected.snapshot()["counters"]
        assert counters["exchange.attempted{dim=temperature}"] > 0
        assert not any(name.startswith("exchange.accepted") for name in counters)


class TestEmmInstrumentation:
    def test_sync_cycle_counters_and_spans(self):
        registry, result = run_with_registry(small_tremd_config())
        counters = registry.snapshot()["counters"]
        assert counters["emm.cycles"] == len(result.cycle_timings)
        assert counters["emm.exchange_sweeps"] == len(result.cycle_timings)
        cycles = [s for s in registry.spans if s.name == "cycle"]
        assert len(cycles) == len(result.cycle_timings)
        # each cycle span contains its md span
        mds = [s for s in registry.spans if s.name == "md"]
        assert len(mds) == len(cycles)
        for md, cyc in zip(mds, cycles):
            assert cyc.t_start <= md.t_start <= md.t_end <= cyc.t_end

    def test_cycle_histogram_tracks_spans(self):
        registry, result = run_with_registry(small_tremd_config())
        hist = registry.snapshot()["histograms"]["emm.cycle_seconds"]
        assert hist["count"] == len(result.cycle_timings)
        spans = [c.span for c in result.cycle_timings]
        assert hist["max"] == pytest.approx(max(spans), rel=1e-6)

    def test_async_sweep_spans(self):
        config = small_tremd_config(
            pattern=PatternSpec(kind="asynchronous", window_seconds=60.0),
            n_cycles=3,
        )
        registry, result = run_with_registry(config)
        counters = registry.snapshot()["counters"]
        sweeps = [s for s in registry.spans if s.name == "exchange"]
        assert counters["emm.exchange_sweeps"] == len(sweeps) > 0
        assert all(s.tags["pattern"] == "asynchronous" for s in sweeps)
        # no global cycle to count; the sweeps are counted above
        assert "emm.cycles" not in counters

    @pytest.mark.parametrize("kind", ["synchronous", "asynchronous"])
    def test_manifest_counts_cycles_only_for_the_sync_pattern(self, kind):
        config = small_tremd_config(
            pattern=PatternSpec(kind=kind, window_seconds=60.0), n_cycles=3
        )
        _, result = run_with_registry(config)
        counters = result.manifest.metrics["counters"]
        if kind == "synchronous":
            assert counters["emm.cycles"] == config.n_cycles
        else:
            assert "emm.cycles" not in counters


class TestStagingInstrumentation:
    def test_transfer_counters_accumulate(self):
        registry, _ = run_with_registry(small_tremd_config())
        counters = registry.snapshot()["counters"]
        assert counters["staging.transfers"] > 0
        assert counters["staging.bytes_mb"] > 0.0


def deadline_config():
    """A config whose stack creates instruments the default one does not:
    the bounded barrier's counters and the fault domain's."""
    return small_tremd_config(
        title="deadline",
        pattern=PatternSpec(kind="synchronous", barrier_deadline_s=50.0),
        failure=FailureSpec(policy="continue", node_crashes=[[40.0, 0]]),
        resource=ResourceSpec("supermic", cores=40),
        cores_per_replica=5,
    )


class TestRegistryIsolation:
    def test_earlier_run_leaves_no_instruments_behind(self):
        first = RepEx(small_tremd_config()).run().manifest
        registry, _ = run_with_registry(deadline_config())
        assert "emm.barrier_deadline_fires" in registry.snapshot()["counters"]
        after = RepEx(small_tremd_config()).run().manifest
        assert "emm.barrier_deadline_fires" not in after.metrics["counters"]
        assert after.to_jsonl() == first.to_jsonl()

    def test_repex_objects_built_before_either_runs_match_their_solo_runs(
        self,
    ):
        solo_a = RepEx(small_tremd_config()).run().manifest.to_jsonl()
        solo_b = RepEx(deadline_config()).run().manifest.to_jsonl()
        a = RepEx(small_tremd_config())
        b = RepEx(deadline_config())
        assert a.run().manifest.to_jsonl() == solo_a
        assert b.run().manifest.to_jsonl() == solo_b

    def test_a_registry_handed_to_a_second_repex_is_refused(self):
        registry = MetricsRegistry()
        first = RepEx(small_tremd_config(), registry=registry)
        with pytest.raises(MetricError, match="already bound"):
            RepEx(deadline_config(), registry=registry)
        # the refused construction recorded nothing into the registry
        solo = RepEx(small_tremd_config()).run()
        assert first.run().manifest.to_jsonl() == solo.manifest.to_jsonl()

    def test_injected_session_keeps_its_registry(self):
        registry = MetricsRegistry()
        registry.counter("caller.owned").inc()
        session = Session(registry=registry)
        repex = RepEx(small_tremd_config(), session=session)
        assert repex.registry is registry
        assert registry.snapshot()["counters"]["caller.owned"] == 1.0

    def test_a_second_registry_beside_an_injected_session_is_refused(self):
        with pytest.raises(ValueError, match="injected session"):
            RepEx(
                small_tremd_config(),
                session=Session(),
                registry=MetricsRegistry(),
            )
