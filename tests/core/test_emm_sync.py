"""Tests for the synchronous EMM (barrier pattern)."""

import numpy as np
import pytest

from repro.core import RepEx
from repro.core.config import (
    DimensionSpec,
    FailureSpec,
    PatternSpec,
    ResourceSpec,
)
from repro.core.replica import ReplicaStatus
from repro.obs.metrics import MetricsRegistry

from tests.conftest import small_tremd_config


class TestBasicRun:
    def test_cycle_count(self):
        res = RepEx(small_tremd_config(n_cycles=3)).run()
        assert len(res.cycle_timings) == 3
        for c in res.cycle_timings:
            assert c.dimension == "temperature"

    def test_timing_decomposition_positive(self):
        res = RepEx(small_tremd_config()).run()
        c = res.cycle_timings[0]
        assert c.t_md > 100.0  # sander anchor ~141 s
        assert c.t_ex > 0.0
        assert c.t_repex > 0.0
        assert c.t_rp >= 0.0
        assert c.span >= c.t_md

    def test_replica_histories_populated(self):
        res = RepEx(small_tremd_config(n_cycles=2)).run()
        for rep in res.replicas:
            assert len(rep.history) == 2
            for rec in rep.history:
                assert np.isfinite(rec.potential_energy)

    def test_window_multiset_conserved(self):
        """Exchanges permute windows; the ladder stays fully occupied."""
        res = RepEx(small_tremd_config(n_cycles=4)).run()
        windows = sorted(r.window("temperature") for r in res.replicas)
        assert windows == [0, 1, 2, 3]

    def test_exchange_stats_recorded(self):
        res = RepEx(small_tremd_config(n_cycles=4)).run()
        stats = res.exchange_stats["temperature"]
        # 4 replicas, alternating pairing: 2 + 1 + 2 + 1 = 6 attempts
        assert stats.attempted == 6

    def test_deterministic(self):
        r1 = RepEx(small_tremd_config(n_cycles=2)).run()
        r2 = RepEx(small_tremd_config(n_cycles=2)).run()
        assert r1.average_cycle_time() == pytest.approx(
            r2.average_cycle_time()
        )
        w1 = [r.window("temperature") for r in r1.replicas]
        w2 = [r.window("temperature") for r in r2.replicas]
        assert w1 == w2

    def test_no_exchange_baseline(self):
        res = RepEx(small_tremd_config(exchange_enabled=False)).run()
        assert all(c.t_ex == 0.0 for c in res.cycle_timings)
        assert res.exchange_stats["temperature"].attempted == 0

    def test_utilization_bounds(self):
        res = RepEx(small_tremd_config()).run()
        assert 0.0 < res.utilization() <= 1.0


class TestMultiDim:
    def _tsu(self, **over):
        return small_tremd_config(
            dimensions=[
                DimensionSpec("temperature", 2, 273.0, 373.0),
                DimensionSpec("salt", 2, 0.0, 1.0),
                DimensionSpec(
                    "umbrella", 2, 0.0, 360.0, angle="phi",
                    force_constant=0.0006,
                ),
            ],
            resource=ResourceSpec("supermic", cores=8),
            n_cycles=6,
            **over,
        )

    def test_dimension_rotation(self):
        res = RepEx(self._tsu()).run()
        dims = [c.dimension for c in res.cycle_timings]
        assert dims == [
            "temperature", "salt", "umbrella_phi",
            "temperature", "salt", "umbrella_phi",
        ]

    def test_salt_exchange_slower_than_t(self):
        """Fig. 9: S exchange time >> T exchange (extra SP tasks)."""
        res = RepEx(self._tsu()).run()
        t_ex_t = res.mean_exchange_time("temperature")
        t_ex_s = res.mean_exchange_time("salt")
        assert t_ex_s > 2 * t_ex_t

    def test_full_cycle_grouping(self):
        res = RepEx(self._tsu()).run()
        groups = res.full_cycle_timings(3)
        assert len(groups) == 2
        assert all(len(g) == 3 for g in groups)

    def test_all_windows_conserved_per_dim(self):
        res = RepEx(self._tsu()).run()
        for dim in ("temperature", "salt", "umbrella_phi"):
            per_other = {}
            for r in res.replicas:
                key = r.group_key(dim)
                per_other.setdefault(key, []).append(r.window(dim))
            for windows in per_other.values():
                assert sorted(windows) == [0, 1]


class TestModeII:
    def test_fewer_cores_than_replicas(self):
        cfg = small_tremd_config(
            dimensions=[DimensionSpec("temperature", 8, 273.0, 373.0)],
            resource=ResourceSpec("supermic", cores=2),
            n_cycles=2,
        )
        res = RepEx(cfg).run()
        assert res.execution_mode == "II"
        assert len(res.cycle_timings) == 2
        # 8 replicas on 2 cores: 4 waves; cycle span >= 4 x MD time
        assert res.cycle_timings[0].span > 4 * 140.0

    def test_mode_ii_slower_than_mode_i(self):
        base = dict(
            dimensions=[DimensionSpec("temperature", 8, 273.0, 373.0)],
            n_cycles=1,
        )
        res1 = RepEx(
            small_tremd_config(
                resource=ResourceSpec("supermic", cores=8), **base
            )
        ).run()
        res2 = RepEx(
            small_tremd_config(
                resource=ResourceSpec("supermic", cores=4), **base
            )
        ).run()
        assert res2.average_cycle_time() > 1.5 * res1.average_cycle_time()


class TestFaultHandling:
    def test_continue_policy_keeps_going(self):
        cfg = small_tremd_config(
            failure=FailureSpec(probability=0.4, policy="continue"),
            n_cycles=3,
            numeric_steps=10,
        )
        res = RepEx(cfg).run()
        assert res.n_failures > 0
        assert res.n_relaunches == 0
        assert len(res.cycle_timings) == 3
        # failed cycles are recorded on the replicas
        failed_records = sum(
            1 for r in res.replicas for rec in r.history if rec.failed
        )
        assert failed_records == res.n_failures

    def test_relaunch_policy_recovers(self):
        cfg = small_tremd_config(
            failure=FailureSpec(
                probability=0.4, policy="relaunch", max_relaunches=5
            ),
            n_cycles=3,
            numeric_steps=10,
        )
        res = RepEx(cfg).run()
        assert res.n_failures > 0
        assert res.n_relaunches > 0
        # with relaunches, no replica should carry a failed record
        failed_records = sum(
            1 for r in res.replicas for rec in r.history if rec.failed
        )
        assert failed_records == 0

    def test_failure_free_run_counts_zero(self):
        res = RepEx(small_tremd_config()).run()
        assert res.n_failures == 0
        assert res.n_relaunches == 0


class TestBarrierDeadline:
    """Deadline-bounded barriers: exchange over the on-time cohort."""

    def _straggler_config(self, **over):
        # 8 replicas at 5 cores each on SuperMIC's 20-core nodes: node 0
        # carries four replicas and is 4x slow, so those four miss a
        # 60s barrier (5-core MD lands around 35s, theirs near 140s)
        defaults = dict(
            dimensions=[DimensionSpec("temperature", 8, 273.0, 373.0)],
            resource=ResourceSpec("supermic", cores=40),
            cores_per_replica=5,
            pattern=PatternSpec(
                kind="synchronous", barrier_deadline_s=60.0
            ),
            failure=FailureSpec(policy="continue", slow_nodes=[[0, 4.0]]),
            n_cycles=2,
            numeric_steps=10,
        )
        defaults.update(over)
        return small_tremd_config(**defaults)

    def test_late_replicas_counted_per_cycle(self):
        res = RepEx(self._straggler_config()).run()
        assert [c.n_late for c in res.cycle_timings] == [4, 4]

    def test_barrier_does_not_stall_on_stragglers(self):
        bounded = RepEx(self._straggler_config()).run()
        rigid = RepEx(
            self._straggler_config(
                pattern=PatternSpec(kind="synchronous")
            )
        ).run()
        # the bounded run's exchange happens at the deadline, not after
        # the 4x-slow units; cycle 0's exchange window opens earlier
        assert (
            bounded.cycle_timings[0].t_md_span
            < rigid.cycle_timings[0].t_md_span
        )
        # ...but the cycle still waits for the late collection, so the
        # ensemble is consistent before cycle 1 starts
        assert all(len(r.history) == 2 for r in bounded.replicas)

    def test_late_replicas_skip_the_exchange_window(self):
        bounded = RepEx(self._straggler_config()).run()
        rigid = RepEx(
            self._straggler_config(
                pattern=PatternSpec(kind="synchronous")
            )
        ).run()
        # only the 4 on-time replicas enter each sweep (vs all 8)
        assert (
            bounded.exchange_stats["temperature"].attempted
            < rigid.exchange_stats["temperature"].attempted
        )
        # the ladder stays fully occupied regardless
        windows = sorted(r.window("temperature") for r in bounded.replicas)
        assert windows == list(range(8))

    def test_counters_match_late_totals(self):
        registry = MetricsRegistry()
        res = RepEx(self._straggler_config(), registry=registry).run()
        counters = registry.snapshot()["counters"]
        assert counters["emm.barrier_deadline_fires"] == 2
        assert counters["emm.barrier_late"] == sum(
            c.n_late for c in res.cycle_timings
        )

    def test_generous_deadline_never_fires(self):
        registry = MetricsRegistry()
        res = RepEx(
            self._straggler_config(
                pattern=PatternSpec(
                    kind="synchronous", barrier_deadline_s=10_000.0
                )
            ),
            registry=registry,
        ).run()
        counters = registry.snapshot()["counters"]
        assert all(c.n_late == 0 for c in res.cycle_timings)
        assert counters["emm.barrier_deadline_fires"] == 0

    def test_default_runs_register_no_barrier_counters(self):
        # the rigid barrier must not even register the counters — zero
        # values show up in snapshots and would perturb golden manifests
        registry = MetricsRegistry()
        res = RepEx(small_tremd_config(), registry=registry).run()
        counters = registry.snapshot()["counters"]
        assert all(c.n_late == 0 for c in res.cycle_timings)
        assert not any(k.startswith("emm.barrier") for k in counters)
