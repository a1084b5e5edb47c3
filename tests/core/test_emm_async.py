"""Tests for the asynchronous EMM (barrier-free pattern)."""

import pytest

from repro.core import RepEx
from repro.core.config import (
    ConfigError,
    DimensionSpec,
    FailureSpec,
    PatternSpec,
    ResourceSpec,
)

from tests.conftest import small_tremd_config


def async_config(**over):
    defaults = dict(
        pattern=PatternSpec(kind="asynchronous", window_seconds=60.0),
        n_cycles=3,
    )
    defaults.update(over)
    return small_tremd_config(**defaults)


class TestAsyncRun:
    def test_every_replica_completes_all_cycles(self):
        res = RepEx(async_config()).run()
        for rep in res.replicas:
            assert len(rep.history) == 3

    def test_exchange_sweeps_happen(self):
        res = RepEx(async_config()).run()
        assert res.exchange_stats["temperature"].attempted > 0
        assert len(res.cycle_timings) >= 1

    def test_window_multiset_conserved(self):
        res = RepEx(async_config(n_cycles=5)).run()
        assert sorted(r.window("temperature") for r in res.replicas) == [
            0, 1, 2, 3,
        ]

    def test_lower_utilization_than_sync(self):
        """Fig. 13: sync utilization exceeds async by ~10%."""
        a = RepEx(async_config(n_cycles=4)).run()
        s = RepEx(small_tremd_config(n_cycles=4)).run()
        assert a.utilization() < s.utilization()
        gap = s.utilization() - a.utilization()
        assert 0.01 < gap < 0.35

    def test_deterministic(self):
        u1 = RepEx(async_config()).run().utilization()
        u2 = RepEx(async_config()).run().utilization()
        assert u1 == pytest.approx(u2)

    def test_pattern_recorded(self):
        res = RepEx(async_config()).run()
        assert res.pattern == "asynchronous"


class TestFIFOCriterion:
    def test_fifo_triggers_on_count(self):
        cfg = async_config(
            pattern=PatternSpec(
                kind="asynchronous", window_seconds=1e6, fifo_count=2
            )
        )
        res = RepEx(cfg).run()
        for rep in res.replicas:
            assert len(rep.history) == 3
        assert res.exchange_stats["temperature"].attempted > 0

    def test_fifo_better_utilization_than_window(self):
        """The paper expects 'significantly better utilization results' for
        non-time-window criteria."""
        fifo = RepEx(
            async_config(
                pattern=PatternSpec(
                    kind="asynchronous", window_seconds=1e6, fifo_count=4
                ),
                n_cycles=4,
            )
        ).run()
        window = RepEx(
            async_config(
                pattern=PatternSpec(
                    kind="asynchronous", window_seconds=50.0
                ),
                n_cycles=4,
            )
        ).run()
        assert fifo.utilization() > window.utilization()


class TestAsyncFaults:
    def test_continue_policy(self):
        cfg = async_config(
            failure=FailureSpec(probability=0.3, policy="continue"),
            numeric_steps=10,
        )
        res = RepEx(cfg).run()
        assert res.n_failures > 0
        for rep in res.replicas:
            assert len(rep.history) == 3

    def test_relaunch_policy(self):
        cfg = async_config(
            failure=FailureSpec(
                probability=0.3, policy="relaunch", max_relaunches=10
            ),
            numeric_steps=10,
        )
        res = RepEx(cfg).run()
        assert res.n_relaunches > 0
        for rep in res.replicas:
            assert len(rep.history) == 3
            assert not any(rec.failed for rec in rep.history)


class TestAsyncSREMDUnsupported:
    def test_raises_clearly(self):
        with pytest.raises(ConfigError, match="asynchronous pattern"):
            async_config(
                dimensions=[DimensionSpec("salt", 4, 0.0, 1.0)],
                resource=ResourceSpec("supermic", cores=4),
            )

    def test_salt_added_after_construction_still_raises_at_run(self):
        """Validation runs at construction; the EMM keeps its own guard."""
        cfg = async_config()
        cfg.dimensions.append(DimensionSpec("salt", 2, 0.0, 1.0))
        with pytest.raises(NotImplementedError, match="asynchronous S-REMD"):
            RepEx(cfg).run()
