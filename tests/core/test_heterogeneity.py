"""Tests for heterogeneous replica performance (paper Sec. 2.1)."""

import numpy as np
import pytest

from repro.core import RepEx
from repro.core.config import (
    ConfigError,
    DimensionSpec,
    PatternSpec,
    ResourceSpec,
)

from repro.utils.rng import RNGRegistry

from tests.conftest import small_tremd_config


def het_config(sigma, **over):
    defaults = dict(
        dimensions=[DimensionSpec("temperature", 8, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=8),
        replica_heterogeneity=sigma,
        n_cycles=2,
    )
    defaults.update(over)
    return small_tremd_config(**defaults)


class TestReplicaSpeed:
    def test_homogeneous_is_identity(self):
        amm = RepEx(het_config(0.0)).amm
        assert all(amm.replica_speed(rid) == 1.0 for rid in range(8))

    def test_heterogeneous_spreads(self):
        amm = RepEx(het_config(0.5)).amm
        speeds = [amm.replica_speed(rid) for rid in range(8)]
        assert max(speeds) / min(speeds) > 1.3
        assert all(s > 0 for s in speeds)

    def test_deterministic_per_seed(self):
        a = RepEx(het_config(0.5)).amm
        b = RepEx(het_config(0.5)).amm
        assert [a.replica_speed(i) for i in range(8)] == [
            b.replica_speed(i) for i in range(8)
        ]

    def test_negative_sigma_rejected(self):
        with pytest.raises(ConfigError):
            het_config(-0.1)

    def test_every_built_task_takes_the_next_draw(self):
        """The multiplier is per task, not per replica: through
        ``md_tasks``, replica 3's cycle-0 and cycle-1 tasks take draws 1 and
        2 of its ``("replica-speed", 3)`` stream, and a relaunch of cycle 1
        takes draw 3, whatever else shares the group."""
        sigma = 0.5
        amm = RepEx(het_config(sigma)).amm
        reps = amm.create_replicas()
        rep = reps[3]
        stream = RNGRegistry(amm.config.seed).stream("replica-speed", rep.rid)
        draws = [
            float(np.exp(sigma * stream.standard_normal())) for _ in range(3)
        ]
        built = [
            amm.md_tasks(reps, 0)[3],
            amm.md_tasks([reps[0], rep], [1, 1])[1],
            amm.md_tasks([rep], 1)[0],  # the relaunch
        ]
        assert [d.name for d in built] == [
            amm.md_tag(rep, 0), amm.md_tag(rep, 1), amm.md_tag(rep, 1)
        ]
        for desc, speed in zip(built, draws):
            base = amm.cluster.speed_factor * amm.perf.md_duration(
                amm.executable,
                amm.system,
                amm.config.steps_per_cycle,
                cores=rep.cores,
                task_key=desc.name,
            )
            assert desc.duration == base * speed


class TestBarrierEffect:
    def test_sync_cycle_set_by_slowest_replica(self):
        homo = RepEx(het_config(0.0)).run()
        hetero = RepEx(het_config(0.6)).run()
        # the barrier waits for the slowest: cycles lengthen
        assert (
            hetero.average_cycle_time() > homo.average_cycle_time()
        )
        # and utilization drops (fast replicas idle at the barrier)
        assert hetero.utilization() < homo.utilization()

    def test_async_fifo_beats_sync_under_heterogeneity(self):
        sigma = 0.6
        sync = RepEx(het_config(sigma, n_cycles=3)).run()
        fifo = RepEx(
            het_config(
                sigma,
                n_cycles=3,
                pattern=PatternSpec(
                    kind="asynchronous",
                    window_seconds=1e6,
                    fifo_count=4,
                ),
            )
        ).run()
        assert fifo.utilization() > sync.utilization()

    def test_sync_beats_window_async_when_homogeneous(self):
        """Fig. 13's regime: with equal replicas the time-window criterion
        wastes pool-wait time and the synchronous pattern wins.  (The FIFO
        criterion can tie or beat sync at small scale, which is exactly
        the paper's point about better transition criteria.)"""
        sync = RepEx(het_config(0.0, n_cycles=3)).run()
        window = RepEx(
            het_config(
                0.0,
                n_cycles=3,
                pattern=PatternSpec(
                    kind="asynchronous", window_seconds=60.0
                ),
            )
        ).run()
        assert sync.utilization() > window.utilization()
