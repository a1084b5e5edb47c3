"""Crash/resume equivalence under gray failures.

The hard case for checkpoint/restart in this PR: kill the run while a
speculative duplicate launch is *in flight* — the straggler and its
shadow both racing for the same completion — and require the resumed
run to reproduce the uninterrupted reference exactly.  The checkpoint
never sees the in-flight attempt (sync snapshots happen at cycle
boundaries), but the gray RNG streams (hang draws, watchdog backoff)
and the watchdog's completion history must round-trip for the replayed
cycle to land on the same trajectory.
"""

import pytest

from repro.core.chaos import builtin_scenarios
from repro.core.framework import RepEx
from repro.pilot.events import SimulatedCrash


def _scenario(name):
    return {s.name: s for s in builtin_scenarios(fast=True)}[name]


def _run(config, **kwargs):
    return RepEx(config, **kwargs).run()


class TestResumeWithPendingSpeculative:
    def test_crash_between_speculative_launch_and_win(self, tmp_path):
        scenario = _scenario("slow-node/speculative/sync")
        # boundary capture does not perturb the sync timeline, so the
        # checkpointing run doubles as the reference
        reference = _run(
            scenario.config,
            checkpoint_every=1,
            checkpoint_dir=tmp_path / "ref",
        )
        events = reference.manifest.fault_events
        # a crash is only resumable once the first boundary snapshot is
        # on disk, so target a speculative race from cycle >= 1
        t_first_boundary = reference.cycle_timings[0].t_end
        launches = [
            e["t"]
            for e in events
            if e["fault"] == "speculative_launch" and e["t"] > t_first_boundary
        ]
        settled = [
            e["t"]
            for e in events
            if e["fault"] in ("speculative_win", "speculative_loss")
        ]
        assert launches, "no speculation after cycle 0 — rebalance the scenario"
        t_launch = launches[0]
        t_settle = min(t for t in settled if t > t_launch)
        crash_at = (t_launch + t_settle) / 2.0

        ckpt_dir = tmp_path / "ckpt"
        with pytest.raises(SimulatedCrash):
            RepEx(
                scenario.config,
                checkpoint_every=1,
                checkpoint_dir=ckpt_dir,
                crash_at_time=crash_at,
            ).run()
        resumed = _run(
            scenario.config,
            checkpoint_every=1,
            checkpoint_dir=ckpt_dir,
            resume_from=ckpt_dir / "latest.json",
        )
        assert resumed.fingerprint() == reference.fingerprint()


class TestGrayRerunDeterminism:
    """Knobs-on chaos scenarios are byte-identical across reruns."""

    @pytest.mark.parametrize(
        "name",
        [
            "slow-node/speculative/sync",
            "hangs/watchdog-relaunch/sync",
            "slow-node/barrier-deadline/sync",
        ],
    )
    def test_rerun_fingerprint_identical(self, name):
        scenario = _scenario(name)
        first = _run(scenario.config)
        second = _run(scenario.config)
        assert first.fingerprint() == second.fingerprint()
