"""Kill + resume equivalence: a resumed run is bit-identical.

The acceptance bar for checkpoint/restart: stop a run — at a cycle
boundary (synchronous), at a quiesce point (asynchronous), or with a
hard mid-flight kill — rebuild the whole stack from the checkpoint, and
the combined trajectory — coordinates, energies, exchange decisions, RNG
draws, virtual-clock times, core-second accounting, and the full
observability manifest — matches the uninterrupted run exactly (no
tolerance).

For the asynchronous pattern "uninterrupted" means *with the same
checkpoint cadence*: a quiesce is an induced quiet point that perturbs
the timeline, so the golden run must quiesce at the same virtual times
the killed+resumed pair did.
"""

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.core import RepEx
from repro.core.checkpoint import JOURNAL_NAME, Checkpoint, CheckpointError
from repro.core.config import (
    DimensionSpec,
    FailureSpec,
    PatternSpec,
    ResourceSpec,
)
from repro.obs.diff import diff_manifests
from repro.obs.metrics import MetricsRegistry
from repro.pilot.events import SimulatedCrash
from tests.conftest import small_tremd_config


def fingerprint(result):
    """Every observable of a run, as an exact (full-precision) JSON blob."""
    return json.dumps(
        {
            "t_end": result.t_end,
            "replicas": [
                {
                    "rid": rep.rid,
                    "coords": list(map(float, rep.coords)),
                    "param_indices": rep.param_indices,
                    "status": rep.status.value,
                    "n_failures": rep.n_failures,
                    "history": [
                        {
                            "cycle": rec.cycle,
                            "param_indices": rec.param_indices,
                            "potential_energy": rec.potential_energy,
                            "partner": rec.partner,
                            "accepted": rec.accepted,
                            "failed": rec.failed,
                            "trajectory": (
                                rec.trajectory.tolist()
                                if rec.trajectory is not None
                                else None
                            ),
                        }
                        for rec in rep.history
                    ],
                }
                for rep in result.replicas
            ],
            "exchange": {
                name: [stats.attempted, stats.accepted]
                for name, stats in result.exchange_stats.items()
            },
            "timings": [
                [c.cycle, c.t_md, c.t_ex, c.t_data, c.t_repex, c.t_rp, c.span]
                for c in result.cycle_timings
            ],
            "accounting": [
                result.md_core_seconds,
                result.exchange_core_seconds,
                result.n_failures,
                result.n_relaunches,
                result.n_retired,
            ],
        },
        sort_keys=True,
    )


def make_config(**over):
    return small_tremd_config(n_cycles=4, **over)


@pytest.mark.parametrize(
    "over",
    [
        {},
        {"failure": FailureSpec(probability=0.4, policy="relaunch")},
        {
            "failure": FailureSpec(
                policy="continue",
                staging_fault_probability=0.3,
                staging_max_retries=6,
            )
        },
    ],
    ids=["clean", "unit-failures", "staging-faults"],
)
def test_resume_is_bit_identical(tmp_path, over):
    baseline = RepEx(make_config(**over)).run()

    # "kill" the run at the cycle-2 boundary...
    first = RepEx(
        make_config(**over),
        checkpoint_every=2,
        checkpoint_dir=tmp_path,
        stop_after_cycle=2,
    )
    partial = first.run()
    assert partial.interrupted
    assert len(partial.cycle_timings) == 2

    # ...and continue from the file it left behind
    resumed = RepEx(
        make_config(**over), resume_from=tmp_path / "latest.json"
    ).run()
    assert not resumed.interrupted
    assert fingerprint(resumed) == fingerprint(baseline)


def test_resume_from_in_memory_checkpoint():
    baseline = RepEx(make_config()).run()
    first = RepEx(make_config(), checkpoint_every=2, stop_after_cycle=2)
    first.run()
    resumed = RepEx(make_config(), resume_from=first.checkpoints[-1]).run()
    assert fingerprint(resumed) == fingerprint(baseline)


def test_double_resume_chains(tmp_path):
    """Stop at 1, resume to 3, stop again, resume to the end."""
    baseline = RepEx(make_config()).run()
    RepEx(
        make_config(),
        checkpoint_every=1,
        checkpoint_dir=tmp_path,
        stop_after_cycle=1,
    ).run()
    middle = RepEx(
        make_config(),
        resume_from=tmp_path / "latest.json",
        checkpoint_every=1,
        checkpoint_dir=tmp_path,
        stop_after_cycle=3,
    )
    partial = middle.run()
    assert partial.interrupted
    assert len(partial.cycle_timings) == 3
    final = RepEx(
        make_config(), resume_from=tmp_path / "latest.json"
    ).run()
    assert fingerprint(final) == fingerprint(baseline)


def test_stop_without_checkpointing_marks_interrupted():
    result = RepEx(make_config(), stop_after_cycle=2).run()
    assert result.interrupted
    assert len(result.cycle_timings) == 2


# -- asynchronous pattern: quiesce checkpoints ------------------------------


#: quiesce cadence used throughout; the small async runs span ~700
#: virtual seconds, so this lands three quiesce points inside the run
CADENCE = 150.0


def async_config(**over):
    over.setdefault("pattern", PatternSpec(kind="asynchronous"))
    return small_tremd_config(n_cycles=4, **over)


def equivalent(golden, resumed):
    """Bit-identity in both senses: result fingerprint + manifest diff."""
    assert resumed.fingerprint() == golden.fingerprint()
    assert diff_manifests(golden.manifest, resumed.manifest).identical


class TestAsyncQuiesceResume:
    def test_stop_after_checkpoint_resumes_bit_identical(self, tmp_path):
        golden = RepEx(async_config(), checkpoint_every_s=CADENCE).run()

        first = RepEx(
            async_config(),
            checkpoint_every_s=CADENCE,
            checkpoint_dir=tmp_path,
            stop_after_checkpoint=1,
        )
        partial = first.run()
        assert partial.interrupted
        assert len(first.checkpoints) == 1
        assert first.checkpoints[0].pattern == "asynchronous"
        assert (tmp_path / "quiesce_0001.json").exists()

        resumed = RepEx(
            async_config(),
            checkpoint_every_s=CADENCE,
            resume_from=tmp_path / "latest.json",
        ).run()
        assert not resumed.interrupted
        equivalent(golden, resumed)

    def test_crash_mid_flight_resumes_bit_identical(self, tmp_path):
        golden = RepEx(async_config(), checkpoint_every_s=CADENCE).run()

        crash_at = golden.t_start + 0.8 * golden.wallclock
        with pytest.raises(SimulatedCrash):
            RepEx(
                async_config(),
                checkpoint_every_s=CADENCE,
                checkpoint_dir=tmp_path,
                crash_at_time=crash_at,
            ).run()

        resumed = RepEx(
            async_config(),
            checkpoint_every_s=CADENCE,
            resume_from=tmp_path / "latest.json",
        ).run()
        equivalent(golden, resumed)

    def test_crash_resume_with_staging_faults(self, tmp_path):
        over = dict(
            failure=FailureSpec(
                policy="continue",
                staging_fault_probability=0.3,
                staging_max_retries=6,
            )
        )
        golden = RepEx(async_config(**over), checkpoint_every_s=CADENCE).run()
        crash_at = golden.t_start + 0.75 * golden.wallclock
        with pytest.raises(SimulatedCrash):
            RepEx(
                async_config(**over),
                checkpoint_every_s=CADENCE,
                checkpoint_dir=tmp_path,
                crash_at_time=crash_at,
            ).run()
        resumed = RepEx(
            async_config(**over),
            checkpoint_every_s=CADENCE,
            resume_from=tmp_path / "latest.json",
        ).run()
        # fault injection races the quiesce drain, so the manifest's
        # fault log can differ in timing; the physics must not
        assert resumed.fingerprint() == golden.fingerprint()

    def test_double_resume_chains_async(self, tmp_path):
        golden = RepEx(async_config(), checkpoint_every_s=CADENCE).run()
        RepEx(
            async_config(),
            checkpoint_every_s=CADENCE,
            checkpoint_dir=tmp_path,
            stop_after_checkpoint=1,
        ).run()
        middle = RepEx(
            async_config(),
            checkpoint_every_s=CADENCE,
            checkpoint_dir=tmp_path,
            resume_from=tmp_path / "latest.json",
            stop_after_checkpoint=2,
        )
        partial = middle.run()
        assert partial.interrupted
        final = RepEx(
            async_config(),
            checkpoint_every_s=CADENCE,
            resume_from=tmp_path / "latest.json",
        ).run()
        equivalent(golden, final)

    def test_resume_counts_replicas_already_finished(self, tmp_path):
        over = dict(
            dimensions=[DimensionSpec("temperature", 8, 273.0, 373.0)],
            resource=ResourceSpec("supermic", cores=8),
            pattern=PatternSpec(kind="asynchronous", fifo_count=3),
        )
        golden = RepEx(
            async_config(**over),
            checkpoint_every_s=180.0,
            checkpoint_dir=tmp_path,
        ).run()
        snapshot = Checkpoint.load(tmp_path / "quiesce_0002.json")
        cycles_done = snapshot.async_state["cycles_done"].values()
        assert any(c >= 4 for c in cycles_done), "no finished replica"

        # the guard stops a resume that never ends instead of hanging
        resumed = RepEx(
            async_config(**over),
            checkpoint_every_s=180.0,
            resume_from=snapshot,
            stop_after_checkpoint=4,
        ).run()
        assert not resumed.interrupted
        equivalent(golden, resumed)

    def test_preempt_warning_induces_checkpoint(self, tmp_path):
        """A preemption warning quiesces once, ahead of the preemption,
        with no periodic cadence configured."""
        over = dict(
            failure=FailureSpec(
                policy="relaunch",
                preempt_after_s=400.0,
                requeue_on_preempt=True,
                preempt_warning_s=60.0,
            )
        )
        repex = RepEx(async_config(**over), checkpoint_dir=tmp_path)
        repex.run()
        assert len(repex.checkpoints) == 1
        assert (tmp_path / "quiesce_0001.json").exists()
        ckpt = repex.checkpoints[0]
        # the quiesce begins at the warning time (400 - 60)
        assert ckpt.t_now >= 340.0

    def test_quiesce_counters_and_spans_reach_manifest(self):
        result = RepEx(async_config(), checkpoint_every_s=CADENCE).run()
        counters = result.manifest.metrics["counters"]
        assert counters["checkpoint.captured"] >= 2
        # a quiesce triggered close to the end may never capture (the run
        # drains to completion first), so triggers >= captures
        assert counters["checkpoint.quiesces"] >= counters[
            "checkpoint.captured"
        ]
        # one finished span per capture (an uncaptured quiesce never ends
        # its span)
        quiesce_spans = result.manifest.spans_named("quiesce")
        assert len(quiesce_spans) == int(counters["checkpoint.captured"])
        assert all(
            s.tags["pattern"] == "asynchronous" for s in quiesce_spans
        )


# -- synchronous pattern: crash mid-cycle -----------------------------------


class TestSyncCrashMidCycle:
    def test_crash_mid_cycle_rolls_back_to_boundary(self, tmp_path):
        # cycle-boundary capture does not perturb the sync timeline, so
        # the cadence-matched golden equals the plain baseline
        golden = RepEx(make_config(), checkpoint_every=1).run()
        boundaries = [c.t_end for c in golden.cycle_timings]

        # kill inside cycle 2 (between the first and second boundary)
        crash_at = (boundaries[0] + boundaries[1]) / 2
        with pytest.raises(SimulatedCrash):
            RepEx(
                make_config(),
                checkpoint_every=1,
                checkpoint_dir=tmp_path,
                crash_at_time=crash_at,
            ).run()

        # only the cycle-1 boundary made it to disk: the killed cycle
        # rolls back and replays
        latest = Checkpoint.load(tmp_path / "latest.json")
        assert latest.next_cycle == 1

        resumed = RepEx(
            make_config(),
            checkpoint_every=1,
            resume_from=tmp_path / "latest.json",
        ).run()
        assert len(resumed.cycle_timings) == len(golden.cycle_timings)
        equivalent(golden, resumed)

    def test_crash_with_unit_failures_resumes_identically(self, tmp_path):
        over = dict(failure=FailureSpec(probability=0.4, policy="relaunch"))
        golden = RepEx(make_config(**over), checkpoint_every=1).run()
        crash_at = golden.t_start + 0.6 * golden.wallclock
        with pytest.raises(SimulatedCrash):
            RepEx(
                make_config(**over),
                checkpoint_every=1,
                checkpoint_dir=tmp_path,
                crash_at_time=crash_at,
            ).run()
        resumed = RepEx(
            make_config(**over),
            checkpoint_every=1,
            resume_from=tmp_path / "latest.json",
        ).run()
        equivalent(golden, resumed)

    def test_crash_before_first_checkpoint_leaves_nothing(self, tmp_path):
        golden = RepEx(make_config(), checkpoint_every=1).run()
        crash_at = golden.t_start + 0.1 * golden.wallclock  # inside cycle 1
        with pytest.raises(SimulatedCrash):
            RepEx(
                make_config(),
                checkpoint_every=1,
                checkpoint_dir=tmp_path,
                crash_at_time=crash_at,
            ).run()
        assert not (tmp_path / "latest.json").exists()


# -- checkpoint compaction --------------------------------------------------


class TestCompaction:
    def test_keep_prunes_numbered_snapshots(self, tmp_path):
        RepEx(
            make_config(),
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
            checkpoint_keep=2,
        ).run()
        numbered = sorted(p.name for p in tmp_path.glob("cycle_*.json"))
        assert numbered == ["cycle_0002.json", "cycle_0003.json"]
        assert (
            Checkpoint.load(tmp_path / "latest.json").to_json()
            == Checkpoint.load(tmp_path / "cycle_0003.json").to_json()
        )

    def test_keep_applies_to_quiesce_snapshots(self, tmp_path):
        repex = RepEx(
            async_config(),
            checkpoint_every_s=CADENCE,
            checkpoint_dir=tmp_path,
            checkpoint_keep=1,
        )
        repex.run()
        assert len(repex.checkpoints) >= 2
        numbered = list(tmp_path.glob("quiesce_*.json"))
        assert len(numbered) == 1
        Checkpoint.load(numbered[0])

    def test_zero_keeps_everything(self, tmp_path):
        RepEx(
            make_config(), checkpoint_every=1, checkpoint_dir=tmp_path
        ).run()
        assert len(list(tmp_path.glob("cycle_*.json"))) == 3

    def test_prune_is_write_new_then_delete(self, tmp_path, monkeypatch):
        """At the instant any snapshot is unlinked, a strictly newer one
        is already on disk and loadable — a kill mid-prune can never take
        the last checkpoint with it."""
        real_unlink = Path.unlink
        pruned = []

        def checked_unlink(self, *args, **kwargs):
            if self.parent == tmp_path:
                newer = [
                    p
                    for p in self.parent.glob("cycle_*.json")
                    if p.name > self.name
                ]
                assert newer, f"pruning {self.name} with nothing newer on disk"
                Checkpoint.load(max(newer))
                pruned.append(self.name)
            return real_unlink(self, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", checked_unlink)
        RepEx(
            make_config(),
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
            checkpoint_keep=1,
        ).run()
        assert pruned == ["cycle_0001.json", "cycle_0002.json"]

    def test_latest_loads_while_pruning(self, tmp_path, monkeypatch):
        """``latest.json`` names a snapshot that is on disk at every
        unlink: pruning never takes the one it points at."""
        real_unlink = Path.unlink
        seen = []

        def checked_unlink(self, *args, **kwargs):
            seen.append(Checkpoint.load(tmp_path / "latest.json").next_cycle)
            real_unlink(self, *args, **kwargs)
            seen.append(Checkpoint.load(tmp_path / "latest.json").next_cycle)

        monkeypatch.setattr(Path, "unlink", checked_unlink)
        RepEx(
            make_config(),
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
            checkpoint_keep=1,
        ).run()
        assert seen == [2, 2, 3, 3]

    def test_failed_delete_never_kills_the_run(self, tmp_path, monkeypatch):
        calls = []

        def failing_unlink(self, *args, **kwargs):
            calls.append(self.name)
            raise OSError("disk says no")

        monkeypatch.setattr(Path, "unlink", failing_unlink)
        result = RepEx(
            make_config(),
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
            checkpoint_keep=1,
        ).run()
        assert calls  # pruning was attempted...
        assert not result.interrupted  # ...and the run finished anyway
        # nothing was actually deleted, and everything still loads
        assert len(list(tmp_path.glob("cycle_*.json"))) == 3
        Checkpoint.load(tmp_path / "latest.json")


# -- the journal: any snapshot, any directory -------------------------------


def _tree(path):
    if not path.exists():
        return {}
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


class TestAnySnapshotAnyDirectory:
    """Every retained snapshot resumes to the golden, into its own
    directory or a fresh one, and the directory it leaves behind is the
    golden's byte for byte, journal included.

    Each run gets a private registry: a run in the shared default one
    starts with the instruments earlier runs created (zeroed), which a
    snapshot lists.
    """

    @pytest.mark.parametrize("where", ["same-dir", "fresh-dir"])
    @pytest.mark.parametrize("pattern", ["synchronous", "asynchronous"])
    def test_every_snapshot_resumes_to_the_golden(
        self, tmp_path, pattern, where
    ):
        if pattern == "synchronous":
            config, cadence, prefix = make_config(), {"checkpoint_every": 1}, "cycle_"
        else:
            config = async_config()
            cadence, prefix = {"checkpoint_every_s": CADENCE}, "quiesce_"
        golden_dir = tmp_path / "golden"
        golden = RepEx(
            config,
            checkpoint_dir=golden_dir,
            registry=MetricsRegistry(),
            **cadence,
        ).run()
        snapshots = sorted(golden_dir.glob(prefix + "*.json"))
        assert len(snapshots) >= 2
        for snap in snapshots:
            if where == "same-dir":
                out = tmp_path / f"same-{snap.stem}"
                shutil.copytree(golden_dir, out)
                source = out / snap.name
            else:
                out, source = tmp_path / f"fresh-{snap.stem}", snap
            resumed = RepEx(
                config,
                checkpoint_dir=out,
                resume_from=source,
                registry=MetricsRegistry(),
                **cadence,
            ).run()
            equivalent(golden, resumed)
            expected = _tree(golden_dir)
            if where == "fresh-dir":
                # only what the resumed run wrote: the later snapshots,
                # and with them latest.json and its own journal copy
                later = [
                    name
                    for name in expected
                    if name.startswith(prefix) and name > snap.name
                ]
                expected = {
                    name: data
                    for name, data in expected.items()
                    if later
                    and (name in later or not name.startswith(prefix))
                }
            assert _tree(out) == expected, snap.name

    def test_truncating_resume_keeps_latest_loadable(
        self, tmp_path, monkeypatch
    ):
        """Resuming an older snapshot in place cuts the journal bytes of
        the later ones; ``latest.json`` points at the resumed snapshot
        before they go, so it loads at every instant."""
        RepEx(make_config(), checkpoint_every=1, checkpoint_dir=tmp_path).run()
        real_truncate = os.truncate
        seen = []

        def checked_truncate(path, length):
            seen.append(Checkpoint.load(tmp_path / "latest.json").next_cycle)
            real_truncate(path, length)
            seen.append(Checkpoint.load(tmp_path / "latest.json").next_cycle)

        monkeypatch.setattr(os, "truncate", checked_truncate)
        RepEx(
            make_config(),
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
            resume_from=tmp_path / "cycle_0001.json",
            stop_after_cycle=2,
        ).run()
        assert seen == [1, 1]
        assert Checkpoint.load(tmp_path / "latest.json").next_cycle == 2
        # the snapshot whose bytes were cut fails loudly, never resumes
        # from the wrong data
        with pytest.raises(CheckpointError, match=JOURNAL_NAME):
            Checkpoint.load(tmp_path / "cycle_0003.json")

    def test_bytes_past_the_prefix_are_ignored(self, tmp_path):
        """A kill between a journal append and its snapshot write leaves
        a torn line past the last snapshot's prefix."""
        baseline = RepEx(make_config()).run()
        RepEx(
            make_config(),
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
            stop_after_cycle=2,
        ).run()
        journal = tmp_path / JOURNAL_NAME
        intact = journal.read_bytes()
        journal.write_bytes(intact + b'{"history": {"0": [')
        latest = Checkpoint.load(tmp_path / "latest.json")
        assert latest.journal["bytes"] == len(intact)
        resumed = RepEx(
            make_config(),
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
            resume_from=tmp_path / "latest.json",
        ).run()
        assert fingerprint(resumed) == fingerprint(baseline)
        assert journal.read_bytes().startswith(intact + b"{")
        Checkpoint.load(tmp_path / "cycle_0003.json")

    def test_in_memory_resume_leaves_the_source_journal_alone(self):
        baseline = RepEx(make_config()).run()
        first = RepEx(make_config(), checkpoint_every=1, stop_after_cycle=3)
        first.run()
        lines = list(first.emm.journal.lines)
        for _ in range(2):
            resumed = RepEx(
                make_config(),
                checkpoint_every=1,
                resume_from=first.checkpoints[0],
            ).run()
            assert fingerprint(resumed) == fingerprint(baseline)
        assert first.emm.journal.lines == lines

    def test_keep_never_prunes_the_journal(self, tmp_path):
        RepEx(
            make_config(),
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
            checkpoint_keep=1,
        ).run()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cycle_0003.json",
            JOURNAL_NAME,
            "latest.json",
        ]
        Checkpoint.load(tmp_path / "cycle_0003.json")


class TestEmptyTrajectories:
    """A unit that sampled nothing holds the one read-only (0, 2) array,
    live and restored alike, so a resumed run's samples concatenate."""

    @pytest.fixture
    def runs(self, tmp_path):
        """The shipped TSU example sampling nothing, run whole and
        resumed from its cycle-2 snapshot."""
        from repro.core.config import SimulationConfig

        path = Path(__file__).parents[2] / "examples/configs/tsu_mode2.json"
        data = json.loads(path.read_text())
        data["numeric_steps"] = 30  # fewer than the sample stride
        config = SimulationConfig.from_dict(data)
        golden = RepEx(config).run()
        RepEx(
            config,
            checkpoint_every=2,
            checkpoint_dir=tmp_path,
            stop_after_cycle=2,
        ).run()
        resumed = RepEx(config, resume_from=tmp_path / "latest.json").run()
        assert resumed.fingerprint() == golden.fingerprint()
        return config, golden, resumed

    def test_a_resumed_run_collects_its_window_samples(self, runs):
        from repro.analysis.fes import collect_window_samples
        from repro.core.exchange.umbrella import UmbrellaDimension

        config, golden, resumed = runs
        umbrella = [
            d for d in config.build_dimensions()
            if isinstance(d, UmbrellaDimension)
        ]
        shapes = []
        for result in (golden, resumed):
            windows = collect_window_samples(
                result.replicas,
                temperature_dim="temperature",
                umbrella_dims=[d.name for d in umbrella],
                umbrella_builders={d.name: d for d in umbrella},
                temperature_index=0,
            )
            shapes.append([w.samples.shape for w in windows])
        assert shapes[0] == shapes[1]
        assert shapes[0] and all(shape == (0, 2) for shape in shapes[0])

    def test_every_empty_trajectory_is_the_shared_array(self, runs):
        from repro.md.toymd import EMPTY_TRAJECTORY

        _, golden, resumed = runs
        assert EMPTY_TRAJECTORY.shape == (0, 2)
        assert not EMPTY_TRAJECTORY.flags.writeable
        for result in (golden, resumed):
            records = [rec for rep in result.replicas for rec in rep.history]
            assert records
            assert all(rec.trajectory is EMPTY_TRAJECTORY for rec in records)
