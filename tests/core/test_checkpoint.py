"""Checkpoint capture, (de)serialization and validation."""

import hashlib
import json
from dataclasses import fields

import pytest

from repro.core import RepEx
from repro.core.checkpoint import (
    JOURNAL_NAME,
    SCHEMA_VERSION,
    SUPPORTED_VERSIONS,
    Checkpoint,
    CheckpointError,
    _json_default,
)
from repro.core.config import PatternSpec
from repro.obs.metrics import NullRegistry
from tests.conftest import small_tremd_config


def checkpointed_run(tmp_path, **over):
    config = small_tremd_config(n_cycles=4, **over)
    repex = RepEx(
        config, checkpoint_every=2, checkpoint_dir=tmp_path / "ckpts"
    )
    result = repex.run()
    return repex, result


def async_checkpointed_run(tmp_path, **kwargs):
    config = small_tremd_config(
        n_cycles=4, pattern=PatternSpec(kind="asynchronous")
    )
    repex = RepEx(
        config,
        checkpoint_every_s=150.0,
        checkpoint_dir=tmp_path / "ckpts",
        **kwargs,
    )
    result = repex.run()
    return repex, result


class TestCapture:
    def test_checkpoints_taken_at_cycle_boundaries(self, tmp_path):
        repex, result = checkpointed_run(tmp_path)
        assert [c.next_cycle for c in repex.checkpoints] == [2]
        ckpt = repex.checkpoints[0]
        assert ckpt.title == "test-tremd"
        assert ckpt.schema_version == SCHEMA_VERSION
        assert len(ckpt.replicas) == 4
        # two cycles of history captured per replica: the first in the
        # journal, the last (an exchange may still change it) inline
        history = ckpt.journaled()["history"]
        assert all(len(history[r["rid"]]) == 1 for r in ckpt.replicas)
        assert all(r["last"]["cycle"] == 1 for r in ckpt.replicas)
        assert 0 < ckpt.t_now <= result.t_end

    def test_files_written(self, tmp_path):
        repex, _ = checkpointed_run(tmp_path)
        ckpt_dir = tmp_path / "ckpts"
        assert (ckpt_dir / "cycle_0002.json").exists()
        # latest.json names the newest snapshot instead of copying it
        latest = ckpt_dir / "latest.json"
        assert json.loads(latest.read_text()) == {
            "snapshot": "cycle_0002.json"
        }
        assert latest.stat().st_size < 1024
        assert (
            Checkpoint.load(latest).to_json()
            == Checkpoint.load(ckpt_dir / "cycle_0002.json").to_json()
        )

    def test_every_cycle_when_asked(self, tmp_path):
        config = small_tremd_config(n_cycles=4)
        repex = RepEx(config, checkpoint_every=1)
        repex.run()
        # no snapshot after the final cycle: nothing left to resume
        assert [c.next_cycle for c in repex.checkpoints] == [1, 2, 3]

    def test_disabled_by_default(self):
        repex = RepEx(small_tremd_config())
        repex.run()
        assert repex.checkpoints == []


class TestRoundTrip:
    def test_json_round_trip_is_identical(self, tmp_path):
        repex, _ = checkpointed_run(tmp_path)
        ckpt = repex.checkpoints[0]
        clone = Checkpoint.from_json(ckpt.to_json())
        assert clone.to_json() == ckpt.to_json()
        assert clone.t_now == ckpt.t_now
        assert clone.rng == ckpt.rng

    def test_load_save_round_trip(self, tmp_path):
        repex, _ = checkpointed_run(tmp_path)
        loaded = Checkpoint.load(tmp_path / "ckpts" / "latest.json")
        assert loaded.to_json() == repex.checkpoints[0].to_json()


class TestValidation:
    def test_rejects_other_schema_version(self, tmp_path):
        repex, _ = checkpointed_run(tmp_path)
        data = json.loads(repex.checkpoints[0].to_json())
        # schemas 1 to 4 included: none has an upgrade path
        for version in (1, 2, 3, 4, SCHEMA_VERSION + 1):
            data["schema_version"] = version
            with pytest.raises(CheckpointError, match="schema version"):
                Checkpoint.from_json(json.dumps(data))

    def test_rejects_invalid_json(self):
        with pytest.raises(CheckpointError, match="invalid checkpoint JSON"):
            Checkpoint.from_json("{not json")
        with pytest.raises(CheckpointError, match="JSON object"):
            Checkpoint.from_json("[1, 2]")

    def test_rejects_unknown_fields(self, tmp_path):
        repex, _ = checkpointed_run(tmp_path)
        data = json.loads(repex.checkpoints[0].to_json())
        data["surprise"] = 1
        with pytest.raises(CheckpointError, match="malformed"):
            Checkpoint.from_json(json.dumps(data))

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            Checkpoint.load(tmp_path / "nope.json")

    def test_resume_rejects_config_mismatch(self, tmp_path):
        repex, _ = checkpointed_run(tmp_path)
        other = small_tremd_config(n_cycles=4, seed=999)
        with pytest.raises(CheckpointError, match="different configuration"):
            RepEx(other, resume_from=tmp_path / "ckpts" / "latest.json")

    def test_resume_rejects_completed_checkpoint(self, tmp_path):
        repex, _ = checkpointed_run(tmp_path)
        ckpt = repex.checkpoints[0]  # next_cycle=2
        same = small_tremd_config(n_cycles=4)
        ckpt_done = Checkpoint.from_json(ckpt.to_json())
        ckpt_done.next_cycle = 4
        with pytest.raises(CheckpointError, match="already complete"):
            RepEx(same, resume_from=ckpt_done)

    def test_negative_checkpoint_every_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_every"):
            RepEx(small_tremd_config(), checkpoint_every=-1)
        with pytest.raises(ValueError, match="checkpoint_every_s"):
            RepEx(small_tremd_config(), checkpoint_every_s=-1.0)
        with pytest.raises(ValueError, match="checkpoint_keep"):
            RepEx(small_tremd_config(), checkpoint_keep=-1)

    @pytest.mark.parametrize(
        "pattern, name, value",
        [
            ("synchronous", "stop_after_cycle", -3),
            ("asynchronous", "stop_after_checkpoint", -1),
            ("synchronous", "crash_at_time", -5.0),
            ("asynchronous", "crash_at_time", -5.0),
        ],
    )
    def test_negative_stop_points_rejected(self, pattern, name, value):
        config = small_tremd_config(pattern=PatternSpec(kind=pattern))
        with pytest.raises(ValueError, match=f"{name} must be >= 0"):
            RepEx(config, **{name: value})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"checkpoint_every": 1},
            {"stop_after_cycle": 1},
        ],
    )
    def test_async_pattern_rejects_cycle_granular_flags(self, kwargs):
        config = small_tremd_config(pattern=PatternSpec(kind="asynchronous"))
        with pytest.raises(CheckpointError, match="synchronous"):
            RepEx(config, **kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"checkpoint_every_s": 100.0},
            {"stop_after_checkpoint": 1},
        ],
    )
    def test_sync_pattern_rejects_quiesce_flags(self, kwargs):
        with pytest.raises(CheckpointError, match="quiesce"):
            RepEx(small_tremd_config(), **kwargs)


class TestContentChecksum:
    """Silent corruption — bit flips that still parse — must not load."""

    def test_every_snapshot_carries_a_checksum(self, tmp_path):
        repex, _ = checkpointed_run(tmp_path)
        data = json.loads(repex.checkpoints[0].to_json())
        assert data["checksum"] == Checkpoint._content_checksum(data)

    @pytest.mark.parametrize("kind", ["sync", "async", "obs-off"])
    def test_to_json_equals_the_two_dump_definition(self, tmp_path, kind):
        """Encoding each field once writes exactly the text of the
        definition: dump without ``checksum``, hash it, dump again with
        the checksum added."""
        if kind == "async":
            repex, _ = async_checkpointed_run(tmp_path)
        else:
            kwargs = {"registry": NullRegistry()} if kind == "obs-off" else {}
            config = small_tremd_config(n_cycles=4)
            repex = RepEx(
                config,
                checkpoint_every=2,
                checkpoint_dir=tmp_path / "ckpts",
                **kwargs,
            )
            repex.run()
        ckpt = repex.checkpoints[0]
        assert (ckpt.obs is None) == (kind == "obs-off")
        data = {f.name: getattr(ckpt, f.name) for f in fields(ckpt)}
        del data["checksum"]
        canonical = json.dumps(data, default=_json_default, sort_keys=True)
        data["checksum"] = hashlib.sha256(canonical.encode()).hexdigest()
        expected = json.dumps(data, default=_json_default, sort_keys=True)
        text = ckpt.to_json()
        assert text == expected
        # and one flipped byte still fails the checksum
        flipped = text.replace('"next_cycle": 2', '"next_cycle": 3', 1)
        if kind == "async":
            flipped = text.replace('"sweep": ', '"sweep": 1', 1)
        assert flipped != text
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            Checkpoint.from_json(flipped)

    def test_bit_flip_in_a_value_is_rejected(self, tmp_path):
        repex, _ = checkpointed_run(tmp_path)
        data = json.loads(repex.checkpoints[0].to_json())
        # structurally valid, physically wrong: exactly what a flipped
        # bit on disk looks like after it survives the JSON parser
        data["accounting"]["n_failures"] += 1
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            Checkpoint.from_json(json.dumps(data))

    def test_corrupted_file_error_names_the_path(self, tmp_path):
        repex, _ = checkpointed_run(tmp_path)
        path = tmp_path / "ckpts" / "cycle_0002.json"
        data = json.loads(path.read_text())
        data["next_cycle"] += 1
        path.write_text(json.dumps(data))
        with pytest.raises(
            CheckpointError, match=rf"corrupt checkpoint at {path}"
        ):
            Checkpoint.load(path)

    def test_truncated_file_error_names_the_path(self, tmp_path):
        repex, _ = checkpointed_run(tmp_path)
        path = tmp_path / "ckpts" / "latest.json"
        text = path.read_text()
        path.write_text(text[: len(text) // 2])
        with pytest.raises(
            CheckpointError, match=rf"corrupt checkpoint at {path}"
        ):
            Checkpoint.load(path)

    def test_damaged_latest_pointer_fails_loudly(self, tmp_path):
        checkpointed_run(tmp_path)
        latest = tmp_path / "ckpts" / "latest.json"
        for text, message in (
            ('{"snapshot": "cycle_0009.json"}', "cycle_0009.json"),
            ("[1, 2]", rf"corrupt checkpoint at {latest}"),
            ('{"snap', rf"corrupt checkpoint at {latest}"),
        ):
            latest.write_text(text)
            with pytest.raises(CheckpointError, match=message):
                Checkpoint.load(latest)

    def test_schema_4_latest_copy_is_refused_by_version(self, tmp_path):
        """A ``latest.json`` written before it became a pointer is a full
        schema-4 snapshot: it gets the version message."""
        repex, _ = checkpointed_run(tmp_path)
        data = json.loads(repex.checkpoints[0].to_json())
        data["schema_version"] = 4
        latest = tmp_path / "ckpts" / "latest.json"
        latest.write_text(json.dumps(data))
        with pytest.raises(CheckpointError, match="schema version 4"):
            Checkpoint.load(latest)

    def test_checksumless_file_is_rejected(self, tmp_path):
        # every snapshot is written with a checksum; one without
        # cannot vouch for its content or its journal prefix
        repex, _ = checkpointed_run(tmp_path)
        data = json.loads(repex.checkpoints[0].to_json())
        del data["checksum"]
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            Checkpoint.from_json(json.dumps(data))


class TestAsyncCheckpoint:
    def test_quiesce_snapshots_written(self, tmp_path):
        repex, result = async_checkpointed_run(tmp_path)
        assert len(repex.checkpoints) >= 2
        ckpt_dir = tmp_path / "ckpts"
        for i, ckpt in enumerate(repex.checkpoints, start=1):
            assert ckpt.pattern == "asynchronous"
            assert ckpt.schema_version == SCHEMA_VERSION
            assert ckpt.async_state is not None
            assert (ckpt_dir / f"quiesce_{i:04d}.json").exists()
        assert json.loads((ckpt_dir / "latest.json").read_text()) == {
            "snapshot": f"quiesce_{len(repex.checkpoints):04d}.json"
        }

    def test_async_state_block_is_consistent(self, tmp_path):
        repex, _ = async_checkpointed_run(tmp_path)
        state = repex.checkpoints[0].async_state
        assert state["n_quiesces"] == 1
        cycles_done = {int(k): v for k, v in state["cycles_done"].items()}
        assert set(cycles_done) == {0, 1, 2, 3}
        # nothing is in flight at the quiet point, so every replica is
        # parked either in the exchange-candidate pool or the deferred
        # launch queue (order is part of the snapshot: it pins event
        # sequencing on resume)
        parked = set(state["pool"]) | set(state["deferred"])
        assert parked <= set(cycles_done)
        assert repex.checkpoints[0].next_cycle == min(cycles_done.values())

    def test_stop_after_checkpoint_interrupts(self, tmp_path):
        repex, result = async_checkpointed_run(
            tmp_path, stop_after_checkpoint=1
        )
        assert result.interrupted
        assert len(repex.checkpoints) == 1

    def test_capture_async_requires_full_state_block(self, tmp_path):
        repex, _ = async_checkpointed_run(tmp_path)
        ckpt = repex.checkpoints[0]
        data = json.loads(ckpt.to_json())
        del data["async_state"]["pool"]
        with pytest.raises(CheckpointError, match="pool"):
            Checkpoint.from_json(json.dumps(data))

    def test_pattern_mismatch_rejected_both_ways(self, tmp_path):
        sync_repex, _ = checkpointed_run(tmp_path / "s")
        async_repex, _ = async_checkpointed_run(tmp_path / "a")
        sync_ckpt = sync_repex.checkpoints[0]
        async_ckpt = async_repex.checkpoints[0]
        async_cfg = small_tremd_config(
            n_cycles=4, pattern=PatternSpec(kind="asynchronous")
        )
        with pytest.raises(CheckpointError, match="pattern"):
            RepEx(async_cfg, resume_from=sync_ckpt)
        with pytest.raises(CheckpointError, match="pattern"):
            RepEx(small_tremd_config(n_cycles=4), resume_from=async_ckpt)

    def test_obs_blob_captured(self, tmp_path):
        repex, _ = async_checkpointed_run(tmp_path)
        obs = repex.checkpoints[0].obs
        assert obs is not None
        assert obs["registry"]["counters"]["checkpoint.captured"] == 1.0
        assert repex.checkpoints[0].journaled()["rows"], (
            "unit trace must be captured"
        )


class TestSchemaV1Upgrade:
    """Only schema 5 loads (see test_rejects_other_schema_version)."""

    def test_supported_versions_documented(self):
        assert SUPPORTED_VERSIONS == (5,)
        assert SCHEMA_VERSION == 5


class TestAtomicSave:
    def test_no_tmp_files_left_behind(self, tmp_path):
        repex, _ = checkpointed_run(tmp_path)
        assert not list((tmp_path / "ckpts").glob("*.tmp"))

    def test_failed_write_preserves_existing_snapshot(
        self, tmp_path, monkeypatch
    ):
        repex, _ = checkpointed_run(tmp_path)
        target = tmp_path / "ckpts" / "latest.json"
        before = target.read_text()

        import repro.core.checkpoint as ckpt_mod

        def exploding_replace(src, dst):
            raise OSError("kill between write and rename")

        monkeypatch.setattr(ckpt_mod.os, "replace", exploding_replace)
        with pytest.raises(OSError):
            repex.checkpoints[0].save(target)
        # the half-written data never reached the real name
        assert target.read_text() == before
        Checkpoint.load(target)


class TestJournal:
    """The snapshot stays small; what grows is journaled exactly once."""

    def test_snapshot_records_its_journal_prefix(self, tmp_path):
        checkpointed_run(tmp_path)
        ckpt_dir = tmp_path / "ckpts"
        journal = (ckpt_dir / JOURNAL_NAME).read_bytes()
        data = json.loads((ckpt_dir / "cycle_0002.json").read_text())
        assert data["journal"] == {
            "bytes": len(journal),
            "sha256": hashlib.sha256(journal).hexdigest(),
        }

    @pytest.mark.parametrize("damage", ["flip", "truncate", "delete"])
    def test_damaged_prefix_fails_naming_the_journal(self, tmp_path, damage):
        ckpt_dir = tmp_path / "ckpts"
        RepEx(
            small_tremd_config(n_cycles=4),
            checkpoint_every=1,
            checkpoint_dir=ckpt_dir,
        ).run()
        path = ckpt_dir / "cycle_0002.json"
        journal = ckpt_dir / JOURNAL_NAME
        prefix = json.loads(path.read_text())["journal"]["bytes"]
        data = bytearray(journal.read_bytes())
        assert len(data) > prefix
        if damage == "flip":
            data[prefix // 2] ^= 0x01
            journal.write_bytes(bytes(data))
        elif damage == "truncate":
            journal.write_bytes(bytes(data[: prefix - 1]))
        else:
            journal.unlink()
        with pytest.raises(CheckpointError, match=JOURNAL_NAME):
            Checkpoint.load(path)
        with pytest.raises(CheckpointError, match=JOURNAL_NAME):
            RepEx(small_tremd_config(n_cycles=4), resume_from=path)

    def test_snapshot_without_its_journal_cannot_resume(self, tmp_path):
        repex, _ = checkpointed_run(tmp_path)
        bare = Checkpoint.from_json(repex.checkpoints[0].to_json())
        with pytest.raises(CheckpointError, match="no journal"):
            RepEx(small_tremd_config(n_cycles=4), resume_from=bare).run()

    def test_staging_leaves_nothing_in_snapshot_or_journal(self, tmp_path):
        # staged files cost transfer time and bump two counters; no
        # ledger of them is kept, so none is checkpointed
        RepEx(
            small_tremd_config(n_cycles=4),
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
        ).run()
        for path in sorted(tmp_path.glob("cycle_*.json")):
            assert "staging" not in json.loads(path.read_text())
        lines = (tmp_path / JOURNAL_NAME).read_text().splitlines()
        assert len(lines) == 3
        for line in lines:
            assert set(json.loads(line)) == {
                "faults", "history", "proposals", "rows", "samples",
                "spans", "timings",
            }

    def test_rows_are_the_manifest_rows(self, tmp_path):
        """The journal holds the run log's v4 unit rows, and the snapshot
        its phase sums."""
        result = RepEx(
            small_tremd_config(n_cycles=4),
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
        ).run()
        by_name = {row["name"]: row for row in result.manifest.units}
        ckpt = Checkpoint.load(tmp_path / "latest.json")
        rows = ckpt.journaled()["rows"]
        assert 0 < len(rows) < len(by_name)
        assert all(row == by_name[row["name"]] for row in rows)
        totals = ckpt.obs["phase_totals"]
        assert set(totals) == set(result.manifest.phase_totals)
        assert 0 < totals["md"] < result.manifest.phase_totals["md"]

    def test_snapshots_stay_flat_while_the_journal_grows(self, tmp_path):
        repex = RepEx(
            small_tremd_config(n_cycles=8),
            checkpoint_every=1,
            checkpoint_dir=tmp_path,
        )
        repex.run()
        first = (tmp_path / "cycle_0001.json").stat().st_size
        last = (tmp_path / "cycle_0007.json").stat().st_size
        assert last <= 1.10 * first
        prefixes = [c.journal["bytes"] for c in repex.checkpoints]
        assert prefixes == sorted(set(prefixes))
        assert (tmp_path / JOURNAL_NAME).stat().st_size == prefixes[-1]

    def test_each_item_is_journaled_once(self, tmp_path):
        """Seven captures journal what one capture at the same point
        would, give or take per-line framing."""
        config = small_tremd_config(n_cycles=8)
        every = RepEx(config, checkpoint_every=1)
        every.run()
        once = RepEx(config, checkpoint_every=7)
        once.run()
        assert [c.next_cycle for c in once.checkpoints] == [7]
        assert every.checkpoints[-1].journaled() == once.checkpoints[
            0
        ].journaled()
        assert (
            every.checkpoints[-1].journal["bytes"]
            <= 1.10 * once.checkpoints[0].journal["bytes"]
        )
