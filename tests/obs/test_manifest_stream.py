"""Incremental manifest streaming and fault events in manifests."""

import json
from pathlib import Path

import pytest

from repro.core import RepEx
from repro.core.config import (
    FailureSpec,
    PatternSpec,
    ResourceSpec,
    SimulationConfig,
)
from repro.obs.critical_path import decomposition
from repro.obs.manifest import STATE_ORDER, ManifestStream, RunManifest
from repro.obs.metrics import MetricsRegistry
from repro.pilot.events import SimulatedCrash
from repro.pilot.faultdomain import FaultEvent
from repro.pilot.unit import ComputeUnit, UnitDescription, UnitState
from tests.conftest import small_tremd_config

TREMD = Path(__file__).resolve().parents[2] / "examples" / "configs" / "tremd.json"


def run_streamed(path, config, **kwargs):
    return RepEx(config, manifest_path=path, **kwargs).run()


def relaunch_config(pattern):
    """A small run whose failed MD units are relaunched under their name."""
    return small_tremd_config(
        n_cycles=3,
        pattern=PatternSpec(kind=pattern),
        failure=FailureSpec(probability=0.3, policy="relaunch"),
    )


def assert_redumps(tmp_path, stream, manifest):
    """``stream``, loaded and dumped again, is ``manifest``'s dump byte
    for byte; returns the dump's bytes."""
    dump = manifest.dump(tmp_path / "dump.jsonl").read_bytes()
    redump = RunManifest.load(stream).dump(tmp_path / "redump.jsonl")
    assert redump.read_bytes() == dump
    return dump


def assert_stream_loads_like_dump(tmp_path, config):
    path = tmp_path / "run.jsonl"
    result = run_streamed(path, config)
    assert result.manifest.metrics["counters"]["emm.relaunches"] > 0
    # the attempts of a relaunched unit share its name: the dump keeps
    # them in finish order, the order the stream wrote them in
    assert_redumps(tmp_path, path, result.manifest)
    loaded = RunManifest.load(path)
    dumped = RunManifest.load(tmp_path / "dump.jsonl")
    assert not loaded.partial
    # the stream writes each unit's row as the unit finishes, the dump
    # all rows at the end in name order: both load to the same rows
    assert loaded.units == dumped.units
    assert loaded.timeline == dumped.timeline == result.manifest.timeline
    assert loaded == dumped
    kinds = [json.loads(line)["kind"] for line in path.read_text().splitlines()]
    assert "event" not in kinds
    assert kinds.count("unit") == len(dumped.units)


class TestStreamedRun:
    def test_finalized_stream_loads_like_a_manifest(self, tmp_path):
        assert_stream_loads_like_dump(tmp_path, relaunch_config("synchronous"))

    def test_finalized_async_stream_loads_like_a_manifest(self, tmp_path):
        assert_stream_loads_like_dump(
            tmp_path, relaunch_config("asynchronous")
        )

    def test_fault_events_streamed_and_kept(self, tmp_path):
        path = tmp_path / "run.jsonl"
        config = small_tremd_config(
            failure=FailureSpec(
                policy="continue",
                staging_fault_probability=0.3,
                staging_max_retries=6,
            )
        )
        result = run_streamed(path, config)
        loaded = RunManifest.load(path)
        assert loaded.fault_events  # transients occurred and were recorded
        assert loaded.fault_events == result.manifest.fault_events
        assert all(e["fault"] == "staging_fault" for e in loaded.fault_events)

    def test_unfinalized_stream_is_a_partial_manifest(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        config = small_tremd_config()
        stream = ManifestStream(path, config)
        unit = ComputeUnit(
            UnitDescription(
                name="md_r0_c0",
                cores=2,
                metadata={"phase": "md", "rid": 0, "cycle": 0},
            )
        )
        for state, t in (
            (UnitState.SCHEDULING, 0.5),
            (UnitState.STAGING_INPUT, 0.75),
            (UnitState.AGENT_EXECUTING_PENDING, 1.0),
            (UnitState.EXECUTING, 1.25),
        ):
            unit.advance(state, t)
        stream.on_unit(unit)  # still in flight
        stream.on_fault(
            FaultEvent(t=2.0, kind="node_crash", detail={"node": 1})
        )
        stream.close()  # crash: no finalize
        loaded = RunManifest.load(path)
        assert loaded.partial
        assert [tuple(e) for e in loaded.timeline] == [
            (0.5, "md_r0_c0", "SCHEDULING"),
            (0.75, "md_r0_c0", "STAGING_INPUT"),
            (1.0, "md_r0_c0", "AGENT_EXECUTING_PENDING"),
            (1.25, "md_r0_c0", "EXECUTING"),
        ]
        (row,) = loaded.units
        assert row["cores"] == 2
        assert row["final_state"] is None
        # the provisional header holds no totals: they come from the row
        assert loaded.n_units == 1
        assert loaded.t_end == 1.25
        assert loaded.phase_totals == {
            "md": 0.0, "exchange": 0.0, "staging": 0.5,
            "overhead": 1.0, "other": 0.0,
        }
        assert loaded.fault_events == [
            {"t": 2.0, "fault": "node_crash", "node": 1}
        ]
        assert any("PARTIAL" in line for line in loaded.summary_lines())

    def test_stream_is_flushed_while_in_flight(self, tmp_path):
        # the provisional header alone must be on disk immediately
        path = tmp_path / "header.jsonl"
        stream = ManifestStream(path, small_tremd_config())
        header = json.loads(path.read_text().splitlines()[0])
        assert header["kind"] == "run"
        assert header["partial"] is True
        assert header["title"] == "test-tremd"
        stream.close()

    def test_write_after_close_is_noop(self, tmp_path):
        path = tmp_path / "closed.jsonl"
        stream = ManifestStream(path, small_tremd_config())
        stream.close()
        unit = ComputeUnit(UnitDescription(name="u"))
        unit.advance(UnitState.CANCELED, 1.0)
        stream.on_unit(unit)  # must not raise
        stream.close()  # idempotent
        assert len(path.read_text().splitlines()) == 1


class TestKilledStream:
    """A run that raises leaves the rows of its finished units and of the
    units still in flight: a loadable post-mortem."""

    @pytest.fixture(scope="class")
    def killed(self, tmp_path_factory):
        data = json.loads(TREMD.read_text())
        data["resource"]["cores"] = 32
        data["cores_per_replica"] = 4
        config = SimulationConfig.from_json(json.dumps(data))
        path = tmp_path_factory.mktemp("killed") / "killed.jsonl"
        with pytest.raises(SimulatedCrash):
            run_streamed(path, config, crash_at_time=150.0)
        golden = RepEx(config).run().manifest
        return RunManifest.load(path), golden

    def test_rows_of_finished_and_in_flight_units(self, killed):
        manifest, _ = killed
        assert manifest.partial
        finals = {unit["final_state"] for unit in manifest.units}
        assert finals == {"DONE", None}
        for unit in manifest.units:
            assert len(unit["t"]) == len(STATE_ORDER)
            assert unit["cores"] == (4 if unit["phase"] == "md" else 1)

    def test_md_core_seconds_count_every_core(self, killed):
        manifest, _ = killed
        assert decomposition(manifest)["md"] == pytest.approx(3511.6, abs=0.05)

    def test_timeline_is_the_golden_prefix(self, killed):
        manifest, golden = killed
        assert manifest.timeline == [
            entry for entry in golden.timeline if entry[0] < 150.0
        ]


class TestResumedStream:
    """A resumed run's stream gets the restored units' rows at once, so
    it equals the uninterrupted run's manifest."""

    def run_resumed(self, tmp_path, config, stop, **checkpointing):
        golden = RepEx(config, **checkpointing).run().manifest
        first = RepEx(
            config, checkpoint_dir=tmp_path / "ck", **checkpointing, **stop
        ).run()
        assert first.interrupted
        path = tmp_path / "resumed.jsonl"
        run_streamed(
            path, config, resume_from=tmp_path / "ck" / "latest.json",
            **checkpointing,
        )
        return RunManifest.load(path), golden

    def test_sync_resume(self, tmp_path):
        loaded, golden = self.run_resumed(
            tmp_path, relaunch_config("synchronous"),
            {"stop_after_cycle": 2}, checkpoint_every=1,
        )
        assert loaded == RunManifest.from_jsonl(golden.to_jsonl())

    def test_async_resume(self, tmp_path):
        loaded, golden = self.run_resumed(
            tmp_path, relaunch_config("asynchronous"),
            {"stop_after_checkpoint": 1}, checkpoint_every_s=150.0,
        )
        assert loaded == RunManifest.from_jsonl(golden.to_jsonl())

    def test_resume_from_a_middle_checkpoint_redumps(self, tmp_path):
        # the restored rows reach the stream and the dump re-encoded, so
        # both are the uninterrupted run's dump byte for byte
        config = small_tremd_config(
            n_cycles=4,
            failure=FailureSpec(probability=0.3, policy="relaunch"),
        )
        golden = RepEx(
            config, checkpoint_every=1, checkpoint_dir=tmp_path / "ck"
        ).run()
        assert golden.manifest.metrics["counters"]["emm.relaunches"] > 0
        path = tmp_path / "resumed.jsonl"
        resumed = run_streamed(
            path, config, checkpoint_every=1,
            resume_from=tmp_path / "ck" / "cycle_0002.json",
        )
        dump = assert_redumps(tmp_path, path, resumed.manifest)
        golden_dump = golden.manifest.dump(tmp_path / "golden.jsonl")
        assert dump == golden_dump.read_bytes()


class TestFaultEventsRoundTrip:
    def test_to_jsonl_from_jsonl_keeps_fault_events(self, tmp_path):
        config = small_tremd_config(
            failure=FailureSpec(policy="continue", node_crashes=[[40.0, 0]]),
            resource=ResourceSpec("supermic", cores=40),
            cores_per_replica=5,
        )
        manifest = RepEx(config).run().manifest
        assert [e["fault"] for e in manifest.fault_events] == ["node_crash"]
        path = tmp_path / "m.jsonl"
        manifest.dump(path)
        loaded = RunManifest.load(path)
        assert loaded.fault_events == manifest.fault_events
        assert any(
            "fault events: 1" in line for line in loaded.summary_lines()
        )


class TestPerDimensionCounters:
    def test_labelled_exchange_counters_match_global(self):
        registry = MetricsRegistry()
        RepEx(small_tremd_config(), registry=registry).run()
        counters = registry.snapshot()["counters"]
        assert counters["exchange.attempted"] > 0
        assert (
            counters["exchange.attempted{dim=temperature}"]
            == counters["exchange.attempted"]
        )
        assert (
            counters.get("exchange.accepted{dim=temperature}", 0)
            == counters.get("exchange.accepted", 0)
        )

    def test_multidim_counters_split_by_dimension(self):
        from repro.core.config import DimensionSpec

        config = small_tremd_config(
            dimensions=[
                DimensionSpec("temperature", 2, 273.0, 373.0),
                DimensionSpec("umbrella", 2, 0.0, 360.0),
            ],
            n_cycles=4,
        )
        registry = MetricsRegistry()
        result = RepEx(config, registry=registry).run()
        counters = registry.snapshot()["counters"]
        per_dim = {
            name: counters.get(f"exchange.attempted{{dim={name}}}", 0)
            for name in result.exchange_stats
        }
        assert len(per_dim) == 2
        assert all(v > 0 for v in per_dim.values())
        assert sum(per_dim.values()) == counters["exchange.attempted"]
