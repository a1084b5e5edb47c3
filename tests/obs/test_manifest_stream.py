"""Incremental manifest streaming and fault events in manifests."""

import json

from repro.core import RepEx
from repro.core.config import FailureSpec, ResourceSpec
from repro.obs.manifest import ManifestStream, RunManifest
from repro.obs.metrics import MetricsRegistry, using_registry
from repro.pilot.faultdomain import FaultEvent
from tests.conftest import small_tremd_config


def run_streamed(path, config):
    with using_registry(MetricsRegistry()):
        result = RepEx(config, manifest_path=path).run()
    return result


class TestStreamedRun:
    def test_finalized_stream_loads_like_a_manifest(self, tmp_path):
        path = tmp_path / "run.jsonl"
        config = small_tremd_config()
        result = run_streamed(path, config)
        loaded = RunManifest.load(path)
        dumped = RunManifest.load(result.manifest.dump(tmp_path / "dump.jsonl"))
        assert not loaded.partial
        assert loaded.title == "test-tremd"
        assert loaded.t_end == result.t_end
        # the stream carries transitions as events in causal firing order,
        # the dump as unit rows: both load to the same timeline
        assert loaded.timeline == dumped.timeline == result.manifest.timeline
        assert loaded.phase_totals == dumped.phase_totals
        assert loaded.n_units == dumped.n_units == len(dumped.units)
        assert loaded.units == [
            {k: v for k, v in unit.items() if k != "t"}
            for unit in dumped.units
        ]
        assert loaded.metrics == result.manifest.metrics
        # each transition appears exactly once in the streamed file
        records = [json.loads(line) for line in path.read_text().splitlines()]
        events = [
            (r["t"], r["unit"], r["state"])
            for r in records
            if r["kind"] == "event"
        ]
        assert sorted(events) == [tuple(e) for e in result.manifest.timeline]
        assert not any("t" in r for r in records if r["kind"] == "unit")

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
        stream.on_transition("md_r0_c0", "EXECUTING", 1.25)
        stream.on_fault(
            FaultEvent(t=2.0, kind="node_crash", detail={"node": 1})
        )
        stream.close()  # crash: no finalize
        loaded = RunManifest.load(path)
        assert loaded.partial
        assert [tuple(e) for e in loaded.timeline] == [
            (1.25, "md_r0_c0", "EXECUTING")
        ]
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
        stream.on_transition("u", "DONE", 1.0)  # must not raise
        stream.close()  # idempotent
        assert len(path.read_text().splitlines()) == 1


class TestFaultEventsRoundTrip:
    def test_to_jsonl_from_jsonl_keeps_fault_events(self, tmp_path):
        config = small_tremd_config(
            failure=FailureSpec(policy="continue", node_crashes=[[40.0, 0]]),
            resource=ResourceSpec("supermic", cores=40),
            cores_per_replica=5,
        )
        with using_registry(MetricsRegistry()):
            result = RepEx(config).run()
        manifest = result.manifest
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
        with using_registry(MetricsRegistry()) as registry:
            RepEx(small_tremd_config()).run()
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
        with using_registry(MetricsRegistry()) as registry:
            result = RepEx(config).run()
            counters = registry.snapshot()["counters"]
        per_dim = {
            name: counters.get(f"exchange.attempted{{dim={name}}}", 0)
            for name in result.exchange_stats
        }
        assert len(per_dim) == 2
        assert all(v > 0 for v in per_dim.values())
        assert sum(per_dim.values()) == counters["exchange.attempted"]
