"""Tests for trace export: Chrome Trace Event JSON and OpenMetrics text."""

import json
from collections import defaultdict

import pytest

from repro.core import RepEx
from repro.obs.export import (
    PID_CORES,
    escape_label_value,
    format_label,
    split_label_pairs,
    unescape_label_value,
    PID_PHASES,
    PID_REPLICAS,
    REQUIRED_EVENT_KEYS,
    chrome_trace,
    openmetrics,
    unit_intervals,
    validate_chrome_trace,
)
from tests.conftest import small_tremd_config


@pytest.fixture(scope="module")
def manifest():
    return RepEx(small_tremd_config()).run().manifest


@pytest.fixture(scope="module")
def trace(manifest):
    return chrome_trace(manifest)


class TestChromeTrace:
    def test_schema_valid(self, trace):
        assert validate_chrome_trace(trace) == len(trace["traceEvents"])
        for event in trace["traceEvents"]:
            for key in REQUIRED_EVENT_KEYS:
                assert key in event

    def test_deterministic(self, trace):
        """Acceptance criterion: same seed -> byte-identical trace JSON."""
        again = chrome_trace(RepEx(small_tremd_config()).run().manifest)
        assert json.dumps(trace, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_metadata_events_lead(self, trace):
        events = trace["traceEvents"]
        phases = [e["ph"] for e in events]
        assert "M" in phases and "X" in phases
        assert phases == sorted(phases, key=lambda p: p != "M")

    def test_phase_lane_carries_algorithm_spans(self, trace, manifest):
        names = {
            e["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] == PID_PHASES
        }
        assert {"cycle", "md", "exchange"} <= names
        span_ids = [
            e["args"]["span_id"]
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["pid"] == PID_PHASES
        ]
        assert len(span_ids) == len(set(span_ids)) == len(manifest.spans)

    def test_one_lane_per_replica(self, trace, manifest):
        lanes = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M"
            and e["pid"] == PID_REPLICAS
            and e["name"] == "thread_name"
        }
        assert lanes == {f"replica {r}" for r in range(manifest.n_replicas)}

    def test_core_lane_is_consistent(self, trace, manifest):
        """Core slices never exceed the pilot's cores or overlap in-lane."""
        by_core = defaultdict(list)
        for e in trace["traceEvents"]:
            if e["ph"] == "X" and e["pid"] == PID_CORES:
                by_core[e["tid"]].append((e["ts"], e["ts"] + e["dur"]))
        assert by_core
        assert len(by_core) <= manifest.pilot_cores
        for slices in by_core.values():
            slices.sort()
            for (_, end), (start, _) in zip(slices, slices[1:]):
                assert start >= end

    def test_other_data_identifies_run(self, trace, manifest):
        other = trace["otherData"]
        assert other["title"] == manifest.title
        assert other["config_hash"] == manifest.config_hash
        assert other["schema_version"] == manifest.schema_version


class TestValidate:
    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})

    def test_rejects_event_missing_keys(self):
        doc = {"traceEvents": [{"ph": "X", "ts": 0, "pid": 1}]}
        with pytest.raises(ValueError, match="missing keys"):
            validate_chrome_trace(doc)

    def test_rejects_negative_duration(self):
        doc = {
            "traceEvents": [
                {"ph": "X", "ts": 0, "dur": -5, "pid": 1, "tid": 1, "name": "x"}
            ]
        }
        with pytest.raises(ValueError, match="negative dur"):
            validate_chrome_trace(doc)


class TestUnitHelpers:
    def test_intervals_rebuild_lifecycle(self, manifest):
        intervals = unit_intervals(manifest)
        assert len(intervals) == manifest.n_units
        for chain in intervals.values():
            states = [state for state, _, _ in chain]
            assert "EXECUTING" in states
            for (_, _, end), (_, start, _) in zip(chain, chain[1:]):
                assert start == end  # contiguous, causal



class TestOpenMetrics:
    def test_exposition_shape(self, manifest):
        text = openmetrics(manifest)
        assert text.endswith("# EOF\n")
        assert "# TYPE emm_cycles counter" in text
        assert "emm_cycles_total 2.0" in text
        assert "# TYPE emm_cycle_seconds summary" in text
        assert 'emm_cycle_seconds{quantile="0.5"}' in text
        assert "emm_cycle_seconds_count" in text

    def test_labelled_counters_become_label_sets(self, manifest):
        text = openmetrics(manifest)
        assert 'exchange_attempted_total{dim="temperature"}' in text
        assert "{dim=temperature}" not in text  # registry syntax never leaks

    def test_empty_manifest_is_just_eof(self, manifest):
        import dataclasses

        empty = dataclasses.replace(manifest, metrics={})
        assert openmetrics(empty) == "# EOF\n"


class TestLabelEscaping:
    """OpenMetrics label escaping round-trips `"`, `\\` and newlines."""

    NASTY = [
        'acme "west"',
        "back\\slash",
        "multi\nline",
        'all\\three "of\nthem"',
        "comma, equals=, braces{}",
    ]

    def test_escape_unescape_round_trip(self):
        for raw in self.NASTY:
            escaped = escape_label_value(raw)
            assert "\n" not in escaped  # expositions are line-oriented
            assert unescape_label_value(escaped) == raw

    def test_format_label_keeps_simple_values_bare(self):
        assert format_label("dim", "temperature") == "dim=temperature"
        assert format_label("window", 3) == "window=3"

    def test_format_label_quotes_and_split_recovers(self):
        # split_label_pairs returns raw (already-unescaped) values
        for raw in self.NASTY:
            assert split_label_pairs(format_label("tenant", raw)) == [
                ("tenant", raw)
            ]

    def test_split_handles_mixed_quoted_and_bare_pairs(self):
        labels = 'dim=temperature,tenant="acme \\"west\\"",window=2'
        assert split_label_pairs(labels) == [
            ("dim", "temperature"),
            ("tenant", 'acme "west"'),
            ("window", "2"),
        ]

    def test_nasty_labels_render_to_valid_exposition(self):
        """A registry carrying hostile tenant names still exports clean
        OpenMetrics text that the validator accepts."""
        from repro.obs.export import openmetrics_snapshot, validate_openmetrics
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        for raw in self.NASTY:
            name = "campaign.sessions{" + format_label("tenant", raw) + "}"
            registry.counter(name).inc()
        text = openmetrics_snapshot(registry.snapshot())
        assert validate_openmetrics(text) == len(self.NASTY)
        # every raw value survives the exposition round trip
        recovered = set()
        for line in text.splitlines():
            if line.startswith("campaign_sessions_total{"):
                body = line[line.index("{") + 1 : line.rindex("}")]
                for key, value in split_label_pairs(body):
                    if key == "tenant":
                        recovered.add(value)
        assert recovered == set(self.NASTY)
