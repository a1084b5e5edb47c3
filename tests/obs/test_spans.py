"""Tests for span tracing on the virtual clock."""

from repro.core import RepEx
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import SpanRecord
from repro.pilot import EventQueue
from tests.conftest import small_tremd_config


def make_registry(clock):
    registry = MetricsRegistry()
    registry.bind_clock(clock)
    return registry


class TestSpan:
    def test_span_measures_virtual_time(self, clock):
        registry = make_registry(clock)
        clock.schedule(5.0, lambda: None)
        span = registry.begin_span("md", cycle=1)
        clock.run()
        record = span.end()
        assert record.t_start == 0.0
        assert record.t_end == 5.0
        assert record.duration == 5.0
        assert record.tags == {"cycle": 1}
        assert registry.spans == [record]

    def test_context_manager_records_on_exit(self, clock):
        registry = make_registry(clock)
        with registry.span("exchange", sweep=3):
            clock.schedule(2.0, lambda: None)
            clock.run()
        (record,) = registry.spans
        assert record.name == "exchange"
        assert record.duration == 2.0
        assert record.tags["sweep"] == 3

    def test_end_is_idempotent(self, clock):
        registry = make_registry(clock)
        span = registry.begin_span("cycle")
        first = span.end()
        assert first is not None
        assert span.end() is None
        assert len(registry.spans) == 1


class TestSpanRecord:
    def test_round_trip(self):
        record = SpanRecord("md", 1.0, 3.5, {"cycle": 2, "pattern": "sync"})
        rebuilt = SpanRecord.from_dict(record.to_dict())
        assert rebuilt == record

    def test_duration_never_negative(self):
        assert SpanRecord("x", 5.0, 3.0, {}).duration == 0.0

    def test_from_dict_defaults_tags(self):
        record = SpanRecord.from_dict(
            {"name": "md", "t_start": 0, "t_end": 1}
        )
        assert record.tags == {}
        assert record.duration == 1.0


class TestSpanLineage:
    """The v2 span fields: span_id / parent_id / unit."""

    def test_registry_assigns_deterministic_span_ids(self, clock):
        registry = make_registry(clock)
        a = registry.begin_span("cycle")
        b = registry.begin_span("md", parent=a)
        assert a.span_id == "sp00000"
        assert b.span_id == "sp00001"
        assert b.parent_id == a.span_id
        # a fresh registry (the next run's) numbers from the start again
        assert make_registry(clock).begin_span("cycle").span_id == "sp00000"

    def test_parent_accepts_span_or_id(self, clock):
        registry = make_registry(clock)
        parent = registry.begin_span("cycle")
        by_span = registry.begin_span("md", parent=parent).end()
        by_id = registry.begin_span("md", parent=parent.span_id).end()
        assert by_span.parent_id == by_id.parent_id == parent.span_id

    def test_unit_field_settable_after_creation(self, clock):
        registry = make_registry(clock)
        span = registry.begin_span("exchange")
        span.unit = "ex_temperature_c0000"
        assert span.end().unit == "ex_temperature_c0000"

    def test_lineage_round_trips(self):
        record = SpanRecord(
            "md", 0.0, 1.0, {"cycle": 0},
            span_id="sp00003", parent_id="sp00001", unit="md_r00000_c0000",
        )
        data = record.to_dict()
        assert data["span_id"] == "sp00003"
        assert SpanRecord.from_dict(data) == record

    def test_to_dict_omits_absent_lineage(self):
        """v1 consumers must not see new keys on lineage-free spans."""
        data = SpanRecord("md", 0.0, 1.0, {}).to_dict()
        assert set(data) == {"name", "t_start", "t_end", "tags"}

    def test_round_trip_over_golden_run(self):
        """Every span of a real run survives to_dict/from_dict exactly,
        and the EMM wires md/exchange spans to their cycle span."""
        result = RepEx(small_tremd_config()).run()
        manifest = result.manifest
        for record in manifest.spans:
            assert SpanRecord.from_dict(record.to_dict()) == record
        cycle_ids = {
            s.tags["cycle"]: s.span_id for s in manifest.spans_named("cycle")
        }
        for name in ("md", "exchange"):
            for span in manifest.spans_named(name):
                assert span.parent_id == cycle_ids[span.tags["cycle"]]
        for span in manifest.spans_named("exchange"):
            assert span.unit and span.unit.startswith("ex_")

