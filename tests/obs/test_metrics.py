"""Tests for the metrics registry: instruments, snapshots, clock binding."""

import json

import pytest

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    NullRegistry,
)
from repro.pilot import EventQueue


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestInstruments:
    def test_counter_increments(self):
        c = Counter("x")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_counter_rejects_negative(self):
        c = Counter("x")
        with pytest.raises(MetricError, match="cannot decrease"):
            c.inc(-1.0)

    def test_gauge_moves_both_ways(self):
        g = Gauge("x")
        g.set(10)
        g.inc(2)
        g.dec(5)
        assert g.value == 7.0

    def test_histogram_summary_stats(self):
        h = Histogram("x")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 10.0
        assert h.mean == 2.5
        d = h.to_dict()
        assert d["min"] == 1.0 and d["max"] == 4.0
        assert d["p50"] == 2.5

    def test_histogram_quantile_interpolates(self):
        h = Histogram("x")
        for v in (0.0, 10.0):
            h.observe(v)
        assert h.quantile(0.0) == 0.0
        assert h.quantile(0.5) == 5.0
        assert h.quantile(1.0) == 10.0
        assert h.quantile(0.25) == 2.5

    def test_histogram_empty_quantile_is_zero(self):
        assert Histogram("x").quantile(0.9) == 0.0

    def test_histogram_quantile_range_checked(self):
        h = Histogram("x")
        with pytest.raises(MetricError, match="quantile"):
            h.quantile(1.5)


class TestRegistry:
    def test_get_or_create_returns_same_object(self, registry):
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_cross_type_name_clash_raises(self, registry):
        registry.counter("emm.cycles")
        with pytest.raises(MetricError, match="already registered"):
            registry.gauge("emm.cycles")
        with pytest.raises(MetricError, match="already registered"):
            registry.histogram("emm.cycles")

    def test_snapshot_is_json_serializable(self, registry):
        registry.counter("z.count").inc(2)
        registry.gauge("a.depth").set(4)
        registry.histogram("m.wait").observe(1.5)
        snap = registry.snapshot()
        text = json.dumps(snap)
        assert json.loads(text) == snap
        assert snap["counters"] == {"z.count": 2.0}
        assert snap["gauges"] == {"a.depth": 4.0}
        assert snap["histograms"]["m.wait"]["count"] == 1

    def test_bind_clock_accepts_callable_and_object(self, registry):
        assert not registry.clock_bound
        registry.bind_clock(lambda: 42.0)
        assert registry.now() == 42.0
        assert registry.clock_bound
        clock = EventQueue()
        other = MetricsRegistry()
        other.bind_clock(clock)
        assert other.now() == clock.now

    @pytest.mark.parametrize("cls", [MetricsRegistry, NullRegistry])
    def test_a_registry_binds_one_clock(self, cls):
        # a registry serves one run: a second binding is refused and
        # leaves the first clock in place
        registry = cls()
        registry.bind_clock(lambda: 1.0)
        with pytest.raises(MetricError, match="already bound"):
            registry.bind_clock(lambda: 2.0)
        assert registry.now() == 1.0


class TestNullRegistry:
    def test_disabled_and_shared_noop(self):
        null = NullRegistry()
        assert null.enabled is False
        c = null.counter("anything")
        assert c is null.gauge("other") is null.histogram("third")
        c.inc(5)
        c.observe(1.0)
        c.set(3)
        assert c.value == 0.0 and c.count == 0

    def test_null_span_never_reads_clock(self):
        null = NullRegistry()

        def explode():
            raise AssertionError("clock read on the null path")

        null.bind_clock(explode)
        span = null.begin_span("cycle", cycle=0)
        assert span.end() is None
        assert null.spans == []

