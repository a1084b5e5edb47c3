"""Tests for the critical-path analytics."""

import dataclasses

import pytest

from repro.core import RepEx
from repro.core.config import FailureSpec, ResourceSpec
from repro.obs.critical_path import (
    KINDS,
    classify,
    critical_paths,
    cycle_windows,
    decomposition,
    render_report,
)
from tests.conftest import small_tremd_config


def async_config():
    cfg = small_tremd_config()
    return dataclasses.replace(
        cfg, pattern=dataclasses.replace(cfg.pattern, kind="asynchronous")
    )


@pytest.fixture(scope="module")
def sync_manifest():
    return RepEx(small_tremd_config()).run().manifest


@pytest.fixture(scope="module")
def async_manifest():
    return RepEx(async_config()).run().manifest


def assert_decomposition_matches(manifest):
    """Acceptance criterion: the timeline-derived decomposition equals
    the manifest's own phase_totals to within timeline rounding (the
    timeline stores timestamps rounded to 1 microsecond)."""
    decomp = decomposition(manifest)
    tolerance = max(1e-3, 1e-6 * len(manifest.timeline))
    assert set(decomp) == set(manifest.phase_totals)
    for phase, expected in manifest.phase_totals.items():
        assert decomp[phase] == pytest.approx(expected, abs=tolerance)


class TestDecomposition:
    def test_matches_phase_totals_sync(self, sync_manifest):
        assert_decomposition_matches(sync_manifest)

    def test_matches_phase_totals_async(self, async_manifest):
        assert_decomposition_matches(async_manifest)

    def test_matches_phase_totals_with_relaunched_units(self):
        """A relaunch reuses its unit's name; each attempt's row is its
        own interval chain, so no attempt's staging or waiting is lost."""
        config = small_tremd_config(
            resource=ResourceSpec("supermic", cores=40),
            failure=FailureSpec(node_crashes=[[150.0, 0]], policy="relaunch"),
        )
        manifest = RepEx(config).run().manifest
        names = [unit["name"] for unit in manifest.units]
        assert len(set(names)) < len(names)
        assert_decomposition_matches(manifest)


class TestWindows:
    def test_sync_windows_are_cycles(self, sync_manifest):
        windows = cycle_windows(sync_manifest)
        assert len(windows) == 2
        assert [name for name, *_ in windows] == ["cycle 0", "cycle 1"]
        for _, _, t0, t1, dimension in windows:
            assert t1 > t0
            assert dimension == "temperature"

    def test_async_windows_are_sweeps(self, async_manifest):
        windows = cycle_windows(async_manifest)
        assert windows
        assert all(name.startswith("sweep") for name, *_ in windows)

    def test_no_spans_falls_back_to_run_extent(self, sync_manifest):
        bare = dataclasses.replace(sync_manifest, spans=[])
        ((name, _, t0, t1, _),) = cycle_windows(bare)
        assert name == "run"
        assert (t0, t1) == (
            sync_manifest.timeline[0][0],
            sync_manifest.timeline[-1][0],
        )


class TestCriticalPaths:
    def test_segments_tile_each_window(self, sync_manifest):
        for path in critical_paths(sync_manifest):
            assert path.segments
            total = sum(s.duration for s in path.segments)
            assert total == pytest.approx(path.duration, abs=1e-3)
            for prev, nxt in zip(path.segments, path.segments[1:]):
                assert nxt.t_start == pytest.approx(prev.t_end, abs=1e-6)

    def test_totals_attribute_every_second(self, sync_manifest):
        for path in critical_paths(sync_manifest):
            totals = path.totals()
            assert set(totals) == set(KINDS)
            assert sum(totals.values()) == pytest.approx(
                path.duration, abs=1e-3
            )
            # MD dominates a T-REMD cycle's critical path (Fig. 5's point)
            assert totals["md"] > 0.5 * path.duration
            assert totals["idle"] >= 0.0

    def test_md_segments_name_real_units(self, sync_manifest):
        unit_names = {name for _, name, _ in sync_manifest.timeline}
        for path in critical_paths(sync_manifest):
            for seg in path.segments:
                if seg.kind == "idle":
                    assert seg.state is None
                else:
                    assert seg.label in unit_names


class TestClassify:
    def test_buckets(self):
        assert classify("EXECUTING", "md") == "md"
        assert classify("EXECUTING", "exchange") == "exchange"
        assert classify("EXECUTING", "single_point") == "exchange"
        assert classify("EXECUTING", None) == "other"
        assert classify("STAGING_INPUT", "md") == "staging"
        assert classify("STAGING_OUTPUT", "md") == "staging"
        assert classify("SCHEDULING", "md") == "overhead"
        assert classify("AGENT_EXECUTING_PENDING", "md") == "overhead"


class TestRenderReport:
    def test_report_renders_tables(self, sync_manifest):
        text = render_report(sync_manifest)
        assert "Critical path per cycle" in text
        assert "Phase decomposition" in text
        assert "cycle 0" in text and "cycle 1" in text
        assert "md_r" in text  # longest segments name actual units

    def test_max_segments_caps_listing(self, sync_manifest):
        short = render_report(sync_manifest, max_segments=1)
        assert len(short.splitlines()) < len(
            render_report(sync_manifest, max_segments=10).splitlines()
        )
