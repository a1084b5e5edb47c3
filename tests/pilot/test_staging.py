"""Tests for staging directives."""

import pytest

from repro.pilot.staging import (
    StagingAction,
    StagingDirective,
    total_staging_size,
)


class TestStagingDirective:
    def test_defaults_to_copy(self):
        d = StagingDirective("a", "b", 1.0)
        assert d.action is StagingAction.COPY

    def test_rejects_negative_size(self):
        with pytest.raises(ValueError):
            StagingDirective("a", "b", -1.0)

    def test_rejects_empty_paths(self):
        with pytest.raises(ValueError):
            StagingDirective("", "b", 1.0)
        with pytest.raises(ValueError):
            StagingDirective("a", "", 1.0)


class TestTotalStagingSize:
    def test_links_are_free(self):
        directives = [
            StagingDirective("a", "b", 5.0, StagingAction.LINK),
            StagingDirective("c", "d", 2.0, StagingAction.COPY),
            StagingDirective("e", "f", 3.0, StagingAction.MOVE),
        ]
        assert total_staging_size(directives) == pytest.approx(5.0)

    def test_empty(self):
        assert total_staging_size([]) == 0.0
