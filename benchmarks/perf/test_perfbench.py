"""Tests of ``perfbench.py``'s command line.

Run with ``PYTHONPATH=src python -m pytest benchmarks/perf -q``.
"""

import json

import pytest

from perfbench import main
from repro.core import DimensionSpec, RepEx, ResourceSpec, SimulationConfig


class TestBenchAttribute:
    @pytest.fixture
    def result_pair(self, tmp_path):
        """Synthetic bench results with one regressing scenario."""
        paths = []
        for label, events_per_s in (("old", 1000.0), ("new", 400.0)):
            path = tmp_path / f"{label}.json"
            doc = {"_meta": {"schema": 1},
                   "tremd_sync": {"events_per_s": events_per_s}}
            path.write_text(json.dumps(doc))
            paths.append(str(path))
        return paths

    def manifest_dirs(self, tmp_path):
        """Two trace dirs whose manifests differ (2 vs 3 cycles)."""
        dirs = []
        for label, n_cycles in (("old", 2), ("new", 3)):
            config = SimulationConfig(
                dimensions=[DimensionSpec("temperature", 4, 273.0, 373.0)],
                resource=ResourceSpec("supermic", cores=4),
                n_cycles=n_cycles,
                numeric_steps=10,
                seed=1,
            )
            (tmp_path / label).mkdir()
            manifest = RepEx(config).run().manifest
            manifest.dump(tmp_path / label / "tremd_sync.manifest.jsonl")
            dirs.append(str(tmp_path / label))
        return dirs

    def test_regression_gets_phase_attribution(
        self, result_pair, tmp_path, capsys
    ):
        argv = ["--compare", *result_pair,
                "--attribute", *self.manifest_dirs(tmp_path)]
        assert main(argv) == 1  # the regression still fails the gate
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "phase.md" in out
        assert "wallclock_s" in out

    def test_missing_manifest_degrades_to_hint(
        self, result_pair, tmp_path, capsys
    ):
        argv = ["--compare", *result_pair,
                "--attribute", str(tmp_path / "a"), str(tmp_path / "b")]
        assert main(argv) == 1
        assert "attribution unavailable" in capsys.readouterr().out

    def test_no_attribution_without_flag(self, result_pair, capsys):
        assert main(["--compare", *result_pair]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "phase.md" not in out


class TestBenchProfile:
    def test_profile_prints_hotspots_and_writes_nothing(
        self, tmp_path, capsys
    ):
        out_path = tmp_path / "x.json"
        scenarios = ["chaos-preempt-256", "campaign-256"]
        argv = ["--fast", "--profile", "-o", str(out_path)]
        for name in scenarios:
            argv += ["--scenario", name]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for name in scenarios:
            assert out.count(f"(tottime) for {name} ---") == 1
        assert out.count("--- cProfile top") == len(scenarios)
        assert "host-time attribution" not in out
        assert "not saved" in out
        assert not out_path.exists()


def test_nonpositive_repeats_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--fast", "--repeats", "0"])
    assert exc.value.code == 2
    assert "--repeats must be >= 1" in capsys.readouterr().err
