"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def config_file(tmp_path):
    cfg = {
        "title": "cli-test",
        "resource": {"name": "supermic", "cores": 4},
        "dimensions": [
            {
                "kind": "temperature",
                "n_windows": 4,
                "min_value": 273.0,
                "max_value": 373.0,
            }
        ],
        "n_cycles": 2,
        "steps_per_cycle": 6000,
        "numeric_steps": 10,
        "seed": 1,
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def patch_config(cfg, path, value):
    """Set the dotted ``path`` of a config dict (``"engine.name"``,
    ``"dimensions.0.n_windows"``); a list index one past the end appends."""
    *parents, last = path.split(".")
    node = cfg
    for key in parents:
        node = node[int(key)] if isinstance(node, list) else node.setdefault(key, {})
    if isinstance(node, list) and int(last) == len(node):
        node.append(value)
    elif isinstance(node, list):
        node[int(last)] = value
    else:
        node[last] = value


#: config patches ``repro run`` cannot execute -> expected error text; both
#: ``check`` and ``run`` must reject them with exit code 2
CANNOT_RUN = {
    "negative-salt": (
        {"dimensions.1": {"kind": "salt", "n_windows": 2,
                          "min_value": -0.5, "max_value": 1.0}},
        "salt:",
    ),
    "negative-force-constant": (
        {"dimensions.1": {"kind": "umbrella", "n_windows": 2,
                          "min_value": 0.0, "max_value": 360.0,
                          "force_constant": -0.02}},
        "umbrella:",
    ),
    "unknown-angle": (
        {"dimensions.1": {"kind": "umbrella", "n_windows": 2,
                          "min_value": 0.0, "max_value": 360.0,
                          "angle": "omega"}},
        "umbrella:",
    ),
    "nonpositive-temperature": (
        {"dimensions.0.min_value": 0.0}, "temperature:"
    ),
    "unknown-pair-selector": ({"pair_selector": "nearest"}, "pair selector"),
    "unknown-engine": ({"engine.name": "gromacs"}, "MD engine"),
    "unknown-system": ({"engine.system": "trp-cage"}, "unknown system"),
    "unknown-cluster": ({"resource.name": "summit"}, "unknown cluster"),
    "cores-above-cluster": ({"resource.cores": 10_000}, "cores requested"),
    "gpus-above-cluster": ({"resource.gpus": 2}, "GPUs requested"),
    "cores-per-replica-above-pilot": (
        {"cores_per_replica": 8}, "cores_per_replica"
    ),
    "cores-per-replica-above-pilot-mode-ii": (
        {"cores_per_replica": 8, "execution_mode": "II"}, "cores_per_replica"
    ),
    "negative-seed": ({"seed": -1}, "seed"),
    "adaptive-min-cycles": ({"adaptive.min_cycles": 0}, "min_cycles"),
    "string-n-cycles": ({"n_cycles": "3"}, "n_cycles"),
    "fractional-n-windows": ({"dimensions.0.n_windows": 2.5}, "n_windows"),
    "string-pka": (
        {"dimensions.1": {"kind": "ph", "n_windows": 2, "min_value": 4.0,
                          "max_value": 6.0, "pka": "6.5"}},
        "pka",
    ),
    "async-salt": (
        {"pattern.kind": "asynchronous",
         "dimensions.1": {"kind": "salt", "n_windows": 2,
                          "min_value": 0.0, "max_value": 1.0}},
        "asynchronous pattern",
    ),
    "namd-salt": (
        {"engine.name": "namd",
         "dimensions.1": {"kind": "salt", "n_windows": 2,
                          "min_value": 0.0, "max_value": 1.0}},
        "salt-concentration",
    ),
    "namd-salt-internal-sp": (
        {"engine.name": "namd",
         "dimensions.1": {"kind": "salt", "n_windows": 2, "min_value": 0.0,
                          "max_value": 1.0, "internal_sp": True}},
        "salt-concentration",
    ),
}


class TestRun:
    def test_run_prints_summary(self, config_file, capsys):
        rc = main(["run", str(config_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "cli-test" in out
        assert "average cycle time" in out
        assert "acceptance[temperature]" in out

    def test_run_writes_json_summary(self, config_file, tmp_path, capsys):
        out_path = tmp_path / "summary.json"
        rc = main(["run", str(config_file), "-o", str(out_path)])
        assert rc == 0
        summary = json.loads(out_path.read_text())
        assert summary["title"] == "cli-test"
        assert len(summary["cycles"]) == 2
        assert 0.0 < summary["utilization"] <= 1.0

    def test_run_missing_file(self, capsys):
        rc = main(["run", "/does/not/exist.json"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_run_invalid_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"dimensions": []}')
        rc = main(["run", str(bad)])
        assert rc == 2


@pytest.fixture
def async_config_file(tmp_path):
    cfg = {
        "title": "cli-async",
        "resource": {"name": "supermic", "cores": 4},
        "dimensions": [
            {
                "kind": "temperature",
                "n_windows": 4,
                "min_value": 273.0,
                "max_value": 373.0,
            }
        ],
        "pattern": {"kind": "asynchronous"},
        "n_cycles": 3,
        "steps_per_cycle": 6000,
        "numeric_steps": 10,
        "seed": 1,
    }
    path = tmp_path / "async.json"
    path.write_text(json.dumps(cfg))
    return path


class TestCrashResumeFlags:
    def test_crash_exits_3_with_resume_hint(
        self, async_config_file, tmp_path, capsys
    ):
        ckpt_dir = tmp_path / "ck"
        rc = main(
            [
                "run", str(async_config_file),
                "--checkpoint-every-s", "150",
                "--checkpoint-dir", str(ckpt_dir),
                "--crash-at-time", "400",
            ]
        )
        assert rc == 3
        err = capsys.readouterr().err
        assert "crashed: simulated crash at t=400s" in err
        assert f"--resume {ckpt_dir / 'latest.json'}" in err
        assert (ckpt_dir / "quiesce_0001.json").exists()

    def test_crash_without_checkpoint_says_so(
        self, async_config_file, tmp_path, capsys
    ):
        rc = main(
            [
                "run", str(async_config_file),
                "--checkpoint-every-s", "150",
                "--checkpoint-dir", str(tmp_path / "ck"),
                "--crash-at-time", "60",
            ]
        )
        assert rc == 3
        assert "nothing to resume" in capsys.readouterr().err

    def test_crash_then_resume_completes(
        self, async_config_file, tmp_path, capsys
    ):
        ckpt_dir = tmp_path / "ck"
        flags = [
            "--checkpoint-every-s", "150",
            "--checkpoint-dir", str(ckpt_dir),
        ]
        assert main(
            ["run", str(async_config_file)] + flags + [
                "--crash-at-time", "400",
            ]
        ) == 3
        capsys.readouterr()
        rc = main(
            ["run", str(async_config_file)] + flags + [
                "--resume", str(ckpt_dir / "latest.json"),
            ]
        )
        assert rc == 0
        assert "average cycle time" in capsys.readouterr().out

    def test_stop_after_checkpoint_prints_resume_hint(
        self, async_config_file, tmp_path, capsys
    ):
        rc = main(
            [
                "run", str(async_config_file),
                "--checkpoint-every-s", "150",
                "--checkpoint-dir", str(tmp_path / "ck"),
                "--stop-after-checkpoint", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "--stop-after-checkpoint" in out
        assert "resume with --resume" in out

    def test_checkpoint_keep_prunes(self, config_file, tmp_path, capsys):
        # four cycles so pruning actually has snapshots to discard
        cfg = json.loads(config_file.read_text())
        cfg["n_cycles"] = 4
        long_config = tmp_path / "long.json"
        long_config.write_text(json.dumps(cfg))
        ckpt_dir = tmp_path / "ck"
        rc = main(
            [
                "run", str(long_config),
                "--checkpoint-every", "1",
                "--checkpoint-dir", str(ckpt_dir),
                "--checkpoint-keep", "1",
            ]
        )
        assert rc == 0
        numbered = [p.name for p in ckpt_dir.glob("cycle_*.json")]
        assert numbered == ["cycle_0003.json"]
        assert (ckpt_dir / "latest.json").exists()

    def test_quiesce_flags_rejected_for_sync(self, config_file, capsys):
        rc = main(
            ["run", str(config_file), "--checkpoint-every-s", "100"]
        )
        assert rc == 2
        assert "quiesce" in capsys.readouterr().err


class TestCheck:
    def test_valid_config(self, config_file, capsys):
        rc = main(["check", str(config_file)])
        assert rc == 0
        assert "ok:" in capsys.readouterr().out

    def test_invalid_config(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n_cylces": 3}')
        rc = main(["check", str(bad)])
        assert rc == 2
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "patches, needle", list(CANNOT_RUN.values()), ids=list(CANNOT_RUN)
    )
    def test_dimension_that_cannot_run_fails_check_and_run(
        self, config_file, patches, needle, capsys
    ):
        cfg = json.loads(config_file.read_text())
        for path, value in patches.items():
            patch_config(cfg, path, value)
        config_file.write_text(json.dumps(cfg))
        for command in ("check", "run"):
            assert main([command, str(config_file)]) == 2
            assert needle in capsys.readouterr().err


class TestInfoCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "RepEx" in out
        assert "CHARMM" in out

    def test_engines(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "amber" in out
        assert "namd" in out


class TestObsCommands:
    @pytest.fixture(scope="class")
    def manifest_file(self, tmp_path_factory):
        from repro.core import RepEx
        from tests.conftest import small_tremd_config

        result = RepEx(small_tremd_config()).run()
        path = tmp_path_factory.mktemp("obs") / "run.jsonl"
        result.manifest.dump(path)
        return path

    def test_export_chrome_validates(self, manifest_file, tmp_path, capsys):
        trace_path = tmp_path / "run.trace.json"
        assert main(
            ["obs", "export", str(manifest_file), "-o", str(trace_path)]
        ) == 0
        capsys.readouterr()
        assert main(["obs", "validate", str(trace_path)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_export_openmetrics_to_stdout(self, manifest_file, capsys):
        rc = main(
            ["obs", "export", str(manifest_file), "--format", "openmetrics"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.endswith("# EOF\n")
        assert "emm_cycles_total" in out

    def test_validate_rejects_non_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["obs", "validate", str(bad)]) == 2
        assert "invalid" in capsys.readouterr().err

    def test_critical_path_report(self, manifest_file, capsys):
        assert main(["obs", "critical-path", str(manifest_file)]) == 0
        out = capsys.readouterr().out
        assert "Critical path per cycle" in out
        assert "Phase decomposition" in out

    def test_diff_self_is_identical(self, manifest_file, capsys):
        rc = main(["obs", "diff", str(manifest_file), str(manifest_file)])
        assert rc == 0
        assert "observationally identical" in capsys.readouterr().out

    def test_truncated_manifest_degrades_gracefully(
        self, manifest_file, tmp_path, capsys
    ):
        """A streamed manifest cut mid-record still summarizes, warns on
        stderr, and exits 0."""
        lines = manifest_file.read_text().splitlines(True)
        cut = tmp_path / "truncated.jsonl"
        cut.write_text("".join(lines[:-2]) + lines[-2][: len(lines[-2]) // 2])
        for command in (["obs", "summary"], ["obs", "timeline", "-n", "5"]):
            assert main(command + [str(cut)]) == 0
            captured = capsys.readouterr()
            assert "truncated or invalid JSON dropped" in captured.err
            assert captured.out  # recovered content still prints

    def test_strict_refuses_recovered_manifest(
        self, manifest_file, tmp_path, capsys
    ):
        """``--strict`` turns lenient recovery into exit 4 on every
        obs command."""
        lines = manifest_file.read_text().splitlines(True)
        cut = tmp_path / "truncated.jsonl"
        cut.write_text("".join(lines[:-2]) + lines[-2][: len(lines[-2]) // 2])
        for command in (
            ["obs", "summary", "--strict", str(cut)],
            ["obs", "timeline", "--strict", str(cut)],
            ["obs", "export", "--strict", str(cut)],
            ["obs", "critical-path", "--strict", str(cut)],
            ["obs", "diff", "--strict", str(manifest_file), str(cut)],
        ):
            assert main(command) == 4, command
            err = capsys.readouterr().err
            assert "refusing under --strict" in err
            assert str(cut) in err

    def test_strict_on_clean_manifest_is_silent(self, manifest_file, capsys):
        assert main(["obs", "summary", "--strict", str(manifest_file)]) == 0
        captured = capsys.readouterr()
        assert "refusing" not in captured.err
        assert captured.out


class TestBenchAttribute:
    @pytest.fixture
    def result_pair(self, tmp_path):
        """Synthetic bench results with one regressing scenario."""
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(
            json.dumps({"_meta": {"schema": 1},
                        "tremd_sync": {"events_per_s": 1000.0}})
        )
        new.write_text(
            json.dumps({"_meta": {"schema": 1},
                        "tremd_sync": {"events_per_s": 400.0}})
        )
        return old, new

    def manifest_dirs(self, tmp_path):
        """Two trace dirs whose manifests differ (2 vs 3 cycles)."""
        from repro.core import RepEx
        from tests.conftest import small_tremd_config

        dirs = []
        for label, n_cycles in (("old", 2), ("new", 3)):
            d = tmp_path / label
            d.mkdir()
            result = RepEx(small_tremd_config(n_cycles=n_cycles)).run()
            result.manifest.dump(d / "tremd_sync.manifest.jsonl")
            dirs.append(d)
        return dirs

    def test_regression_gets_phase_attribution(
        self, result_pair, tmp_path, capsys
    ):
        old, new = result_pair
        old_dir, new_dir = self.manifest_dirs(tmp_path)
        rc = main(
            ["bench", "--compare", str(old), str(new),
             "--attribute", str(old_dir), str(new_dir)]
        )
        assert rc == 1  # the regression still fails the gate
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "phase.md" in out
        assert "wallclock_s" in out

    def test_missing_manifest_degrades_to_hint(
        self, result_pair, tmp_path, capsys
    ):
        old, new = result_pair
        rc = main(
            ["bench", "--compare", str(old), str(new),
             "--attribute", str(tmp_path / "a"), str(tmp_path / "b")]
        )
        assert rc == 1
        assert "attribution unavailable" in capsys.readouterr().out

    def test_no_attribution_without_flag(self, result_pair, capsys):
        old, new = result_pair
        rc = main(["bench", "--compare", str(old), str(new)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out
        assert "phase.md" not in out


class TestChaosResumeFlag:
    def test_no_resume_skips_the_column(self, capsys):
        rc = main(["chaos", "--fast", "--no-resume"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "resume" in out  # the column renders...
        assert "Chaos matrix" in out

    def test_resume_verdicts_in_json_report(self, tmp_path, capsys):
        report = tmp_path / "chaos.json"
        rc = main(["chaos", "--fast", "-o", str(report)])
        assert rc == 0
        doc = json.loads(report.read_text())
        verdicts = {o["name"]: o["resume"] for o in doc}
        assert all(v == "ok" for v in verdicts.values()), verdicts


class TestExampleConfigs:
    @pytest.mark.parametrize(
        "name", ["tremd.json", "tsu_mode2.json", "async_namd.json"]
    )
    def test_shipped_configs_are_valid(self, name):
        from pathlib import Path

        path = Path(__file__).parents[2] / "examples" / "configs" / name
        assert main(["check", str(path)]) == 0


def campaign_spec(**overrides):
    base_session = {
        "dimensions": [
            {
                "kind": "temperature",
                "n_windows": 2,
                "min_value": 300.0,
                "max_value": 320.0,
            }
        ],
        "resource": {"name": "small-cluster", "cores": 4},
        "n_cycles": 1,
        "steps_per_cycle": 500,
        "numeric_steps": 1,
        "sample_stride": 0,
    }
    spec = {
        "title": "cli-campaign",
        "seed": 5,
        "datacenter": {"nodes": 2, "cores_per_node": 8},
        "tenants": [
            {
                "name": "alice",
                "base": base_session,
                "grid": {
                    "pattern.kind": ["synchronous", "asynchronous"],
                    "n_cycles": [1, 2],
                },
            },
            {"name": "bob", "base": base_session},
        ],
    }
    spec.update(overrides)
    return spec


@pytest.fixture
def campaign_file(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(campaign_spec()))
    return path


class TestCampaign:
    def test_dry_run_prints_the_expanded_grid(self, campaign_file, capsys):
        rc = main(["campaign", str(campaign_file), "--dry-run"])
        assert rc == 0
        out = capsys.readouterr().out
        # 2 patterns x 2 cycle counts for alice, plus bob's single session
        assert "5 sessions across 2 tenants" in out
        for uid in ("alice-0000", "alice-0003", "bob-0000"):
            assert uid in out
        assert "pattern=asynchronous" in out
        assert "pattern=synchronous" in out

    def test_run_prints_per_tenant_accounting(self, campaign_file, capsys):
        rc = main(["campaign", str(campaign_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Per-tenant accounting" in out
        assert "alice" in out and "bob" in out
        assert "utilization" in out

    def test_admission_rejection_exits_4(self, tmp_path, capsys):
        # a one-node datacenter with a one-deep queue cannot admit five
        # single-pilot sessions submitted together
        spec = campaign_spec(
            datacenter={"nodes": 1, "cores_per_node": 4},
            queue_limit=1,
        )
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(spec))
        rc = main(["campaign", str(path)])
        assert rc == 4
        assert "rejected" in capsys.readouterr().err

    def test_metrics_out_parses_as_openmetrics(
        self, campaign_file, tmp_path, capsys
    ):
        metrics_path = tmp_path / "metrics.txt"
        rc = main(
            ["campaign", str(campaign_file), "--metrics-out",
             str(metrics_path)]
        )
        assert rc == 0
        text = metrics_path.read_text()
        assert text.endswith("# EOF\n")
        # every sample line is `name{labels} value` with a parseable
        # float value; every series carries a tenant label
        import re

        sample_re = re.compile(
            r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? \S+$"
        )
        samples = [
            line for line in text.splitlines() if not line.startswith("#")
        ]
        assert samples
        for line in samples:
            assert sample_re.match(line), f"bad sample line: {line!r}"
            float(line.rsplit(" ", 1)[1])
        assert 'tenant="alice"' in text and 'tenant="bob"' in text

    def test_out_writes_report_and_manifests(
        self, campaign_file, tmp_path, capsys
    ):
        out_dir = tmp_path / "campaign_out"
        rc = main(["campaign", str(campaign_file), "--out", str(out_dir)])
        assert rc == 0
        report = json.loads((out_dir / "report.json").read_text())
        assert report["title"] == "cli-campaign"
        assert {s["tenant"] for s in report["sessions"]} == {"alice", "bob"}
        manifests = sorted(p.name for p in out_dir.rglob("*.jsonl"))
        assert "alice-0000.jsonl" in manifests
        assert "bob-0000.jsonl" in manifests

    def test_shard_mode_output_is_bit_identical(
        self, campaign_file, tmp_path, capsys
    ):
        ref_dir, shard_dir = tmp_path / "ref", tmp_path / "shard"
        assert main(["campaign", str(campaign_file), "--out", str(ref_dir)]) == 0
        assert main(
            ["campaign", str(campaign_file), "--shard", "1",
             "--out", str(shard_dir)]
        ) == 0
        assert "precomputed 5 session shard(s)" in capsys.readouterr().err
        assert (shard_dir / "report.json").read_bytes() == (
            ref_dir / "report.json"
        ).read_bytes()
        ref = {
            p.relative_to(ref_dir): p.read_bytes()
            for p in sorted(ref_dir.rglob("*.jsonl"))
        }
        shard = {
            p.relative_to(shard_dir): p.read_bytes()
            for p in sorted(shard_dir.rglob("*.jsonl"))
        }
        assert shard == ref

    def test_negative_shard_count_exits_2(self, campaign_file, capsys):
        rc = main(["campaign", str(campaign_file), "--shard", "-1"])
        assert rc == 2
        assert "processes" in capsys.readouterr().err

    def test_json_flag_prints_full_report(self, campaign_file, capsys):
        rc = main(["campaign", str(campaign_file), "--json"])
        assert rc == 0
        out = capsys.readouterr().out
        payload = out[out.index("{"):]
        doc = json.loads(payload)
        assert doc["title"] == "cli-campaign"
        assert len(doc["sessions"]) == 5

    def test_bad_spec_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"tenants": [], "typo": 1}')
        rc = main(["campaign", str(path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        rc = main(["campaign", "/does/not/exist.json"])
        assert rc == 2

    def test_shipped_campaign_spec_dry_runs(self, capsys):
        from pathlib import Path

        path = (
            Path(__file__).parents[2] / "examples" / "configs"
            / "campaign.json"
        )
        assert main(["campaign", str(path), "--dry-run"]) == 0
