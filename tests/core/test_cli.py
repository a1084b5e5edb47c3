"""Tests for the command-line interface."""

import json
from pathlib import Path

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
    "zero-walltime": ({"resource.walltime_minutes": 0}, "walltime_minutes"),
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
    "salt-random-pairing": (
        {"pair_selector": "random",
         "dimensions.1": {"kind": "salt", "n_windows": 2,
                          "min_value": 0.0, "max_value": 1.0}},
        "single-point tasks",
    ),
    "salt-gibbs-pairing": (
        {"pair_selector": "gibbs",
         "dimensions.1": {"kind": "salt", "n_windows": 2,
                          "min_value": 0.0, "max_value": 1.0}},
        "single-point tasks",
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

    def test_manifest_is_streamed(self, config_file, tmp_path, capsys):
        path = tmp_path / "run.jsonl"
        rc = main(["run", str(config_file), "-m", str(path)])
        assert rc == 0
        assert f"manifest streamed to {path}" in capsys.readouterr().out
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        # the provisional header first, the final one last
        assert lines[0]["kind"] == lines[-1]["kind"] == "run"
        assert lines[0]["partial"] and not lines[-1]["partial"]

    def test_unwritable_manifest_exits_2(self, config_file, tmp_path, capsys):
        path = tmp_path / "missing-dir" / "run.jsonl"
        rc = main(["run", str(config_file), "-m", str(path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_async_report_lists_exchange_sweeps(
        self, async_config_file, capsys
    ):
        """An asynchronous run's MD happens between its exchange sweeps,
        never inside one: the report lists sweeps without a T_MD column
        and gives the run's MD core-seconds instead."""
        rc = main(["run", str(async_config_file)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Exchange sweeps (virtual seconds)" in out
        assert "T_MD" not in out
        assert "Cycle decomposition" not in out
        assert "average sweep time" in out
        assert "average cycle time" not in out
        (line,) = [l for l in out.splitlines() if l.startswith("MD core-s")]
        assert float(line.split(":")[1]) > 0


class TestKilledRunSummary:
    """``obs summary`` on the manifest a killed run left behind."""

    TREMD = Path(__file__).parents[2] / "examples" / "configs" / "tremd.json"

    @pytest.fixture(scope="class")
    def killed(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("killed") / "killed.jsonl"
        rc = main(
            ["run", str(self.TREMD), "-m", str(path), "--crash-at-time", "500"]
        )
        assert rc == 3
        return path

    def test_counts_and_times_come_from_the_rows(self, killed, capsys):
        rows = [
            record
            for record in map(json.loads, killed.read_text().splitlines())
            if record["kind"] == "unit"
        ]
        capsys.readouterr()
        assert main(["obs", "summary", str(killed), "--format", "json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["partial"]
        assert summary["n_units"] == len(rows) == 35
        assert summary["wallclock_s"] > 0
        totals = summary["phase_totals"]
        assert totals["md"] > 0
        assert totals["staging"] > 0
        assert totals["overhead"] > 0

    def test_text_summary_is_partial(self, killed, capsys):
        capsys.readouterr()
        assert main(["obs", "summary", str(killed)]) == 0
        out = capsys.readouterr().out
        assert "PARTIAL" in out
        assert "units: 35" in out
        assert "phase totals (core-seconds):" in out


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
        assert "average sweep time" in capsys.readouterr().out

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

    def test_stop_after_cycle_hint_says_whether_a_checkpoint_exists(
        self, config_file, tmp_path, capsys
    ):
        stop = ["run", str(config_file), "--stop-after-cycle", "1"]
        assert main(stop) == 0
        out = capsys.readouterr().out
        assert "stopped early (--stop-after-cycle)" in out
        assert "no checkpoint written — nothing to resume from" in out
        assert "resume with --resume" not in out
        ckpt = ["--checkpoint-every", "1", "--checkpoint-dir", str(tmp_path)]
        assert main(stop + ckpt) == 0
        out = capsys.readouterr().out
        assert (
            "stopped early at a checkpoint (--stop-after-cycle); "
            "resume with --resume"
        ) in out
        assert "no checkpoint written" not in out

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

    def test_shipped_async_example_resumes(self, tmp_path, monkeypatch):
        # 16 replicas: a snapshot whose replica ids pass 9 must reload
        config = str(
            Path(__file__).parents[2] / "examples" / "configs"
            / "async_namd.json"
        )
        monkeypatch.chdir(tmp_path)
        cadence = ["--checkpoint-every-s", "200"]
        assert main(
            ["run", config] + cadence
            + ["--checkpoint-dir", "ck", "--stop-after-checkpoint", "1"]
        ) == 0
        assert main(
            ["run", config] + cadence + ["--resume", "ck/latest.json"]
        ) == 0

    def test_foreign_checkpoint_exits_2(self, config_file, tmp_path, capsys):
        ckpt_dir = tmp_path / "ck"
        assert main(
            [
                "run", str(config_file),
                "--checkpoint-every", "1",
                "--checkpoint-dir", str(ckpt_dir),
                "--stop-after-cycle", "1",
            ]
        ) == 0
        cfg = json.loads(config_file.read_text())
        cfg["seed"] = 99
        other = tmp_path / "other.json"
        other.write_text(json.dumps(cfg))
        capsys.readouterr()
        rc = main(
            ["run", str(other), "--resume", str(ckpt_dir / "latest.json")]
        )
        assert rc == 2
        assert "different configuration" in capsys.readouterr().err

    def test_unusable_checkpoint_exits_2(self, config_file, tmp_path, capsys):
        """A schema-2 snapshot, or a snapshot copied without its journal,
        is a bad input file: exit 2 naming the problem."""
        ckpt_dir = tmp_path / "ck"
        assert main(
            [
                "run", str(config_file),
                "--checkpoint-every", "1",
                "--checkpoint-dir", str(ckpt_dir),
                "--stop-after-cycle", "1",
            ]
        ) == 0
        snapshot = ckpt_dir / "cycle_0001.json"
        data = json.loads(snapshot.read_text())
        data["schema_version"] = 2
        (tmp_path / "v2.json").write_text(json.dumps(data))
        alone = tmp_path / "alone"
        alone.mkdir()
        (alone / snapshot.name).write_text(snapshot.read_text())
        for path, message in (
            (tmp_path / "v2.json", "schema version 2"),
            (alone / snapshot.name, "journal.jsonl"),
        ):
            capsys.readouterr()
            rc = main(["run", str(config_file), "--resume", str(path)])
            assert rc == 2
            assert message in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "record",
        [
            {"kind": "event", "t": 1.0, "state": "DONE"},
            {"kind": "span", "name": "cycle", "t_end": 2.0, "tags": {}},
            {"kind": "unit", "name": "md_r0_c0", "cores": 1, "t": [1.0]},
        ],
        ids=["event-without-unit", "span-without-t_start", "unit-short-t"],
    )
    def test_bad_record_is_dropped_and_strict_exits_4(
        self, manifest_file, tmp_path, capsys, record
    ):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(manifest_file.read_text() + json.dumps(record) + "\n")
        assert main(["obs", "summary", str(bad)]) == 0
        assert "dropped" in capsys.readouterr().err
        assert main(["obs", "summary", "--strict", str(bad)]) == 4
        assert "refusing under --strict" in capsys.readouterr().err

    def test_header_without_title_exits_2(self, manifest_file, tmp_path, capsys):
        lines = manifest_file.read_text().splitlines(True)
        header = json.loads(lines[0])
        del header["title"]
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps(header) + "\n" + "".join(lines[1:]))
        assert main(["obs", "summary", str(bad)]) == 2
        assert "'title'" in capsys.readouterr().err

    def test_strict_on_clean_manifest_is_silent(self, manifest_file, capsys):
        assert main(["obs", "summary", "--strict", str(manifest_file)]) == 0
        captured = capsys.readouterr()
        assert "refusing" not in captured.err
        assert captured.out


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


#: one usage error per command -> its argv; ``{file}`` is a regular file,
#: so nothing can be created under it, ``{missing}`` does not exist,
#: ``{ckpt}`` is a fresh checkpoint directory and ``{async_config}`` is
#: the shipped asynchronous example
USAGE_ERRORS = {
    "run-negative-checkpoint-every": [
        "run", "{config}", "--checkpoint-every", "-1",
    ],
    "run-negative-checkpoint-every-s": [
        "run", "{config}", "--checkpoint-every-s", "-5",
    ],
    "run-negative-checkpoint-keep": [
        "run", "{config}", "--checkpoint-keep", "-2",
    ],
    "run-negative-stop-after-cycle": [
        "run", "{config}", "--stop-after-cycle", "-3",
    ],
    "run-negative-stop-after-checkpoint": [
        "run", "{async_config}", "--checkpoint-every-s", "200",
        "--checkpoint-dir", "{ckpt}", "--stop-after-checkpoint", "-1",
    ],
    "run-negative-crash-at-time": [
        "run", "{config}", "--crash-at-time", "-5",
    ],
    "run-summary-under-a-file": ["run", "{config}", "-o", "{file}/x.json"],
    "obs-export-under-a-file": [
        "obs", "export", "{manifest}", "-o", "{file}/x.json",
    ],
    "obs-timeline-negative-limit": [
        "obs", "timeline", "{manifest}", "-n", "-1",
    ],
    "obs-critical-path-negative-segments": [
        "obs", "critical-path", "{manifest}", "--segments", "-1",
    ],
    "chaos-report-under-a-file": [
        "chaos", "--fast", "--no-resume", "-o", "{file}/x.json",
    ],
    "campaign-out-under-a-file": [
        "campaign", "{campaign}", "--out", "{file}/sub",
    ],
    "campaign-metrics-out-in-a-missing-dir": [
        "campaign", "{campaign}", "--metrics-out", "{missing}/x.txt",
    ],
}


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv", list(USAGE_ERRORS.values()), ids=list(USAGE_ERRORS)
    )
    def test_exits_2_with_an_error_line(
        self, argv, config_file, campaign_file, tmp_path, capsys
    ):
        paths = {
            "config": config_file,
            "async_config": (
                Path(__file__).parents[2] / "examples" / "configs"
                / "async_namd.json"
            ),
            "campaign": campaign_file,
            "manifest": tmp_path / "run.jsonl",
            "file": tmp_path / "a-file",
            "missing": tmp_path / "missing",
            "ckpt": tmp_path / "ckpt",
        }
        paths["file"].write_text("")
        if "{manifest}" in argv:
            from repro.core import RepEx
            from tests.conftest import small_tremd_config

            RepEx(small_tremd_config()).run().manifest.dump(paths["manifest"])
        rc = main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error:" in err
        assert "Traceback" not in err
