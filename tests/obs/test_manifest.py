"""Tests for run manifests: construction, JSONL round-trip, phase totals."""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.campaign.service import expand_requests
from repro.campaign.spec import CampaignSpec
from repro.core import RepEx
from repro.core.config import FailureSpec, SimulationConfig
from repro.obs.manifest import (
    PHASES,
    STATE_ORDER,
    ManifestError,
    ManifestStream,
    RunManifest,
    config_hash,
)
from repro.obs.metrics import MetricsRegistry, NullRegistry
from repro.pilot.unit import ComputeUnit, UnitDescription, UnitState
from tests.conftest import small_tremd_config

EXAMPLE_CONFIGS = Path(__file__).resolve().parents[2] / "examples" / "configs"

#: stands for a field left out of a record
MISSING = object()

#: a valid header, so each bad-record case below has exactly one fault
HEADER = json.dumps(
    {
        "kind": "run", "schema_version": 4, "title": "t",
        "config_hash": "0" * 16, "pattern": "synchronous",
        "execution_mode": "I", "n_replicas": 1, "pilot_cores": 1,
        "t_start": 0.0, "t_end": 1.0,
    }
)


def asdict_hash(config) -> str:
    """The pre-v4 ``config_hash``: sha256 of ``asdict``'s canonical JSON."""
    text = json.dumps(asdict(config), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def run():
    """One small synchronous T-REMD run with its RepEx facade."""
    repex = RepEx(small_tremd_config())
    return repex, repex.run()


class TestFromRun:
    def test_identity_fields(self, run):
        repex, result = run
        manifest = result.manifest
        assert manifest is not None
        assert manifest.title == result.title
        assert manifest.pattern == "synchronous"
        assert manifest.n_replicas == 4
        assert manifest.pilot_cores == 4
        assert manifest.seed == 7
        assert manifest.config_hash == config_hash(repex.config)
        assert manifest.n_units == len(manifest.units) > 0
        assert manifest.wallclock == pytest.approx(result.wallclock)

    def test_phase_totals_match_emm_accounting(self, run):
        """Acceptance criterion: manifest totals agree with the EMM's
        core-second accounting to within 1%."""
        _, result = run
        manifest = result.manifest
        accounted = result.md_core_seconds + result.exchange_core_seconds
        assert manifest.busy_core_seconds() == pytest.approx(
            accounted, rel=0.01
        )
        assert manifest.phase_totals["md"] == pytest.approx(
            result.md_core_seconds, rel=0.01
        )
        assert manifest.phase_totals["exchange"] == pytest.approx(
            result.exchange_core_seconds, rel=0.01
        )

    def test_phase_totals_buckets(self, run):
        _, result = run
        totals = result.manifest.phase_totals
        assert tuple(totals) == PHASES
        assert set(totals) == {"md", "exchange", "staging", "overhead", "other"}
        assert totals["md"] > 0
        assert totals["staging"] > 0
        assert totals["overhead"] > 0
        assert totals["other"] == 0.0  # every unit is phase-tagged

    def test_metrics_and_spans_captured(self, run):
        _, result = run
        manifest = result.manifest
        counters = manifest.metrics["counters"]
        assert counters["emm.cycles"] == len(result.cycle_timings)
        assert counters["scheduler.submitted"] == manifest.n_units
        assert manifest.spans_named("cycle")
        assert manifest.spans_named("md")
        assert all(s.duration >= 0 for s in manifest.spans)

    def test_timeline_sorted_and_complete(self, run):
        _, result = run
        timeline = result.manifest.timeline
        assert timeline == sorted(timeline, key=lambda e: (e[0], e[1], e[2]))
        states = {state for _, _, state in timeline}
        assert "EXECUTING" in states and "DONE" in states

    def test_unit_rows_are_the_timeline(self, monkeypatch):
        """Each unit row's ``t`` lists every state's entry time in
        declaration order; the timeline is exactly their union."""
        finished = {}
        real = ManifestStream.on_unit

        def spy(self, unit):
            finished[unit.description.name] = unit
            real(self, unit)

        monkeypatch.setattr(ManifestStream, "on_unit", spy)
        result = RepEx(small_tremd_config(), registry=MetricsRegistry()).run()
        manifest = result.manifest
        assert len(finished) == len(manifest.units)
        triples = []
        for unit in manifest.units:
            traced = finished[unit["name"]]
            assert unit["t"] == [
                round(traced.timestamps[state], 6)
                if state in traced.timestamps else None
                for state in UnitState
            ]
            assert unit["final_state"] == traced.state.value
            triples += [
                (t, unit["name"], state)
                for state, t in zip(STATE_ORDER, unit["t"])
                if t is not None
            ]
        assert [tuple(e) for e in manifest.timeline] == sorted(triples)


    def test_unit_lines_sort_stably_by_decoded_name(self):
        """The by-name order compares names, not their JSON escapes, and
        keeps same-named attempts in finish order."""
        names = [
            "z", "\u00e9", "\U0001f600", "\uffff", "a", "a!", 'a"b', "a\\",
            "x\ny", "", '", "kind": "unit", "name": "evil', "a",
        ]
        log = ManifestStream(None, None)
        for cycle, name in enumerate(names):
            unit = ComputeUnit(
                UnitDescription(name=name, metadata={"cycle": cycle})
            )
            unit.advance(UnitState.CANCELED, float(cycle))
            log.on_unit(unit)
        finished = log.lines.decode().splitlines(keepends=True)
        result = SimpleNamespace(
            title="t", pattern="synchronous", execution_mode="I",
            n_replicas=1, pilot_cores=1, t_start=0.0, t_end=1.0,
            utilization=lambda: 0.0,
        )
        manifest = RunManifest.from_run(
            small_tremd_config(), result, log, MetricsRegistry()
        )
        by_name = sorted(finished, key=lambda line: json.loads(line)["name"])
        assert manifest.to_jsonl().endswith("".join(by_name))
        assert [row["cycle"] for row in manifest.units] == [
            json.loads(line)["cycle"] for line in by_name
        ]
        assert manifest.n_units == len(names)


class TestJsonlRoundTrip:
    def test_round_trip_preserves_everything(self, run, tmp_path):
        _, result = run
        manifest = result.manifest
        path = manifest.dump(tmp_path / "run.jsonl")
        loaded = RunManifest.load(path)
        assert loaded == manifest

    def test_jsonl_lines_are_self_describing(self, run):
        _, result = run
        kinds = [
            json.loads(line)["kind"]
            for line in result.manifest.to_jsonl().splitlines()
        ]
        assert kinds[0] == "run"
        assert kinds[1] == "metrics"
        # v4: transitions live in the unit rows, not in event records
        assert set(kinds) == {"run", "metrics", "span", "unit", "ladder"}

    def test_invalid_json_line_rejected(self):
        with pytest.raises(ManifestError, match="invalid JSON"):
            RunManifest.from_jsonl("{not json}\n")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ManifestError, match="unknown record kind"):
            RunManifest.from_jsonl('{"kind": "mystery"}\n')

    def test_missing_header_rejected(self):
        with pytest.raises(ManifestError, match="no 'run' header"):
            RunManifest.from_jsonl('{"kind": "metrics", "data": {}}\n')

    def test_unit_rows_load_in_name_order(self, run):
        """A stream writes rows as units finish; loading sorts them."""
        _, result = run
        lines = result.manifest.to_jsonl().splitlines()
        units = [line for line in lines if '"kind": "unit"' in line]
        shuffled = [line for line in lines if line not in units]
        shuffled[1:1] = units[::-1]
        loaded = RunManifest.from_jsonl("\n".join(shuffled) + "\n")
        assert loaded == result.manifest


class TestBadRecords:
    """A record lacking a field its kind needs is a ManifestError, never
    a KeyError: fatal in a strict load, dropped and noted under
    ``recover=True`` — except a bad header, which is always fatal."""

    def load(self, *records, recover=False):
        lines = [HEADER] + [json.dumps(r) for r in records]
        return RunManifest.from_jsonl("\n".join(lines) + "\n", recover=recover)

    def test_header_without_title(self):
        header = json.loads(HEADER)
        del header["title"]
        for recover in (False, True):
            with pytest.raises(ManifestError, match="run record .*'title'"):
                RunManifest.from_jsonl(json.dumps(header) + "\n",
                                       recover=recover)

    def test_span_without_t_start(self):
        bad = {"kind": "span", "name": "cycle", "t_end": 2.0, "tags": {}}
        with pytest.raises(ManifestError, match="span record .*'t_start'"):
            self.load(bad)
        manifest = self.load(bad, recover=True)
        assert manifest.spans == []
        assert "'t_start'" in manifest.recovered[0]

    @pytest.mark.parametrize(
        "t",
        [
            MISSING,
            None,
            "0.5",
            [0.5] * (len(STATE_ORDER) - 1),
            [0.5] * (len(STATE_ORDER) + 1),
            [None] * (len(STATE_ORDER) - 1) + ["0.5"],
            [None] * (len(STATE_ORDER) - 1) + [True],
        ],
        ids=["missing", "null", "string", "short", "long", "string-entry",
             "bool-entry"],
    )
    def test_unit_row_with_malformed_t(self, t):
        bad = {"kind": "unit", "name": "md_r0_c0", "cores": 1}
        if t is not MISSING:
            bad["t"] = t
        with pytest.raises(ManifestError, match="line 2: unit record"):
            self.load(bad)
        manifest = self.load(bad, recover=True)
        assert manifest.units == []
        assert manifest.timeline == []
        assert "'t' is not" in manifest.recovered[0]

    def test_alert_record_is_an_unknown_kind(self):
        # alert records have no engine left to write them: a file holding
        # one loads only with recovery, like any kind this build lacks
        alert = {"kind": "alert", "rule": "checkpoint_stale",
                 "state": "firing", "t": 3855.6}
        with pytest.raises(ManifestError, match="unknown record kind 'alert'"):
            self.load(alert)
        manifest = self.load(alert, recover=True)
        assert manifest.partial
        assert manifest.recovered == [
            "line 2: unknown record kind 'alert' dropped"
        ]

    def test_event_record_is_an_unknown_kind(self):
        # transitions live only in the unit rows' ``t``: an ``event``
        # record (v1-v3 files, and streams before unit rows carried
        # ``t``) loads only with recovery
        event = {"kind": "event", "t": 1.0, "unit": "md_r0_c0",
                 "state": "DONE"}
        with pytest.raises(ManifestError, match="unknown record kind 'event'"):
            self.load(event)
        manifest = self.load(event, recover=True)
        assert manifest.partial
        assert manifest.timeline == []
        assert manifest.recovered == [
            "line 2: unknown record kind 'event' dropped"
        ]

    def test_record_that_is_not_an_object(self):
        with pytest.raises(ManifestError, match="not a JSON object"):
            RunManifest.from_jsonl(HEADER + "\n[1, 2]\n")
        manifest = RunManifest.from_jsonl(HEADER + "\n[1, 2]\n", recover=True)
        assert len(manifest.recovered) == 1


class TestRecovery:
    """Tolerant loading of truncated / damaged streamed manifests."""

    def truncated(self, run):
        """The JSONL cut mid-way through its second-to-last record."""
        _, result = run
        lines = result.manifest.to_jsonl().splitlines(True)
        return "".join(lines[:-2]) + lines[-2][: len(lines[-2]) // 2]

    def test_strict_load_still_raises(self, run):
        with pytest.raises(ManifestError, match="invalid JSON"):
            RunManifest.from_jsonl(self.truncated(run))

    def test_recover_salvages_the_prefix(self, run):
        _, result = run
        manifest = RunManifest.from_jsonl(self.truncated(run), recover=True)
        assert manifest.partial
        assert len(manifest.recovered) == 1
        assert "truncated or invalid JSON" in manifest.recovered[0]
        assert manifest.title == result.manifest.title
        assert manifest.spans == result.manifest.spans
        # the cut record and everything after it are gone, nothing else:
        # the last two lines are unit rows, taking their transitions along
        lost = result.manifest.units[-2:]
        assert manifest.units == result.manifest.units[:-2]
        n_lost = sum(t is not None for unit in lost for t in unit["t"])
        assert len(manifest.timeline) == len(result.manifest.timeline) - n_lost

    def test_recover_skips_unknown_kinds(self, run):
        _, result = run
        text = result.manifest.to_jsonl() + '{"kind": "mystery"}\n'
        manifest = RunManifest.from_jsonl(text, recover=True)
        assert manifest.partial
        assert "unknown record kind 'mystery'" in manifest.recovered[0]

    def test_recover_never_saves_a_headerless_file(self):
        with pytest.raises(ManifestError, match="no 'run' header"):
            RunManifest.from_jsonl('{"kind": "metrics"}\n', recover=True)

    def test_summary_reports_recovery(self, run):
        manifest = RunManifest.from_jsonl(self.truncated(run), recover=True)
        text = "\n".join(manifest.summary_lines())
        assert "RECOVERED:" in text
        assert "PARTIAL" in text

    def test_recovered_warnings_never_serialized(self, run):
        manifest = RunManifest.from_jsonl(self.truncated(run), recover=True)
        reloaded = RunManifest.from_jsonl(manifest.to_jsonl())
        assert reloaded.recovered == []
        assert reloaded.partial  # partiality itself does persist


class TestConfigHash:
    def test_stable_across_equal_configs(self):
        assert config_hash(small_tremd_config()) == config_hash(
            small_tremd_config()
        )

    def test_sensitive_to_changes(self):
        assert config_hash(small_tremd_config()) != config_hash(
            small_tremd_config(seed=8)
        )

    def test_matches_asdict_on_every_example_config(self):
        """The hash stored in manifests and checkpoints is unchanged:
        pinned against the ``asdict`` text for every example config and
        every session config the example campaign expands to."""
        configs = []
        for path in sorted(EXAMPLE_CONFIGS.glob("*.json")):
            data = json.loads(path.read_text())
            if "tenants" in data:
                spec = CampaignSpec.from_dict(data)
                configs += [
                    SimulationConfig.from_dict(r.payload)
                    for r in expand_requests(spec)
                ]
            else:
                configs.append(SimulationConfig.from_dict(data))
        configs.append(
            small_tremd_config(
                failure=FailureSpec(
                    node_crashes=[[40.0, 0]], slow_nodes=[[1, 2.0]]
                )
            )
        )
        assert len(configs) > 4
        for config in configs:
            assert config_hash(config) == asdict_hash(config)


class TestNullRegistryRun:
    def test_manifest_is_identity_only(self):
        result = RepEx(small_tremd_config(), registry=NullRegistry()).run()
        manifest = result.manifest
        assert manifest is not None
        assert manifest.metrics == {}
        assert manifest.spans == []
        assert manifest.timeline == []
        assert manifest.phase_totals == {}
        assert manifest.title == result.title


class TestSummary:
    def test_summary_lines_render_phases_and_counters(self, run):
        _, result = run
        text = "\n".join(result.manifest.summary_lines())
        assert "phase totals" in text
        assert "md" in text and "exchange" in text
        assert "emm.cycles" in text
        assert "utilization" in text
