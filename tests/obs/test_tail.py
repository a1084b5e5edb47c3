"""``repro obs tail`` aggregation: TailTable folds and record iterators."""

import json

from repro.obs.tail import TailTable, iter_file_records


def _unit(t, unit, state):
    return {"kind": "event", "t": t, "unit": unit, "state": state}


class TestUnitFold:
    def test_phase_lifecycle_counts(self):
        table = TailTable()
        table.ingest(_unit(0.0, "md_r0_c0", "RUNNING"))
        table.ingest(_unit(1.0, "md_r1_c0", "RUNNING"))
        table.ingest(_unit(5.0, "md_r0_c0", "DONE"))
        table.ingest(_unit(6.0, "md_r1_c0", "FAILED"))
        table.ingest(_unit(7.0, "ex_c0", "RUNNING"))
        assert table.phases["md"] == {"active": 0, "done": 1, "failed": 1}
        assert table.phases["exchange"]["active"] == 1
        assert table.t == 7.0
        assert table.n_records == 5

    def test_unknown_unit_names_land_in_other(self):
        table = TailTable()
        table.ingest(_unit(0.0, "mystery-unit", "DONE"))
        assert "other" in table.phases

    def test_render_mentions_each_phase(self):
        table = TailTable()
        table.ingest(_unit(0.0, "md_r0_c0", "RUNNING"))
        table.ingest(_unit(3.5, "md_r0_c0", "DONE"))
        out = table.render()
        assert "t=3.5s (virtual)" in out
        assert "md" in out and "done" in out


class TestCampaignFold:
    def test_session_state_moves_between_columns(self):
        table = TailTable()
        table.ingest({"kind": "campaign", "t": 0.0, "event": "submit",
                      "uid": "s1", "tenant": "alice"})
        table.ingest({"kind": "campaign", "t": 1.0, "event": "start",
                      "uid": "s1"})
        # tenant remembered from the submit record
        assert table.tenants["alice"] == {"queued": 0, "running": 1}
        table.ingest({"kind": "campaign", "t": 9.0, "event": "done",
                      "uid": "s1"})
        assert table.tenants["alice"]["running"] == 0
        assert table.tenants["alice"]["done"] == 1
        assert "alice" in table.render()

    def test_unknown_audit_events_are_ignored(self):
        table = TailTable()
        table.ingest({"kind": "campaign", "t": 0.0, "event": "quota_check",
                      "uid": "s1", "tenant": "alice"})
        assert table.tenants == {}


class TestAlertAndFaultFold:
    def test_firing_alerts_shown_until_resolved(self):
        table = TailTable()
        table.ingest({"kind": "alert", "t": 5.0, "rule": "deep",
                      "state": "firing", "value": 50.0,
                      "severity": "critical"})
        assert "ALERT deep firing" in table.render()
        assert "severity=critical" in table.render()
        table.ingest({"kind": "alert", "t": 9.0, "rule": "deep",
                      "state": "resolved", "value": 0.0})
        assert "ALERT" not in table.render()
        assert table.n_alert_transitions == 2

    def test_faults_counted(self):
        table = TailTable()
        table.ingest({"kind": "fault", "t": 1.0, "fault": "crash"})
        table.ingest({"kind": "fault", "t": 2.0, "fault": "slow"})
        assert table.n_faults == 2
        assert "faults=2" in table.render()


class TestManifestFold:
    def test_dumped_and_streamed_manifests_fold_alike(self, tmp_path):
        """A v4 dump's unit rows fold like the streamed file's events."""
        from repro.core import RepEx
        from repro.obs.metrics import MetricsRegistry, using_registry
        from tests.conftest import small_tremd_config

        streamed = tmp_path / "streamed.jsonl"
        with using_registry(MetricsRegistry()):
            result = RepEx(small_tremd_config(), manifest_path=streamed).run()
        dumped = result.manifest.dump(tmp_path / "run.jsonl")
        tables = []
        for path in (streamed, dumped):
            table = TailTable()
            for record in iter_file_records(path):
                table.ingest(record)
            tables.append(table)
        assert tables[0].phases == tables[1].phases
        assert tables[0].phases["md"]["done"] > 0
        assert tables[0].t == tables[1].t == round(result.t_end, 6)


class TestFileIterator:
    def test_reads_jsonl_and_skips_garbage(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        records = [_unit(0.0, "md_r0_c0", "RUNNING"),
                   _unit(4.0, "md_r0_c0", "DONE")]
        lines = [json.dumps(records[0]), "{not json", "",
                 json.dumps(records[1])]
        path.write_text("\n".join(lines) + "\n")
        assert list(iter_file_records(path)) == records

    def test_follow_gives_up_after_idle_window(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        path.write_text(json.dumps(_unit(0.0, "md_r0_c0", "DONE")) + "\n")
        got = list(
            iter_file_records(path, follow=True, poll_s=0.01, max_idle_s=0.05)
        )
        assert len(got) == 1  # returned instead of hanging
