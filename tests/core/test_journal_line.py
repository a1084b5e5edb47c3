"""Each journal line is encoded piece by piece, to the oracle's bytes.

``journal_entry`` below is the whole-entry builder a capture once used:
every item grown since the previous capture as one dict, encoded in one
``json.dumps``.  The capture now writes the same text in pieces
(``checkpoint._journal_line``).  These tests pin the bytes to the
oracle's at every capture, and the memory a capture allocates to a small
multiple of its line.
"""

import json
import tracemalloc
from dataclasses import asdict

import pytest

from repro.core import RepEx
from repro.core import checkpoint
from repro.core.checkpoint import (
    JOURNAL_NAME,
    Checkpoint,
    _fault_events,
    _json_default,
    _marks,
    _record_to_dict,
)
from repro.core.config import (
    DimensionSpec,
    FailureSpec,
    PatternSpec,
    ResourceSpec,
)
from repro.obs.metrics import MetricsRegistry
from tests.conftest import small_tremd_config


def journal_entry(emm, old):
    """What grew in ``emm``'s run since the marks ``old``, as one dict."""
    new = _marks(emm)
    run_log = emm.run_log
    samples, spans = emm.metrics.records_since(old["samples"], old["spans"])
    history = {}
    for rep in emm.replicas:
        done, final = old["history"].get(rep.rid, 0), new["history"][rep.rid]
        if final > done:
            history[str(rep.rid)] = [
                _record_to_dict(rec) for rec in rep.history[done:final]
            ]
    return {
        "history": history,
        "timings": [asdict(t) for t in emm.timings[old["timings"] :]],
        "proposals": [
            [p.rid_i, p.rid_j, p.dimension, p.delta, p.accepted]
            for p in emm.proposals[old["proposals"] :]
        ],
        "rows": (
            list(run_log.rows_since(old["rows"])) if run_log is not None else []
        ),
        "samples": {name: list(values) for name, values in samples.items()},
        "spans": list(spans),
        "faults": [e.to_dict() for e in _fault_events(emm)[old["faults"] :]],
    }


def oracle_line(entry) -> bytes:
    text = json.dumps(
        entry, default=_json_default, sort_keys=True, separators=(",", ":")
    )
    return (text + "\n").encode()


def tsu_config(**over):
    """16 replicas on three dimensions, sampling every 10 of 30 steps."""
    defaults = dict(
        title="test-tsu",
        dimensions=[
            DimensionSpec("temperature", 2, 300.0, 340.0),
            DimensionSpec("salt", 2, 0.0, 1.0),
            DimensionSpec(
                "umbrella", 4, 0.0, 360.0, angle="phi", force_constant=0.0005
            ),
        ],
        execution_mode="II",
        n_cycles=6,
        numeric_steps=30,
        sample_stride=10,
    )
    defaults.update(over)
    return small_tremd_config(**defaults)


def async_faults_config():
    """Asynchronous, with relaunched unit failures and staging faults."""
    return small_tremd_config(
        n_cycles=4,
        pattern=PatternSpec(kind="asynchronous"),
        failure=FailureSpec(
            probability=0.3,
            policy="relaunch",
            staging_fault_probability=0.3,
            staging_max_retries=6,
        ),
    )


@pytest.fixture
def checked_lines(monkeypatch):
    """Every line a capture streams, each checked against the oracle's
    entry; the list holds the decoded entries."""
    entries = []
    stream = checkpoint._journal_line

    def checked(emm, journal):
        entry = journal_entry(emm, journal.marks)
        line = stream(emm, journal)
        assert line == oracle_line(entry)
        entries.append(entry)
        return line

    monkeypatch.setattr(checkpoint, "_journal_line", checked)
    return entries


#: a chunk size that splits every list of a small run, and the default
@pytest.fixture(params=[3, checkpoint._CHUNK], ids=["chunk3", "default"])
def chunk(request, monkeypatch):
    monkeypatch.setattr(checkpoint, "_CHUNK", request.param)
    return request.param


def test_sync_lines_equal_the_oracle(tmp_path, chunk, checked_lines):
    RepEx(
        tsu_config(),
        registry=MetricsRegistry(),
        checkpoint_every=2,
        checkpoint_dir=tmp_path,
    ).run()
    assert len(checked_lines) == 2
    for key in ("history", "proposals", "rows", "samples", "spans", "timings"):
        assert all(entry[key] for entry in checked_lines), key
    records = [
        rec for entry in checked_lines
        for recs in entry["history"].values() for rec in recs
    ]
    assert all(rec["trajectory"] for rec in records)
    # the journal file holds exactly the checked lines
    lines = (tmp_path / JOURNAL_NAME).read_bytes().splitlines(keepends=True)
    assert lines == [oracle_line(entry) for entry in checked_lines]


def test_async_quiesce_lines_equal_the_oracle(tmp_path, chunk, checked_lines):
    result = RepEx(
        async_faults_config(),
        registry=MetricsRegistry(),
        checkpoint_every_s=150.0,
        checkpoint_dir=tmp_path,
    ).run()
    assert result.n_relaunches > 0
    assert len(checked_lines) >= 2

    def grown(key):
        return sum(len(entry[key]) for entry in checked_lines)

    for key in ("faults", "history", "proposals", "rows", "samples", "spans"):
        assert grown(key) > 0, key
    ckpt = Checkpoint.load(tmp_path / "latest.json")
    assert ckpt.pattern == "asynchronous"


def test_encoding_a_line_allocates_a_small_multiple_of_it(monkeypatch):
    """A capture's line is encoded in under 4x its size; encoding the
    whole entry at once took about 12x."""
    config = tsu_config(
        dimensions=[
            DimensionSpec("temperature", 4, 300.0, 340.0),
            DimensionSpec("salt", 4, 0.0, 1.0),
            DimensionSpec(
                "umbrella", 4, 0.0, 360.0, angle="phi", force_constant=0.0005
            ),
        ],
        resource=ResourceSpec("supermic", cores=64),
        n_cycles=4,
        sample_stride=3,
    )
    peaks = []
    stream = checkpoint._journal_line

    def measured(emm, journal):
        tracemalloc.start()
        try:
            line = stream(emm, journal)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        peaks.append((peak, len(line)))
        return line

    monkeypatch.setattr(checkpoint, "_journal_line", measured)
    RepEx(config, registry=MetricsRegistry(), checkpoint_every=3).run()
    ((peak, size),) = peaks
    assert size >= 100_000
    assert peak / size < 4.0
