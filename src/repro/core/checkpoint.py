"""Checkpoint/restart for REMD runs: cycle boundaries and quiesce points.

A checkpoint is two files in its directory: a small versioned JSON
snapshot whose size is fixed by the number of replicas, and a prefix of
the run's append-only journal (``journal.jsonl``), which holds everything
that only grows.  The snapshot holds, inline:

* replica scalars — coordinates, window indices, failure counts — plus
  each replica's *last* history record, the only one an exchange can
  still change;
* exchange statistics and core-second accounting (MD + exchange,
  failure/relaunch totals);
* the state of every named RNG stream the run draws from again (AMM
  registry, failure injector, transient staging faults, hangs, watchdog
  backoff), so the continued run draws the exact random sequences the
  uninterrupted run would have.  One-shot streams (a replica's initial
  coordinates and equilibration, an exchange sweep, a protonation draw)
  are transient (:meth:`~repro.utils.rng.RNGRegistry.transient`): the
  run never keeps them, so no snapshot carries them;
* the asynchronous ``async_state``, the watchdog's state and how far the
  fault schedule had fired;
* the metric registry's counters, gauges and span counter, the ladder
  walk state, and the run log's five phase sums;
* the journal prefix it depends on: its byte length and sha256.

Each capture appends one journal line with what grew since the capture
before it, so every item is written once: the other history records
(sampled trajectories included), cycle timings, swap proposals, and the
observability records (the run log's v4 unit rows, raw histogram
samples, finished spans, fault events).  The line is encoded piece by
piece from the run's state (:func:`_journal_line`), so a capture
allocates a small multiple of the line, never the grown items as dicts.
Together they let a resumed run's manifest diff all-zero against the
uninterrupted run's.  A checkpoint directory also holds ``latest.json``,
a small pointer naming its newest snapshot, which
:meth:`Checkpoint.load` follows.

Restart rebuilds the stack from the same configuration (enforced via the
config hash), drives the fresh pilot through activation, replays the
virtual clock to the checkpoint time, and overwrites the EMM's state —
after which the resumed run is bit-identical to the uninterrupted one
(asserted by ``tests/integration/test_resume.py``).  The event-clock
replay works because a checkpoint is taken at a quiet point: no units are
in flight, so the only pending events (walltime expiry, the deterministic
fault schedule, the watchdog heartbeat) regenerate identically from the
seed and the snapshot.

Two kinds of quiet point exist, one per execution pattern:

* **synchronous** — every cycle boundary is naturally quiet;
* **asynchronous** — the EMM *induces* one via the quiesce protocol
  (:class:`~repro.core.emm.AsynchronousEMM`): stop launching, drain
  in-flight units, capture, resume.  The snapshot's ``async_state`` block
  (:class:`~repro.core.emm.AsyncState`: per-replica progress counters,
  deferred launch queue, exchange-candidate pool, window-timer phase) is
  what the async event loop rebuilds itself from mid-stream.

:meth:`Checkpoint.capture` and :func:`restore` serve both patterns.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.emm import AsyncState
from repro.core.replica import CycleRecord, Replica, ReplicaStatus
from repro.core.results import CycleTiming
from repro.core.exchange.base import SwapProposal
from repro.md.toymd import EMPTY_TRAJECTORY
from repro.obs.manifest import config_hash

#: Bump on any incompatible change to the checkpoint layout.  v5: the
#: journal's ``rows`` are the run manifest's v4 unit rows, and the
#: snapshot's ``obs`` block carries the run log's ``phase_totals``.
SCHEMA_VERSION = 5

#: Versions :func:`Checkpoint.from_json` can read.
SUPPORTED_VERSIONS = (SCHEMA_VERSION,)

#: the run's journal, beside its snapshots in the checkpoint directory
JOURNAL_NAME = "journal.jsonl"

#: the pointer naming the newest snapshot in a checkpoint directory
LATEST_NAME = "latest.json"


class CheckpointError(RuntimeError):
    """Raised for unreadable, incompatible or mismatched checkpoints."""


def _json_default(obj):
    """Coerce numpy scalars/arrays left in runtime state to JSON types."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _dumps(obj) -> str:
    """The canonical JSON text of snapshots."""
    return json.dumps(obj, default=_json_default, sort_keys=True)


#: the JSON text of a journal line's pieces: compact (a line is hashed
#: as written and never re-encoded) and sorted by key
_compact = json.JSONEncoder(
    default=_json_default, sort_keys=True, separators=(",", ":")
).encode

#: items a journal line encodes per ``json`` call: one call per item is
#: slower, and one call for all of a list allocates about 12x the text
#: it makes.  Encode time is flat from 32 to 512 items a call, and 64
#: keeps what one call allocates small beside a line.
_CHUNK = 64


def _write_atomic(path: Path, text: str) -> None:
    """Write ``text`` under a temporary name, then move it into place."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def point_latest(snapshot: Path) -> None:
    """Point the ``latest.json`` beside ``snapshot`` at it, atomically.

    A pointer, not a copy or a symlink: a copy doubles the bytes of the
    newest snapshot, and a write through a symlink would land in the
    snapshot it names.
    """
    _write_atomic(
        snapshot.with_name(LATEST_NAME), _dumps({"snapshot": snapshot.name})
    )


def _record_to_dict(rec: CycleRecord) -> Dict:
    return {
        "cycle": rec.cycle,
        "dimension": rec.dimension,
        "param_indices": dict(rec.param_indices),
        "potential_energy": rec.potential_energy,
        "restraint_energy": rec.restraint_energy,
        "torsional_energy": rec.torsional_energy,
        "partner": rec.partner,
        "accepted": rec.accepted,
        "failed": rec.failed,
        "trajectory": (
            rec.trajectory.tolist() if rec.trajectory is not None else None
        ),
    }


def _record_from_dict(raw: Dict, windows: Callable = dict) -> CycleRecord:
    """The record of a journal or snapshot entry, costing what a live
    one does: ``windows`` maps its window map to the run's shared copy
    (:meth:`~repro.core.amm.ApplicationManager.shared_windows`), its
    dimension name is interned, and an empty trajectory is
    :data:`~repro.md.toymd.EMPTY_TRAJECTORY`."""
    dimension = raw["dimension"]
    trajectory = raw["trajectory"]
    if trajectory is not None:
        trajectory = (
            np.array(trajectory, dtype=float) if trajectory
            else EMPTY_TRAJECTORY
        )
    return CycleRecord(
        cycle=int(raw["cycle"]),
        dimension=sys.intern(dimension) if dimension is not None else None,
        param_indices=windows(
            {str(k): int(v) for k, v in raw["param_indices"].items()}
        ),
        potential_energy=float(raw["potential_energy"]),
        restraint_energy=float(raw["restraint_energy"]),
        torsional_energy=float(raw["torsional_energy"]),
        partner=raw["partner"],
        accepted=bool(raw["accepted"]),
        failed=bool(raw["failed"]),
        trajectory=trajectory,
    )


def _replica_to_dict(rep: Replica) -> Dict:
    return {
        "rid": rep.rid,
        "coords": [float(c) for c in rep.coords],
        "param_indices": dict(rep.param_indices),
        "status": rep.status.value,
        "cycle": rep.cycle,
        "last_energies": {k: float(v) for k, v in rep.last_energies.items()},
        "n_failures": rep.n_failures,
        "cores": rep.cores,
        # the only record an exchange can still change (``apply_proposals``
        # touches ``history[-1]``); the others are journaled
        "last": _record_to_dict(rep.history[-1]) if rep.history else None,
    }


def _replica_from_dict(
    data: Dict, history: Sequence[Dict] = (), windows: Callable = dict
) -> Replica:
    """The replica of a snapshot entry, its journaled ``history`` first
    (each record's window map passed through ``windows``)."""
    rep = Replica(
        rid=int(data["rid"]),
        coords=np.array(data["coords"], dtype=float),
        param_indices={str(k): int(v) for k, v in data["param_indices"].items()},
        status=ReplicaStatus(data["status"]),
        cycle=int(data["cycle"]),
        last_energies={
            str(k): float(v) for k, v in data["last_energies"].items()
        },
        n_failures=int(data["n_failures"]),
        cores=int(data["cores"]),
    )
    rep.history = [_record_from_dict(raw, windows) for raw in history]
    if data["last"] is not None:
        rep.history.append(_record_from_dict(data["last"], windows))
    return rep


class Journal:
    """A run's append-only checkpoint journal.

    Each capture appends one line (:func:`_journal_line`): a JSON object
    of what grew since the capture before it.  No RNG state is
    journaled: a snapshot holds the streams the run draws from again,
    and a one-shot stream is transient, so neither file carries it.
    Lines stay encoded, so the journal costs its byte size in memory,
    and the sha256 of their concatenation is kept running, so stamping a
    snapshot's prefix digest never re-reads anything.  ``marks`` records
    how far the lines reach into each growing item.
    """

    def __init__(self, lines: Sequence[bytes] = ()):
        self.lines: List[bytes] = list(lines)
        self.size = sum(len(line) for line in self.lines)
        self._sha = hashlib.sha256(b"".join(self.lines))
        #: :func:`_marks` of the run at the last line
        self.marks: Dict[str, object] = _NO_MARKS
        #: resolved journal file -> lines of this journal it holds
        self._files: Dict[str, int] = {}
        #: (resolved file, lines) the journal was read from: that file
        #: held its first ``lines`` lines, maybe followed by more bytes
        self.origin: Optional[tuple] = None
        #: the snapshot file a resumed run's journal continues from
        self.base: Optional[Path] = None

    @property
    def sha256(self) -> str:
        """Hex digest of every line so far."""
        return self._sha.hexdigest()

    def append(self, line: bytes) -> None:
        """Add ``line``, its newline included, as the next line."""
        self.lines.append(line)
        self.size += len(line)
        self._sha.update(line)

    def fork(self, ckpt: "Checkpoint") -> "Journal":
        """A copy of ``ckpt``'s prefix for a run resuming from it.

        The resumed run appends to the copy, so neither ``ckpt`` nor the
        run that took it ever sees what the resumed run journals.
        """
        child = Journal(self.lines[: ckpt._n_lines])
        child.origin = self.origin
        child.base = ckpt._source
        return child

    def sync(self, path: Path, n_lines: int) -> None:
        """Make the journal file ``path`` start with the first
        ``n_lines`` lines, writing only the ones not there yet.

        A file this journal never wrote is rewritten from the first line,
        except the one it was read from: that keeps the prefix it was
        verified to hold.  A resumed run cuts what follows that prefix —
        the later snapshots of the run it resumed, or bytes a kill left
        between a journal append and its snapshot write — before
        appending, and first points ``latest.json`` beside it at the
        snapshot it resumed from, so ``latest.json`` stays loadable at
        every instant.
        """
        key = os.path.realpath(path)
        done = self._files.get(key)
        if done is None:
            done = self._claim(path, key)
        if done < n_lines:
            with open(path, "ab") as f:
                f.writelines(self.lines[done:n_lines])
            done = n_lines
        self._files[key] = done

    def _claim(self, path: Path, key: str) -> int:
        """Take the file ``path`` over; returns the lines it holds."""
        if self.origin is not None and self.origin[0] == key:
            n_lines = self.origin[1]
            size = sum(len(line) for line in self.lines[:n_lines])
            on_disk = path.stat().st_size if path.exists() else -1
            if on_disk > size and self.base is not None:
                point_latest(self.base)
                os.truncate(path, size)
                on_disk = size
            if on_disk >= size:
                return n_lines
        path.write_bytes(b"")
        return 0

    @classmethod
    def read(cls, path: Path, record: Dict[str, object]) -> "Journal":
        """The prefix of the journal file ``path`` a snapshot depends on
        (``record``: its byte length and sha256), verified."""
        n_bytes = int(record["bytes"])
        try:
            with open(path, "rb") as f:
                data = f.read(n_bytes)
        except OSError as exc:
            raise CheckpointError(f"cannot read journal: {exc}") from None
        if len(data) < n_bytes:
            raise CheckpointError(
                f"journal {path} holds {len(data)} bytes but the snapshot "
                f"depends on its first {n_bytes}"
            )
        journal = cls([line + b"\n" for line in data.split(b"\n")[:-1]])
        if journal.size != n_bytes or journal.sha256 != record["sha256"]:
            raise CheckpointError(
                f"journal {path} does not match the snapshot: its first "
                f"{n_bytes} bytes hash to {journal.sha256[:12]}…, the "
                f"snapshot recorded {str(record['sha256'])[:12]}…"
            )
        journal.origin = (os.path.realpath(path), len(journal.lines))
        return journal


def _fault_events(emm) -> list:
    fault_domain = getattr(emm.session, "fault_domain", None)
    return fault_domain.events if fault_domain is not None else []


#: the marks of a run that has journaled nothing yet
_NO_MARKS = {
    "history": {},
    "timings": 0,
    "proposals": 0,
    "rows": 0,
    "samples": {},
    "spans": 0,
    "faults": 0,
}


def _marks(emm) -> Dict[str, object]:
    """How far each growing item of ``emm``'s run reaches (the history
    of a replica stops short of its last record, which stays inline: an
    exchange may still change it)."""
    run_log = emm.run_log
    return {
        "history": {r.rid: max(len(r.history) - 1, 0) for r in emm.replicas},
        "timings": len(emm.timings),
        "proposals": len(emm.proposals),
        "rows": len(run_log.rows) if run_log is not None else 0,
        "samples": emm.metrics.state_dict()["histograms"],
        "spans": len(emm.metrics.spans),
        "faults": len(_fault_events(emm)),
    }


def _put_json(put: Callable[[str], None], value) -> None:
    """Write ``value`` as compact, sorted-keys JSON through ``put``: a
    dict as the object of its values in key order, anything else as the
    list of the items it yields, encoding :data:`_CHUNK` of them per
    ``json`` call."""
    if isinstance(value, dict):
        put("{")
        for n, key in enumerate(sorted(value)):
            put(f'{"," if n else ""}{_compact(key)}:')
            _put_json(put, value[key])
        put("}")
        return
    items = iter(value)
    put("[")
    for n, chunk in enumerate(iter(lambda: list(islice(items, _CHUNK)), [])):
        put(("," if n else "") + _compact(chunk)[1:-1])
    put("]")


def _journal_line(emm, journal: Journal) -> bytes:
    """The journal line of what grew in ``emm``'s run since
    ``journal``'s last line: ``history`` (rid -> records), ``samples``
    (name -> values) and the lists ``timings``, ``proposals``, ``rows``,
    ``spans`` and ``faults``.

    Each list is read lazily from the run's state and encoded as it is
    written (:func:`_put_json`), so the grown items never exist as dicts
    all at once, which cost about 12x the line: one ``json`` call
    encodes a replica's new records, or :data:`_CHUNK` items of a list.
    """
    old, new = journal.marks, _marks(emm)
    journal.marks = new
    run_log = emm.run_log
    samples, spans = emm.metrics.records_since(old["samples"], old["spans"])
    history = {}
    for rep in emm.replicas:
        done, final = old["history"].get(rep.rid, 0), new["history"][rep.rid]
        if final > done:
            records = rep.history[done:final]
            history[str(rep.rid)] = map(_record_to_dict, records)
    buf = io.BytesIO()
    _put_json(
        lambda text: buf.write(text.encode()),
        {
            "history": history,
            "timings": (
                asdict(t) for t in islice(emm.timings, old["timings"], None)
            ),
            "proposals": (
                [p.rid_i, p.rid_j, p.dimension, p.delta, p.accepted]
                for p in islice(emm.proposals, old["proposals"], None)
            ),
            "rows": (
                run_log.rows_since(old["rows"]) if run_log is not None else ()
            ),
            "samples": samples,
            "spans": spans,
            "faults": (
                e.to_dict()
                for e in islice(_fault_events(emm), old["faults"], None)
            ),
        },
    )
    buf.write(b"\n")
    return buf.getvalue()


def _read_entries(lines: Sequence[bytes]) -> Dict[str, object]:
    """Concatenate journal lines back into the grown state they hold:
    ``history`` (rid -> records), ``samples`` (name -> values) and the
    lists ``timings``, ``proposals``, ``rows``, ``spans`` and
    ``faults``."""
    lists = ("timings", "proposals", "rows", "spans", "faults")
    grown: Dict[str, object] = {key: [] for key in lists}
    history = grown["history"] = {}
    samples = grown["samples"] = {}
    try:
        for line in lines:
            entry = json.loads(line)
            for key in lists:
                grown[key].extend(entry[key])
            for rid, records in entry["history"].items():
                history.setdefault(int(rid), []).extend(records)
            for name, values in entry["samples"].items():
                samples.setdefault(name, []).extend(values)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise CheckpointError(
            f"corrupted journal: {type(exc).__name__}: {exc}"
        ) from None
    return grown


def _session_rngs(session) -> Dict[str, np.random.Generator]:
    """The session's generators a snapshot carries besides the AMM
    registry's, by their ``rng`` key.

    The gray-failure slowdown stream is not among them: it is fully
    consumed at first pilot activation, which the restore replay re-runs
    from the seed, reproducing the same dilation map.
    """
    fault_domain = getattr(session, "fault_domain", None)
    watchdog = getattr(session, "watchdog", None)
    staging = fault_domain.staging if fault_domain is not None else None
    rngs = {
        "failures": getattr(session.failure_model, "rng", None),
        "staging": staging.rng if staging is not None else None,
        "hangs": fault_domain._hang_rng if fault_domain is not None else None,
        "watchdog_backoff": (
            watchdog.retry.rng if watchdog is not None else None
        ),
    }
    return {name: rng for name, rng in rngs.items() if rng is not None}


def _capture_rng(emm) -> Dict[str, object]:
    rng_blob: Dict[str, object] = {"amm": emm.amm.rng.state_dict()}
    for name, rng in _session_rngs(emm.session).items():
        rng_blob[name] = rng.bit_generator.state
    return rng_blob


def _capture_obs(emm) -> Optional[Dict[str, object]]:
    """Fixed-size observability state: the registry, the ladder and the
    run log's phase sums.

    None when the registry is disabled (a ``NullRegistry``) — restoring then
    degrades gracefully to EMM-state-only resume.
    """
    if not emm.metrics.enabled:
        return None
    blob = {"registry": emm.metrics.state_dict()}
    ladder = getattr(emm, "ladder", None)
    if ladder is not None:
        blob["ladder"] = ladder.state_dict()
    if emm.run_log is not None:
        blob["phase_totals"] = dict(emm.run_log.totals)
    return blob


def _capture_watchdog(emm) -> Optional[Dict[str, object]]:
    watchdog = getattr(emm.session, "watchdog", None)
    if watchdog is None:
        return None
    return watchdog.state_dict()


def _capture_accounting(emm) -> Dict[str, float]:
    return {
        "md_core_seconds": emm.md_core_seconds,
        "exchange_core_seconds": emm.exchange_core_seconds,
        "n_failures": emm.n_failures,
        "n_relaunches": emm.n_relaunches,
        "n_retired": emm.n_retired,
        "n_spawned": emm.n_spawned,
    }


@dataclass
class Checkpoint:
    """One quiet-point snapshot of a run (cycle boundary or quiesce),
    with the journal prefix it depends on."""

    config_hash: str
    title: str
    #: first cycle the resumed run executes (synchronous pattern; for the
    #: asynchronous pattern this is the least-progressed replica's next
    #: cycle, informational only)
    next_cycle: int
    t_start: float
    #: virtual time of the snapshot (the quiet point)
    t_now: float
    replicas: List[Dict] = field(default_factory=list)
    exchange_stats: Dict[str, Dict] = field(default_factory=dict)
    accounting: Dict[str, float] = field(default_factory=dict)
    rng: Dict[str, object] = field(default_factory=dict)
    #: which EMM took the snapshot: "synchronous" | "asynchronous"
    pattern: str = "synchronous"
    #: async event-loop state (quiesce snapshots only), as
    #: :meth:`AsyncState.to_dict <repro.core.emm.AsyncState.to_dict>` wrote it
    async_state: Optional[Dict[str, object]] = None
    #: fixed-size observability state (registry, ladder); None when obs off
    obs: Optional[Dict[str, object]] = None
    #: watchdog supervision state (learned cohort durations, heartbeat
    #: phase); None when the watchdog is disabled
    watchdog_state: Optional[Dict[str, object]] = None
    #: scheduled crash/preemption events fired by the quiet point; those
    #: at exactly ``t_now`` may or may not have fired before the capture
    faults_fired: int = 0
    #: the journal prefix this snapshot depends on: ``bytes`` and ``sha256``
    journal: Dict[str, object] = field(default_factory=dict)
    #: sha256 over the canonical JSON dump (sans this field); verified on
    #: load so silent on-disk corruption fails loudly instead of
    #: resuming from garbage
    checksum: Optional[str] = None
    schema_version: int = SCHEMA_VERSION

    # Not fields, so never serialized: the journal holding this snapshot's
    # prefix (None for a bare :meth:`from_json` parse), the prefix's line
    # count, and the file :meth:`load` read the snapshot from.
    _journal = None
    _n_lines = 0
    _source = None

    # -- capture -------------------------------------------------------------

    @classmethod
    def capture(cls, emm) -> "Checkpoint":
        """Snapshot ``emm`` at a quiet point, journaling what grew since
        its previous capture.

        A synchronous EMM is at a cycle boundary (its ``next_cycle`` not
        yet run); an asynchronous one at a quiesce point — nothing in
        flight, no exchange in progress — so the clock replay on restore
        sees the same pending-event picture the capture did.
        """
        if emm.journal is None:
            emm.journal = Journal()
        journal = emm.journal
        journal.append(_journal_line(emm, journal))
        pattern = emm.config.pattern.kind
        state = emm.state if pattern == "asynchronous" else None
        fault_domain = getattr(emm.session, "fault_domain", None)
        ckpt = cls(
            config_hash=config_hash(emm.config),
            title=emm.config.title,
            next_cycle=emm.next_cycle if state is None else state.next_cycle,
            t_start=emm.t_start,
            t_now=emm.session.now,
            replicas=[_replica_to_dict(r) for r in emm.replicas],
            exchange_stats={
                name: {"attempted": s.attempted, "accepted": s.accepted}
                for name, s in emm.amm.exchange_stats.items()
            },
            accounting=_capture_accounting(emm),
            rng=_capture_rng(emm),
            pattern=pattern,
            async_state=state.to_dict() if state is not None else None,
            obs=_capture_obs(emm),
            watchdog_state=_capture_watchdog(emm),
            faults_fired=(
                fault_domain.n_fired if fault_domain is not None else 0
            ),
            journal={"bytes": journal.size, "sha256": journal.sha256},
        )
        ckpt._journal = journal
        ckpt._n_lines = len(journal.lines)
        return ckpt

    # -- (de)serialization ---------------------------------------------------

    @staticmethod
    def _content_checksum(data: Dict[str, object]) -> str:
        """sha256 of the canonical dump with the checksum field removed."""
        blob = {k: v for k, v in data.items() if k != "checksum"}
        return hashlib.sha256(_dumps(blob).encode()).hexdigest()

    def to_json(self) -> str:
        """The snapshot's JSON text (floats at full ``repr`` precision, so
        times and coordinates round-trip bit-exactly), stamped with the
        content checksum."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["checksum"] = self._content_checksum(data)
        return _dumps(data)

    @classmethod
    def from_json(cls, text: str) -> "Checkpoint":
        """Parse and verify snapshot text; the result has no journal, so
        it can be inspected and checked against a config but not
        restored (:meth:`load` reads both)."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"invalid checkpoint JSON: {exc}") from None
        if not isinstance(data, dict):
            raise CheckpointError("checkpoint must be a JSON object")
        version = data.get("schema_version")
        if version not in SUPPORTED_VERSIONS:
            raise CheckpointError(
                f"checkpoint schema version {version!r} is not supported "
                f"(this build reads versions "
                f"{', '.join(str(v) for v in SUPPORTED_VERSIONS)})"
            )
        try:
            ckpt = cls(**data)
        except TypeError as exc:
            raise CheckpointError(f"malformed checkpoint: {exc}") from None
        ckpt.validate()
        # Verified last: structural damage gets its specific error above;
        # the checksum catches the silent kind — a flipped bit in a
        # coordinate or RNG word that still parses and validates.
        expected = cls._content_checksum(data)
        if ckpt.checksum != expected:
            recorded = (
                f"{ckpt.checksum[:12]}…"
                if isinstance(ckpt.checksum, str)
                else repr(ckpt.checksum)
            )
            raise CheckpointError(
                f"checkpoint content checksum mismatch (recorded "
                f"{recorded}, content hashes to "
                f"{expected[:12]}…) — the file was corrupted after it "
                f"was written"
            )
        return ckpt

    def validate(self) -> None:
        """Eagerly parse every block, raising :class:`CheckpointError`.

        Catches truncated or hand-edited snapshots at load time with one
        clear error instead of a bare ``KeyError``/``TypeError`` deep in
        restore.
        """
        try:
            if self.pattern not in ("synchronous", "asynchronous"):
                raise ValueError(f"unknown pattern {self.pattern!r}")
            for d in self.replicas:
                _replica_from_dict(d)
            for name, counts in self.exchange_stats.items():
                int(counts["attempted"])
                int(counts["accepted"])
            for key in (
                "md_core_seconds",
                "exchange_core_seconds",
                "n_failures",
                "n_relaunches",
                "n_retired",
                "n_spawned",
            ):
                float(self.accounting[key])
            if not isinstance(self.rng, dict) or "amm" not in self.rng:
                raise KeyError("rng['amm']")
            float(self.t_start)
            float(self.t_now)
            int(self.faults_fired)
            if int(self.journal["bytes"]) < 0:
                raise ValueError("journal prefix length is negative")
            if not isinstance(self.journal["sha256"], str):
                raise TypeError("journal sha256 must be a string")
            if self.pattern == "asynchronous":
                # parsing alone: the cycle target only feeds the done count
                AsyncState.from_dict(self.async_state, n_cycles=0)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(
                f"corrupted checkpoint: {type(exc).__name__}: {exc}"
            ) from None

    def check_resumes(self, config) -> None:
        """Raise :class:`CheckpointError` unless this snapshot can continue
        a run of ``config``: same pattern, same configuration, work left."""
        if self.pattern != config.pattern.kind:
            raise CheckpointError(
                f"checkpoint was taken by the {self.pattern} pattern but "
                f"this run uses the {config.pattern.kind} pattern"
            )
        if self.config_hash != config_hash(config):
            raise CheckpointError(
                f"checkpoint was taken from a different configuration "
                f"(hash {self.config_hash} != {config_hash(config)})"
            )
        if self.pattern == "asynchronous":
            state = AsyncState.from_dict(self.async_state, config.n_cycles)
            complete = state.finished
        else:
            complete = self.next_cycle >= config.n_cycles
        if complete:
            raise CheckpointError(
                f"checkpoint is already complete (every replica has run "
                f"all {config.n_cycles} cycles)"
            )

    def journaled(self) -> Dict[str, object]:
        """The journaled part of the run at this snapshot, read back from
        its journal prefix: ``history`` (rid -> records before the last),
        ``timings``, ``proposals``, and the obs ``rows`` (v4 unit rows),
        ``samples``, ``spans`` and ``faults``."""
        if self._journal is None:
            raise CheckpointError(
                "checkpoint has no journal: load it with Checkpoint.load "
                "from its directory"
            )
        return _read_entries(self._journal.lines[: self._n_lines])

    def save(self, path) -> str:
        """Write the snapshot to ``path``; returns its text.

        First the journal beside it (``journal.jsonl``) is brought up to
        this snapshot's prefix — appending only lines not yet there —
        then the snapshot lands under a temporary name and is moved into
        place with ``os.replace``, so a kill mid-write can never leave a
        half-written file where a loadable checkpoint used to be.
        """
        if self._journal is None:
            raise CheckpointError("checkpoint has no journal to save with")
        path = Path(path)
        self._journal.sync(path.with_name(JOURNAL_NAME), self._n_lines)
        text = self.to_json()
        _write_atomic(path, text)
        return text

    @classmethod
    def load(cls, path) -> "Checkpoint":
        """Read a snapshot from ``path`` and its journal prefix from the
        ``journal.jsonl`` beside it; a ``latest.json`` pointer loads the
        snapshot it names.

        Truncated, bit-flipped or otherwise mangled files — the snapshot
        or the prefix it depends on, or a missing journal — fail here
        with a ``corrupt checkpoint at <path>`` error naming the file,
        rather than surfacing as a confusing failure deep inside restore
        or a resume from the wrong data.  Journal bytes past the prefix
        are ignored.
        """
        path = Path(path)
        try:
            text = path.read_text()
            if path.name == LATEST_NAME:
                # a pointer, unless it is a snapshot itself (an old copy)
                name = json.loads(text).get("snapshot")
                if isinstance(name, str):
                    path = path.with_name(name)
                    text = path.read_text()
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint: {exc}") from None
        except (AttributeError, ValueError) as exc:
            raise CheckpointError(
                f"corrupt checkpoint at {path}: {type(exc).__name__}: {exc}"
            ) from None
        try:
            ckpt = cls.from_json(text)
            journal = Journal.read(path.with_name(JOURNAL_NAME), ckpt.journal)
        except CheckpointError as exc:
            raise CheckpointError(
                f"corrupt checkpoint at {path}: {exc}"
            ) from None
        ckpt._journal = journal
        ckpt._n_lines = len(journal.lines)
        ckpt._source = path
        return ckpt


def restore(emm, ckpt: Checkpoint) -> None:
    """Overwrite ``emm``'s run state from ``ckpt``, for either pattern.

    Must be called after the pilot is ACTIVE and before the run loop
    starts, with a snapshot :meth:`Checkpoint.check_resumes` accepted for
    this run.  Sets the replicas, stats, accounting, RNG and obs state,
    plus the EMM's ``t_start``, ``timings``, ``proposals``, its
    ``journal`` (a copy of the snapshot's prefix) and its position:
    ``next_cycle`` (synchronous) or ``state``, an
    :class:`~repro.core.emm.AsyncState` (asynchronous).  The virtual
    clock is replayed to the checkpoint time: events before it fire
    (re-arming deterministic fault schedules, re-quarantining crashed
    nodes), and of those at exactly that time only the fault-schedule
    events the capturing run had fired; the rest stay pending, exactly as
    at the original quiet point.
    """
    grown = ckpt.journaled()
    history = grown["history"]
    emm.replicas = [
        _replica_from_dict(
            d, history.get(int(d["rid"]), ()), emm.amm.shared_windows
        )
        for d in ckpt.replicas
    ]
    for name, counts in ckpt.exchange_stats.items():
        if name not in emm.amm.exchange_stats:
            raise CheckpointError(
                f"checkpoint has exchange stats for unknown dimension "
                f"{name!r}"
            )
        stats = emm.amm.exchange_stats[name]
        stats.attempted = int(counts["attempted"])
        stats.accepted = int(counts["accepted"])

    acct = ckpt.accounting
    emm.md_core_seconds = float(acct["md_core_seconds"])
    emm.exchange_core_seconds = float(acct["exchange_core_seconds"])
    emm.n_failures = int(acct["n_failures"])
    emm.n_relaunches = int(acct["n_relaunches"])
    emm.n_retired = int(acct["n_retired"])
    emm.n_spawned = int(acct["n_spawned"])

    emm.amm.rng.load_state(ckpt.rng["amm"])
    for name, rng in _session_rngs(emm.session).items():
        if name in ckpt.rng:
            rng.bit_generator.state = ckpt.rng[name]

    _replay_clock(emm.session, ckpt.t_now, ckpt.faults_fired)
    # after the replay: it re-arms the heartbeat at its captured time
    watchdog = getattr(emm.session, "watchdog", None)
    if watchdog is not None and ckpt.watchdog_state is not None:
        watchdog.load_state(ckpt.watchdog_state)
    _restore_obs(emm, ckpt.obs, grown)

    emm.t_start = ckpt.t_start
    emm.timings = [CycleTiming(**d) for d in grown["timings"]]
    emm.proposals = [SwapProposal(*p) for p in grown["proposals"]]
    if ckpt.pattern == "asynchronous":
        emm.state = AsyncState.from_dict(ckpt.async_state, emm.config.n_cycles)
    else:
        emm.next_cycle = ckpt.next_cycle

    journal = emm.journal = ckpt._journal.fork(ckpt)
    journal.marks = _marks(emm)


def _replay_clock(session, t_now: float, faults_fired: int) -> None:
    """Replay the virtual clock to the quiet point.

    Deterministic periodic events (fault schedule) refire harmlessly
    against the still-empty scheduler.  At exactly ``t_now`` the fault
    schedule fires on until ``faults_fired`` of its events have (a crash
    can strike at the very instant a drain ends); anything else there
    stays pending, as at the original quiet point.
    """
    clock = session.clock
    fault_domain = getattr(session, "fault_domain", None)
    while True:
        t = clock.next_event_time()
        if t is None or t > t_now:
            break
        if t == t_now and (
            fault_domain is None or fault_domain.n_fired >= faults_fired
        ):
            break
        clock.step()
    clock.advance_to(t_now)


def _restore_obs(emm, obs: Optional[Dict[str, object]], grown) -> None:
    """Swap the replayed observability state for the captured one.

    Must run *after* :func:`_replay_clock`: the replay re-increments
    fault counters and re-records fault events, and overwriting
    afterwards leaves exactly the history the uninterrupted run had at
    the quiet point.
    """
    if not obs:
        return
    if emm.metrics.enabled:
        emm.metrics.load_state(
            obs["registry"], grown["samples"], grown["spans"]
        )
    if emm.run_log is not None:
        emm.run_log.restore(grown["rows"], obs["phase_totals"])
    fault_domain = getattr(emm.session, "fault_domain", None)
    if fault_domain is not None:
        fault_domain.load_events(grown["faults"])
    ladder = getattr(emm, "ladder", None)
    if ladder is not None:
        ladder.load_state(obs["ladder"])
