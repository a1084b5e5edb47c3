"""``repro obs tail``: render a live record stream as a status table.

The telemetry plane emits one JSON record per happening — unit state
transitions (``kind=event``), fault injections (``kind=fault``), alert
transitions (``kind=alert``), campaign arbiter audit entries
(``kind=campaign``).  A dumped (schema v4) manifest has no ``event``
records; its ``unit`` rows carry each unit's transitions instead, and
fold the same way.  This module turns that stream into the operator
view: a per-tenant session table for campaigns, a per-phase unit table
for single runs, the currently-firing alerts, and fault counts.

The aggregation (:class:`TailTable`) is a pure fold over records so it
is unit-testable without sockets; the CLI feeds it from either a live
``/events`` HTTP endpoint (:func:`iter_http_records`) or a streamed
manifest JSONL file on disk (:func:`iter_file_records`, optionally
following the file as it grows).
"""

from __future__ import annotations

import json
import time
import urllib.request
from typing import Dict, Iterator, Optional

from repro.obs.export import STATE_ORDER, unit_phase

__all__ = ["TailTable", "iter_file_records", "iter_http_records"]

#: unit states that end a unit's life
_FINAL_UNIT_STATES = frozenset({"DONE", "FAILED", "CANCELED"})

#: campaign audit events mapped to the session state they imply
_SESSION_STATE = {
    "submit": "queued",
    "start": "running",
    "done": "done",
    "failed": "failed",
    "reject": "rejected",
    "relaunch": "queued",
    "killed": "killed",
}


class TailTable:
    """Folds stream records into a renderable status snapshot."""

    def __init__(self):
        self.t = 0.0
        self.n_records = 0
        #: unit name -> current state (single-run view)
        self._unit_state: Dict[str, str] = {}
        #: phase -> {"active": n, "done": n, "failed": n}
        self.phases: Dict[str, Dict[str, int]] = {}
        #: tenant -> {session state -> count}
        self.tenants: Dict[str, Dict[str, int]] = {}
        self._session_state: Dict[str, str] = {}
        self._session_tenant: Dict[str, str] = {}
        self.alerts_firing: Dict[str, Dict] = {}
        self.n_alert_transitions = 0
        self.n_faults = 0

    # -- folding -------------------------------------------------------------

    def ingest(self, record: Dict) -> None:
        """Fold one stream record into the table."""
        self.n_records += 1
        t = record.get("t")
        if isinstance(t, (int, float)):
            self.t = max(self.t, float(t))
        kind = record.get("kind")
        if kind == "event":
            self._ingest_unit(record)
        elif kind == "unit" and isinstance(record.get("t"), list):
            name = record.get("name")
            for state, t in zip(STATE_ORDER, record["t"]):
                if isinstance(t, (int, float)):
                    self.t = max(self.t, float(t))
                    self._ingest_unit({"unit": name, "state": state})
        elif kind == "campaign":
            self._ingest_campaign(record)
        elif kind == "alert":
            self._ingest_alert(record)
        elif kind == "fault":
            self.n_faults += 1

    def _ingest_unit(self, record: Dict) -> None:
        unit = record.get("unit")
        state = record.get("state")
        if not unit or not state:
            return
        phase = unit_phase(unit, None) or "other"
        counts = self.phases.setdefault(
            phase, {"active": 0, "done": 0, "failed": 0}
        )
        prev = self._unit_state.get(unit)
        self._unit_state[unit] = state
        if prev is None and state not in _FINAL_UNIT_STATES:
            counts["active"] += 1
        if state in _FINAL_UNIT_STATES:
            if prev is not None and prev not in _FINAL_UNIT_STATES:
                counts["active"] -= 1
            if state == "DONE":
                counts["done"] += 1
            elif state == "FAILED":
                counts["failed"] += 1

    def _ingest_campaign(self, record: Dict) -> None:
        uid = record.get("uid")
        new_state = _SESSION_STATE.get(record.get("event", ""))
        if uid is None or new_state is None:
            return
        tenant = record.get("tenant") or self._session_tenant.get(uid, "-")
        self._session_tenant[uid] = tenant
        counts = self.tenants.setdefault(tenant, {})
        prev = self._session_state.get(uid)
        if prev is not None:
            counts[prev] = counts.get(prev, 1) - 1
        self._session_state[uid] = new_state
        counts[new_state] = counts.get(new_state, 0) + 1

    def _ingest_alert(self, record: Dict) -> None:
        self.n_alert_transitions += 1
        rule = record.get("rule", "?")
        if record.get("state") == "firing":
            self.alerts_firing[rule] = record
        else:
            self.alerts_firing.pop(rule, None)

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """The current status table as a multi-line string."""
        lines = [
            f"t={self.t:.1f}s (virtual)  records={self.n_records}  "
            f"faults={self.n_faults}"
        ]
        if self.tenants:
            states = ("queued", "running", "done", "failed", "killed", "rejected")
            header = f"  {'tenant':<16}" + "".join(f"{s:>9}" for s in states)
            lines.append(header)
            for tenant in sorted(self.tenants):
                counts = self.tenants[tenant]
                row = f"  {tenant:<16}" + "".join(
                    f"{counts.get(s, 0):>9}" for s in states
                )
                lines.append(row)
        if self.phases:
            lines.append(
                f"  {'phase':<16}{'active':>9}{'done':>9}{'failed':>9}"
            )
            for phase in sorted(self.phases):
                c = self.phases[phase]
                lines.append(
                    f"  {phase:<16}{c['active']:>9}{c['done']:>9}"
                    f"{c['failed']:>9}"
                )
        if self.alerts_firing:
            for rule in sorted(self.alerts_firing):
                rec = self.alerts_firing[rule]
                lines.append(
                    f"  ALERT {rule} firing "
                    f"(value={rec.get('value')}, "
                    f"severity={rec.get('severity', 'warning')})"
                )
        return "\n".join(lines)


def iter_http_records(
    url: str, *, limit: int = 0, timeout_s: float = 30.0
) -> Iterator[Dict]:
    """Yield records from a live ``/events`` endpoint until it closes.

    ``url`` is the server base (http://host:port) or the full /events
    path; query parameters are forwarded so the server closes the
    stream after ``limit`` records or ``timeout_s`` idle seconds.
    """
    if not url.rstrip("/").endswith("/events"):
        url = url.rstrip("/") + "/events"
    sep = "&" if "?" in url else "?"
    url = f"{url}{sep}limit={limit}&timeout_s={timeout_s}"
    with urllib.request.urlopen(url, timeout=timeout_s + 10.0) as resp:
        for raw in resp:
            line = raw.decode().strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError:
                continue  # stream cut mid-record


def iter_file_records(
    path,
    *,
    follow: bool = False,
    poll_s: float = 0.25,
    max_idle_s: float = 10.0,
) -> Iterator[Dict]:
    """Yield records from a streamed manifest JSONL file.

    With ``follow=True`` the file is tailed as it grows (host-clock
    polling), giving up after ``max_idle_s`` without new data — a
    finished stream stops growing, and a tail that never ends would
    hang CI.
    """
    idle = 0.0
    with open(path) as fh:
        while True:
            line = fh.readline()
            if line:
                idle = 0.0
                line = line.strip()
                if line:
                    try:
                        yield json.loads(line)
                    except json.JSONDecodeError:
                        continue
            elif follow and idle < max_idle_s:
                time.sleep(poll_s)
                idle += poll_s
            else:
                return
