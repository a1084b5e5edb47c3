"""Campaign service: spec in, report out.

:func:`run_campaign` is to a campaign what
:meth:`RepEx.run() <repro.core.framework.RepEx.run>` is to one
simulation: it expands every tenant's parameter grid into session
requests, drives the :class:`~repro.campaign.arbiter.Arbiter` to
completion, and returns a :class:`CampaignReport` carrying per-tenant
accounting, the audit log, and an aggregated OpenMetrics exposition in
which every per-session metric is summed per tenant under a
``{tenant=...}`` label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Union

from repro.campaign.arbiter import (
    Arbiter,
    SessionOutcome,
    SessionRecord,
    SessionRequest,
    SessionState,
)
from repro.campaign.grid import expand_grid
from repro.campaign.spec import CampaignSpec
from repro.obs.export import format_label, openmetrics_snapshot

#: fallback when a session config omits the resource section entirely
#: (matches :class:`repro.core.config.ResourceSpec`'s default)
_DEFAULT_CORES = 64


def session_cores(config: Dict) -> int:
    """The pilot core count a session config dict implies."""
    resource = config.get("resource") or {}
    return int(resource.get("cores", _DEFAULT_CORES))


def expand_requests(spec: CampaignSpec) -> List[SessionRequest]:
    """Every session of the campaign, in deterministic submission order.

    Each tenant's grid expands via :func:`~repro.campaign.grid.expand_grid`
    (times ``repeat``); the per-tenant lists are then interleaved
    round-robin in tenant declaration order, so bounded-queue admission
    rejects proportionally instead of starving whoever was declared
    last.
    """
    per_tenant: List[List[SessionRequest]] = []
    for tenant in spec.tenants:
        configs = expand_grid(tenant.base, tenant.grid) * tenant.repeat
        per_tenant.append(
            [
                SessionRequest(
                    uid=f"{tenant.name}-{i:04d}",
                    tenant=tenant.name,
                    cores=session_cores(config),
                    payload=config,
                )
                for i, config in enumerate(configs)
            ]
        )
    requests: List[SessionRequest] = []
    for round_idx in range(max(len(reqs) for reqs in per_tenant)):
        for reqs in per_tenant:
            if round_idx < len(reqs):
                requests.append(reqs[round_idx])
    return requests


@dataclass
class CampaignReport:
    """Everything a finished campaign reports."""

    title: str
    seed: int
    records: List[SessionRecord]
    audit: List[Dict]
    #: per-tenant accounting: state counts, core-seconds, manifests
    tenants: Dict[str, Dict] = field(default_factory=dict)
    totals: Dict[str, float] = field(default_factory=dict)
    #: aggregated registry-shaped snapshot (``{tenant=...}`` labelled)
    metrics: Dict[str, Dict] = field(default_factory=dict)

    @property
    def n_rejected(self) -> int:
        """Sessions refused by admission control."""
        return sum(
            1 for r in self.records if r.state is SessionState.REJECTED
        )

    def openmetrics(self) -> str:
        """The aggregated metrics in OpenMetrics text exposition."""
        return openmetrics_snapshot(self.metrics)

    def to_dict(self) -> Dict:
        """JSON-safe summary (records collapsed to their key fields)."""
        return {
            "title": self.title,
            "seed": self.seed,
            "tenants": self.tenants,
            "totals": self.totals,
            "sessions": [
                {
                    "uid": r.request.uid,
                    "tenant": r.request.tenant,
                    "cores": r.request.cores,
                    "state": r.state.value,
                    "t_submit": r.t_submit,
                    "t_end": r.t_end,
                    "core_seconds": r.core_seconds,
                    "relaunches": r.relaunches,
                    "attempts": r.attempts,
                    "reject_reason": r.reject_reason,
                }
                for r in self.records
            ],
            "audit": self.audit,
        }


def _with_tenant_label(name: str, tenant: str) -> str:
    """Append a ``tenant`` label to a registry metric name.

    Tenant names containing label metacharacters (``,``, ``=``, ``}``,
    quotes) are quoted and escaped so the resulting series name stays
    parseable; plain names render bare exactly as before.
    """
    label = format_label("tenant", tenant)
    if name.endswith("}"):
        return f"{name[:-1]},{label}}}"
    return f"{name}{{{label}}}"


def _aggregate_metrics(
    spec: CampaignSpec, records: List[SessionRecord], arbiter: Arbiter
) -> Dict[str, Dict]:
    """Registry-shaped campaign snapshot: arbiter counters + summed
    per-session counters, every series labelled by tenant."""
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}

    def bump(name: str, value: float) -> None:
        counters[name] = counters.get(name, 0.0) + value

    usage = arbiter.tenant_usage()
    for tenant in spec.tenants:
        name = tenant.name
        bump(_with_tenant_label("campaign.core_seconds", name), usage[name])
    for record in records:
        tenant = record.request.tenant
        state = record.state.value.lower()
        bump(
            "campaign.sessions{"
            f"{format_label('state', state)},{format_label('tenant', tenant)}"
            "}",
            1,
        )
        bump(_with_tenant_label("campaign.relaunches", tenant),
             record.relaunches)
        outcome = record.outcome
        if outcome is not None:
            bump(_with_tenant_label("campaign.inner_events", tenant),
                 outcome.events_fired)
            for raw, value in outcome.counters.items():
                bump(_with_tenant_label(raw, tenant), value)
    makespan = arbiter.clock.now
    capacity = spec.datacenter.total_cores * makespan
    gauges["campaign.makespan_s"] = makespan
    gauges["campaign.busy_core_seconds"] = arbiter.busy_core_seconds
    gauges["campaign.utilization"] = (
        arbiter.busy_core_seconds / capacity if capacity > 0 else 0.0
    )
    gauges["campaign.nodes"] = float(spec.datacenter.nodes)
    return {"counters": counters, "gauges": gauges, "histograms": {}}


def run_campaign(
    spec: CampaignSpec,
    *,
    runner: Optional[Callable[[SessionRequest], SessionOutcome]] = None,
    manifest_dir: Optional[Union[str, Path]] = None,
) -> CampaignReport:
    """Expand, arbitrate and execute one campaign; return its report.

    Deterministic end to end: the same spec (and runner) produces the
    same audit log, the same per-tenant manifests on disk, and the same
    OpenMetrics bytes.  ``runner`` defaults to the real
    :func:`~repro.campaign.runner.repex_runner`; property and scale
    tests inject stubs.
    """
    if runner is None:
        from repro.campaign.runner import repex_runner

        runner = repex_runner(manifest_dir)
    arbiter = Arbiter(
        spec.datacenter,
        spec.tenants,
        faults=spec.faults,
        queue_limit=spec.queue_limit,
        relaunch_limit=spec.relaunch_limit,
        seed=spec.seed,
    )
    # Install the runner before submission so sessions start (and free
    # queue slots) while the backlog is still being admitted.
    arbiter.prepare(runner)
    for request in expand_requests(spec):
        arbiter.submit(request)
    records = arbiter.run(runner)

    tenants: Dict[str, Dict] = {}
    usage = arbiter.tenant_usage()
    for tenant in spec.tenants:
        name = tenant.name
        mine = [r for r in records if r.request.tenant == name]
        states: Dict[str, int] = {}
        for record in mine:
            key = record.state.value.lower()
            states[key] = states.get(key, 0) + 1
        summary: Dict[str, object] = {
            "sessions": len(mine),
            "states": states,
            "core_seconds": usage[name],
            "relaunches": sum(r.relaunches for r in mine),
        }
        if manifest_dir is not None:
            summary["manifests"] = sorted(
                str(Path(name) / f"{r.request.uid}.jsonl")
                for r in mine
                if r.state is SessionState.DONE
            )
        tenants[name] = summary

    makespan = arbiter.clock.now
    capacity = spec.datacenter.total_cores * makespan
    totals = {
        "sessions": float(len(records)),
        "makespan_s": makespan,
        "busy_core_seconds": arbiter.busy_core_seconds,
        "utilization": (
            arbiter.busy_core_seconds / capacity if capacity > 0 else 0.0
        ),
    }
    return CampaignReport(
        title=spec.title,
        seed=spec.seed,
        records=records,
        audit=arbiter.audit,
        tenants=tenants,
        totals=totals,
        metrics=_aggregate_metrics(spec, records, arbiter),
    )
