"""Multi-tenant campaign service: many RepEx sessions, one datacenter.

The paper runs one REMD simulation per RADICAL-Pilot session.  Production
facilities run *campaigns*: many users (tenants) each sweeping a grid of
ladder sizes, exchange patterns and dimensions against a shared machine.
This package lifts the pilot-job abstraction one level: a
:class:`~repro.campaign.arbiter.Arbiter` owns N concurrent sessions the
way a pilot owns N concurrent tasks, arbitrating the shared simulated
datacenter between tenants with weighted fair-share + priority
scheduling, per-tenant quotas, bounded-queue admission control, and
fault-domain isolation (one tenant's node crashes never quarantine
another tenant's work).

Two-level discrete-event simulation: each RepEx session runs to
completion on its own inner virtual clock (its own
:class:`~repro.pilot.events.EventQueue` and private metrics registry),
and the session's virtual makespan becomes one atomic occupancy interval
on the *outer* campaign clock — which is itself an ``EventQueue``.
Everything is seeded, deterministic and replayable: the same
:class:`~repro.campaign.spec.CampaignSpec` always produces the same
audit log, the same per-tenant manifests and the same metrics.
"""

from repro.campaign.arbiter import (
    Arbiter,
    SessionOutcome,
    SessionRecord,
    SessionRequest,
    SessionState,
)
from repro.campaign.grid import expand_grid
from repro.campaign.runner import repex_runner
from repro.campaign.service import CampaignReport, run_campaign
from repro.campaign.spec import (
    CampaignError,
    CampaignSpec,
    DatacenterSpec,
    FaultSpec,
    TenantSpec,
)

__all__ = [
    "Arbiter",
    "CampaignError",
    "CampaignReport",
    "CampaignSpec",
    "DatacenterSpec",
    "FaultSpec",
    "SessionOutcome",
    "SessionRecord",
    "SessionRequest",
    "SessionState",
    "TenantSpec",
    "expand_grid",
    "repex_runner",
    "run_campaign",
]
