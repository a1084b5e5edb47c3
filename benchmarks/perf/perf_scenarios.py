"""Canonical benchmark scenarios for ``perfbench.py``.

Each scenario pins one hot path of the simulator at a scale where the
framework itself — scheduler, event queue, exchange sweep — dominates the
run, not the toy MD numerics:

- ``1d-sync-1024``: the paper's weak-scaling shape, 1024 T-REMD replicas
  on 1024 cores, synchronous barrier.  Stresses the per-cycle fan-out
  (placement + staging pipeline) and the barrier wait predicate.
- ``1d-sync-1024-straggler``: the same shape with one 4x-slow node, the
  gray-failure watchdog (speculative relaunch) and a deadline-bounded
  barrier.  Stresses per-attempt deadline events, the straggler scan,
  and the late-replica collection path.
- ``mremd-3d-256``: 3-dimensional TUU (4x8x8) on Stampede.  Stresses the
  multi-group exchange sweep and the round-robin dimension schedule.
- ``async-fifo-512``: 512 replicas on half as many cores with the FIFO
  asynchronous criterion.  Stresses the waiting-queue/backfill path and
  the async EMM's completion bookkeeping.
- ``chaos-preempt-256``: synchronous run through a pilot preemption with
  requeue + relaunch.  Stresses event cancellation (dead-event heap
  growth) and the fault/recovery paths.
- ``campaign-256``: a four-tenant campaign of 256 small sessions on a
  shared 64-core datacenter with two injected node crashes.  Stresses
  the two-level DES — the arbiter's dispatch/placement/fault loop
  outside, hundreds of short inner simulations within one process.

Every scenario sets ``numeric_steps=1`` so the virtual clock still bills
the paper's 6000-step cycles while the wallclock measures framework
throughput (DESIGN.md decision 1), and the runner installs a null metrics
registry — the same convention the figure benchmarks use.  ``fast``
variants shrink the replica counts ~8x for CI smoke runs; fast and full
events/s are not comparable with each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Union

from repro.campaign.spec import (
    CampaignSpec,
    DatacenterSpec,
    FaultSpec,
    TenantSpec,
)
from repro.core.config import (
    DimensionSpec,
    FailureSpec,
    PatternSpec,
    ResourceSpec,
    SimulationConfig,
    WatchdogSpec,
)


#: what a scenario's builder may return — one simulation or a campaign
Buildable = Union[SimulationConfig, CampaignSpec]


@dataclass(frozen=True)
class Scenario:
    """One named benchmark configuration (full and fast variants)."""

    name: str
    description: str
    build: Callable[[bool], Buildable]


def _temperature(n_windows: int) -> DimensionSpec:
    return DimensionSpec(
        kind="temperature", n_windows=n_windows,
        min_value=300.0, max_value=400.0,
    )


def _sync_1d(fast: bool) -> SimulationConfig:
    n = 128 if fast else 1024
    return SimulationConfig(
        title="bench-1d-sync",
        dimensions=[_temperature(n)],
        resource=ResourceSpec(name="supermic", cores=n),
        n_cycles=2,
        numeric_steps=1,
        seed=2016,
    )


def _sync_1d_straggler(fast: bool) -> SimulationConfig:
    # The weak-scaling shape under gray failure: one 4x-slow node (20
    # replicas on SuperMIC), the watchdog's heartbeat scan + speculative
    # duplicates racing the stragglers, and a 300s barrier deadline so
    # the exchange proceeds over the ~n-20 on-time replicas while the
    # late ones rejoin next cycle.  Stresses the deadline-event churn
    # (one armed/cancelled per execution), the straggler scan at cohort
    # scale, and the bounded-barrier late-collection path.
    n = 128 if fast else 1024
    return SimulationConfig(
        title="bench-1d-sync-straggler",
        dimensions=[_temperature(n)],
        resource=ResourceSpec(name="supermic", cores=n),
        pattern=PatternSpec(kind="synchronous", barrier_deadline_s=300.0),
        failure=FailureSpec(policy="continue", slow_nodes=[[0, 4.0]]),
        watchdog=WatchdogSpec(
            enabled=True, deadline_factor=6.0, speculative=True
        ),
        n_cycles=2,
        numeric_steps=1,
        seed=2016,
    )


def _mremd_3d(fast: bool) -> SimulationConfig:
    t, u = (2, 4) if fast else (4, 8)
    dims = [
        _temperature(t),
        DimensionSpec(
            kind="umbrella", n_windows=u, min_value=0.0, max_value=360.0,
            angle="phi",
        ),
        DimensionSpec(
            kind="umbrella", n_windows=u, min_value=0.0, max_value=360.0,
            angle="psi",
        ),
    ]
    n = t * u * u
    return SimulationConfig(
        title="bench-mremd-3d",
        dimensions=dims,
        resource=ResourceSpec(name="stampede", cores=n),
        n_cycles=3,  # one full round-robin over the three dimensions
        numeric_steps=1,
        seed=2016,
    )


def _async_fifo(fast: bool) -> SimulationConfig:
    n = 64 if fast else 512
    return SimulationConfig(
        title="bench-async-fifo",
        dimensions=[_temperature(n)],
        resource=ResourceSpec(name="supermic", cores=n // 2),
        pattern=PatternSpec(kind="asynchronous", fifo_count=n // 8),
        n_cycles=2,
        numeric_steps=1,
        seed=2016,
    )


def _chaos_preempt(fast: bool) -> SimulationConfig:
    n = 32 if fast else 256
    return SimulationConfig(
        title="bench-chaos-preempt",
        dimensions=[_temperature(n)],
        resource=ResourceSpec(name="supermic", cores=n),
        failure=FailureSpec(
            policy="relaunch",
            preempt_after_s=60.0,
            requeue_on_preempt=True,
        ),
        n_cycles=2,
        numeric_steps=1,
        seed=2016,
    )


def _campaign_256(fast: bool) -> CampaignSpec:
    # 4 tenants x (2 patterns x 2 ladders) x repeat: 256 sessions full,
    # 32 fast.  Each session is a real-but-tiny inner simulation; the
    # quota caps give every tenant exactly a quarter of the datacenter,
    # so the fair-share loop stays busy for the whole campaign.
    repeat = 2 if fast else 16

    def base(index: int) -> dict:
        return {
            "title": f"bench-campaign-{index}",
            "dimensions": [
                {
                    "kind": "temperature",
                    "n_windows": 2,
                    "min_value": 300.0,
                    "max_value": 330.0 + 10.0 * index,
                }
            ],
            "resource": {"name": "small-cluster", "cores": 4},
            "n_cycles": 1,
            "steps_per_cycle": 500,
            "numeric_steps": 1,
            "sample_stride": 0,
            "seed": 2016 + index,
        }

    tenants = [
        TenantSpec(
            name=f"group{i}",
            weight=1.0 + (i % 2),
            priority=i % 2,
            quota_cores=16,
            base=base(i),
            grid={
                "pattern.kind": ["synchronous", "asynchronous"],
                "dimensions.0.n_windows": [2, 3],
            },
            repeat=repeat,
        )
        for i in range(4)
    ]
    return CampaignSpec(
        title="bench-campaign",
        seed=2016,
        datacenter=DatacenterSpec(nodes=8, cores_per_node=8, repair_s=60.0),
        faults=FaultSpec(node_crashes=[[20.0, 0], [75.0, 3]]),
        tenants=tenants,
        relaunch_limit=2,
    )


SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "1d-sync-1024",
            "1024-replica synchronous T-REMD on 1024 cores (SuperMIC)",
            _sync_1d,
        ),
        Scenario(
            "1d-sync-1024-straggler",
            "1024-replica sync T-REMD with a 4x-slow node, watchdog "
            "speculation and a 300s barrier deadline",
            _sync_1d_straggler,
        ),
        Scenario(
            "mremd-3d-256",
            "3D TUU 4x8x8 multi-dimensional REMD on Stampede",
            _mremd_3d,
        ),
        Scenario(
            "async-fifo-512",
            "512-replica asynchronous FIFO-criterion REMD, 2x oversubscribed",
            _async_fifo,
        ),
        Scenario(
            "chaos-preempt-256",
            "256-replica synchronous run through pilot preemption + requeue",
            _chaos_preempt,
        ),
        Scenario(
            "campaign-256",
            "4-tenant campaign, 256 sessions on 64 shared cores, 2 crashes",
            _campaign_256,
        ),
    )
}


def scenario_names() -> List[str]:
    """Registry order, the order scenarios run and report in."""
    return list(SCENARIOS)
