"""Campaign configuration: tenants, datacenter, arbiter policy.

Follows the same contract as :class:`~repro.core.config.SimulationConfig`:
nested dataclasses, JSON round-trip, validation with actionable errors,
and unknown keys rejected so typos do not silently disappear.  The specs
here deliberately do **not** import the framework — the arbiter and its
property tests consume them with stub runners, no MD stack required.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Dict, List


class CampaignError(ValueError):
    """Raised for invalid or inconsistent campaign configuration."""


@dataclass
class DatacenterSpec:
    """The shared machine a campaign's sessions are placed onto.

    Nodes are the unit of both placement and failure: a session occupies
    whole or partial nodes, but a node never co-hosts two tenants (see
    :class:`~repro.campaign.arbiter.Arbiter`), and a crash takes out one
    node for ``repair_s`` seconds.
    """

    nodes: int = 16
    cores_per_node: int = 16
    #: seconds a crashed node stays quarantined before rejoining the pool
    repair_s: float = 600.0

    def __post_init__(self):
        if self.nodes <= 0:
            raise CampaignError(f"nodes must be > 0, got {self.nodes}")
        if self.cores_per_node <= 0:
            raise CampaignError(
                f"cores_per_node must be > 0, got {self.cores_per_node}"
            )
        if self.repair_s <= 0:
            raise CampaignError(f"repair_s must be > 0, got {self.repair_s}")

    @property
    def total_cores(self) -> int:
        """Total core count of the datacenter."""
        return self.nodes * self.cores_per_node


@dataclass
class FaultSpec:
    """Campaign-level fault injection (node crashes on the outer clock).

    Crash times are drawn once, at arbiter construction, from the
    campaign's seeded RNG streams — so two runs of the same spec crash
    the same nodes at the same virtual times.
    """

    #: expected crashes per node-hour (Poisson arrivals); 0 = off
    node_crash_rate: float = 0.0
    #: explicit crashes as ``[seconds, node_index]`` pairs
    node_crashes: List[List[float]] = field(default_factory=list)
    #: gray failures: ``[node_index, factor]`` pairs — every session that
    #: touches the node runs ``factor``x longer than the runner reported
    slow_nodes: List[List[float]] = field(default_factory=list)

    def __post_init__(self):
        if self.node_crash_rate < 0:
            raise CampaignError(
                f"node_crash_rate must be >= 0, got {self.node_crash_rate}"
            )
        for entry in self.node_crashes:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or entry[0] < 0
                or entry[1] < 0
            ):
                raise CampaignError(
                    "node_crashes entries must be [t >= 0, node >= 0], "
                    f"got {entry!r}"
                )
        for entry in self.slow_nodes:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or entry[0] < 0
                or entry[1] <= 1.0
            ):
                raise CampaignError(
                    "slow_nodes entries must be [node >= 0, factor > 1], "
                    f"got {entry!r}"
                )

    @property
    def enabled(self) -> bool:
        """True when any crash source is configured."""
        return self.node_crash_rate > 0 or bool(self.node_crashes)


@dataclass
class TenantSpec:
    """One tenant: identity, share, quotas, and a grid of sessions.

    ``base`` is a plain :class:`~repro.core.config.SimulationConfig`
    dict; ``grid`` maps dotted config paths to value lists and is
    expanded by :func:`~repro.campaign.grid.expand_grid` into one session
    per grid point.  Keeping these as dicts (validated only when the
    runner builds the config) keeps the spec layer import-light.
    """

    name: str
    #: fair-share weight; a tenant with weight 2 is entitled to twice the
    #: accrued core-seconds of a weight-1 tenant before yielding
    weight: float = 1.0
    #: strict tie-breaker between tenants at equal weighted usage
    priority: int = 0
    #: max cores this tenant may hold concurrently (0 = unlimited)
    quota_cores: int = 0
    #: max sessions this tenant may run concurrently (0 = unlimited)
    quota_sessions: int = 0
    base: Dict = field(default_factory=dict)
    grid: Dict[str, List] = field(default_factory=dict)
    #: replicate the expanded grid this many times (soak testing)
    repeat: int = 1

    def __post_init__(self):
        if not self.name:
            raise CampaignError("tenant name must be non-empty")
        if self.weight <= 0:
            raise CampaignError(
                f"tenant {self.name}: weight must be > 0, got {self.weight}"
            )
        if self.quota_cores < 0:
            raise CampaignError(
                f"tenant {self.name}: quota_cores must be >= 0, "
                f"got {self.quota_cores}"
            )
        if self.quota_sessions < 0:
            raise CampaignError(
                f"tenant {self.name}: quota_sessions must be >= 0, "
                f"got {self.quota_sessions}"
            )
        if self.repeat < 1:
            raise CampaignError(
                f"tenant {self.name}: repeat must be >= 1, got {self.repeat}"
            )
        if not isinstance(self.base, dict):
            raise CampaignError(f"tenant {self.name}: 'base' must be a mapping")
        if not isinstance(self.grid, dict):
            raise CampaignError(f"tenant {self.name}: 'grid' must be a mapping")
        for key, values in self.grid.items():
            if not isinstance(values, list) or not values:
                raise CampaignError(
                    f"tenant {self.name}: grid[{key!r}] must be a "
                    "non-empty list"
                )


@dataclass
class CampaignSpec:
    """Complete specification of one multi-tenant campaign."""

    title: str = "campaign"
    seed: int = 2016
    datacenter: DatacenterSpec = field(default_factory=DatacenterSpec)
    faults: FaultSpec = field(default_factory=FaultSpec)
    tenants: List[TenantSpec] = field(default_factory=list)
    #: sessions held waiting beyond this are rejected at submission
    #: (admission control); 0 = unbounded queue
    queue_limit: int = 0
    #: relaunches granted to a session killed by a node crash
    relaunch_limit: int = 2

    def __post_init__(self):
        if not self.tenants:
            raise CampaignError("at least one tenant is required")
        seen = set()
        for tenant in self.tenants:
            if tenant.name in seen:
                raise CampaignError(f"duplicate tenant name {tenant.name!r}")
            seen.add(tenant.name)
        if self.queue_limit < 0:
            raise CampaignError(
                f"queue_limit must be >= 0, got {self.queue_limit}"
            )
        if self.relaunch_limit < 0:
            raise CampaignError(
                f"relaunch_limit must be >= 0, got {self.relaunch_limit}"
            )
        for crash in self.faults.node_crashes:
            if crash[1] >= self.datacenter.nodes:
                raise CampaignError(
                    f"node_crashes names node {int(crash[1])} but the "
                    f"datacenter has only {self.datacenter.nodes} nodes"
                )
        for slow in self.faults.slow_nodes:
            if slow[0] >= self.datacenter.nodes:
                raise CampaignError(
                    f"slow_nodes names node {int(slow[0])} but the "
                    f"datacenter has only {self.datacenter.nodes} nodes"
                )

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> Dict:
        """Plain-dict form (JSON-serializable)."""
        return asdict(self)

    def to_json(self, **kwargs) -> str:
        """JSON text form."""
        return json.dumps(self.to_dict(), indent=2, **kwargs)

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignSpec":
        """Build and validate a spec from a plain dict.

        Unknown keys raise :class:`CampaignError`.
        """
        data = dict(data)

        def pop_sub(key, sub_cls, default):
            raw = data.pop(key, None)
            if raw is None:
                return default()
            if not isinstance(raw, dict):
                raise CampaignError(f"{key!r} must be a mapping")
            try:
                return sub_cls(**raw)
            except TypeError as exc:
                raise CampaignError(f"bad {key!r} section: {exc}") from None

        datacenter = pop_sub("datacenter", DatacenterSpec, DatacenterSpec)
        faults = pop_sub("faults", FaultSpec, FaultSpec)

        raw_tenants = data.pop("tenants", [])
        if not isinstance(raw_tenants, list):
            raise CampaignError("'tenants' must be a list")
        tenants = []
        for raw in raw_tenants:
            if not isinstance(raw, dict):
                raise CampaignError("each tenant must be a mapping")
            try:
                tenants.append(TenantSpec(**raw))
            except TypeError as exc:
                raise CampaignError(f"bad tenant: {exc}") from None

        known = {"title", "seed", "queue_limit", "relaunch_limit"}
        unknown = set(data) - known
        if unknown:
            raise CampaignError(f"unknown campaign keys: {sorted(unknown)}")

        return cls(
            datacenter=datacenter,
            faults=faults,
            tenants=tenants,
            **{k: v for k, v in data.items() if k in known},
        )

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Parse a JSON campaign file's contents."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CampaignError(f"invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise CampaignError("top-level JSON value must be an object")
        return cls.from_dict(data)
