"""The session runner: how the arbiter executes one session's payload.

It builds and runs a real :class:`~repro.core.framework.RepEx`
simulation per request, each with a **private** metrics registry and its
own inner virtual clock, so dozens of sessions can execute inside one
process without sharing any mutable state.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Optional, Union

from repro.campaign.arbiter import SessionOutcome, SessionRequest
from repro.campaign.spec import CampaignError


def repex_runner(
    manifest_dir: Optional[Union[str, Path]] = None,
) -> Callable[[SessionRequest], SessionOutcome]:
    """The real thing: run each payload as a full RepEx simulation.

    The request payload must be a :class:`~repro.core.config.SimulationConfig`
    or its dict form.  Each session's ``RepEx`` records into its own fresh
    :class:`~repro.obs.metrics.MetricsRegistry`, so co-resident sessions
    (and relaunched attempts of the same session) never see each other's
    instruments; the session's virtual makespan (``result.t_end``)
    becomes its occupancy interval on the campaign clock, and its
    outcome carries the run's end-of-run counters.

    With ``manifest_dir`` set, each completed session's manifest is
    written to ``<dir>/<tenant>/<uid>.jsonl`` — the per-tenant manifest
    tree the campaign report links to — and is kept nowhere else.
    """
    # deferred so the arbiter/property-test layer never imports the MD stack
    from repro.core.config import ConfigError, SimulationConfig
    from repro.core.framework import RepEx

    out_dir = Path(manifest_dir) if manifest_dir is not None else None

    def run(request: SessionRequest) -> SessionOutcome:
        payload = request.payload
        if isinstance(payload, dict):
            try:
                config = SimulationConfig.from_dict(payload)
            except ConfigError as exc:
                raise CampaignError(
                    f"session {request.uid}: bad config: {exc}"
                ) from None
        elif isinstance(payload, SimulationConfig):
            config = payload
        else:
            raise CampaignError(
                f"session {request.uid}: payload must be a SimulationConfig "
                f"or dict, got {type(payload).__name__}"
            )
        repex = RepEx(config)
        result = repex.run()
        if out_dir is not None and result.manifest is not None:
            tenant_dir = out_dir / request.tenant
            tenant_dir.mkdir(parents=True, exist_ok=True)
            result.manifest.dump(tenant_dir / f"{request.uid}.jsonl")
        return SessionOutcome(
            duration_s=result.t_end,
            ok=True,
            counters=result.manifest.metrics.get("counters") or {},
            events_fired=repex.session.clock.n_fired,
            peak_heap=repex.session.clock.peak_heap,
            n_failures=result.n_failures,
        )

    return run
