"""Chaos harness: a scenario matrix of fault-injection runs.

The robustness claim of the stack — "in the presence of failures, the
entire simulation need not be stopped or restarted" — is only credible
if it is exercised systematically.  This module runs a small matrix of
failure pattern x fault policy x exchange pattern scenarios through the
full :class:`~repro.core.framework.RepEx` facade and reports, per
scenario, whether the run survived, how much work was lost, and what the
``fault.*`` counters recorded.

Exposed on the command line as ``repro chaos [--fast]``; the fast matrix
doubles as a CI smoke test.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.config import (
    DimensionSpec,
    FailureSpec,
    PatternSpec,
    ResourceSpec,
    SimulationConfig,
    WatchdogSpec,
)
from repro.core.framework import RepEx
from repro.obs.metrics import MetricsRegistry
from repro.pilot.events import SimulatedCrash
from repro.utils.tables import render_table

#: counters copied into each outcome (plus every ``fault.*`` counter)
_EXTRA_COUNTERS = ("staging.retries",)


@dataclass
class ChaosScenario:
    """One cell of the chaos matrix."""

    name: str
    config: SimulationConfig
    #: scenarios that are *supposed* to kill the run (e.g. preemption
    #: without requeue) count as OK when they do
    expect_failure: bool = False


@dataclass
class ChaosOutcome:
    """What happened when one scenario ran."""

    name: str
    survived: bool
    expect_failure: bool = False
    error: Optional[str] = None
    n_failures: int = 0
    n_relaunches: int = 0
    n_retired: int = 0
    cycles_completed: int = 0
    utilization: float = 0.0
    fault_counters: Dict[str, float] = field(default_factory=dict)
    #: crash/resume verdict: "ok" when a killed-and-restarted copy of the
    #: scenario reproduces the reference fingerprint exactly, a
    #: "FAIL: ..." string when it does not, None when not checked
    #: (expected-failure scenarios, dead runs, ``--no-resume``)
    resume: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True when the scenario behaved as designed."""
        behaved = self.survived is not self.expect_failure
        return behaved and (self.resume is None or self.resume == "ok")

    def to_dict(self) -> Dict:
        """JSON-friendly form (for ``repro chaos -o``)."""
        return {
            "name": self.name,
            "survived": self.survived,
            "expect_failure": self.expect_failure,
            "ok": self.ok,
            "error": self.error,
            "n_failures": self.n_failures,
            "n_relaunches": self.n_relaunches,
            "n_retired": self.n_retired,
            "cycles_completed": self.cycles_completed,
            "utilization": self.utilization,
            "fault_counters": self.fault_counters,
            "resume": self.resume,
        }


def _config(
    title: str,
    *,
    failure: FailureSpec,
    pattern_kind: str = "synchronous",
    cores: int = 8,
    n_windows: int = 8,
    cores_per_replica: int = 1,
    n_cycles: int = 3,
    seed: int = 2016,
    watchdog: Optional[WatchdogSpec] = None,
    barrier_deadline_s: Optional[float] = None,
) -> SimulationConfig:
    kwargs: Dict[str, object] = {}
    if watchdog is not None:
        kwargs["watchdog"] = watchdog
    return SimulationConfig(
        title=title,
        dimensions=[DimensionSpec("temperature", n_windows, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=cores),
        pattern=PatternSpec(
            kind=pattern_kind, barrier_deadline_s=barrier_deadline_s
        ),
        n_cycles=n_cycles,
        steps_per_cycle=6000,
        numeric_steps=10,
        sample_stride=0,
        cores_per_replica=cores_per_replica,
        failure=failure,
        seed=seed,
        **kwargs,
    )


def builtin_scenarios(fast: bool = False) -> List[ChaosScenario]:
    """The scenario matrix (failure pattern x policy x exchange pattern).

    The node-crash scenarios use a two-node pilot (40 cores on supermic's
    20-core nodes) with 5-core replicas, so one crash takes out several
    co-resident units at once and the survivors must fit on the healthy
    node.
    """
    scenarios = [
        ChaosScenario(
            "node-crash/continue/sync",
            _config(
                "chaos-crash-continue",
                failure=FailureSpec(
                    policy="continue", node_crashes=[[40.0, 0]]
                ),
                cores=40,
                cores_per_replica=5,
            ),
        ),
        ChaosScenario(
            "node-crash/relaunch/sync",
            _config(
                "chaos-crash-relaunch",
                failure=FailureSpec(
                    policy="relaunch", node_crashes=[[40.0, 0]]
                ),
                cores=40,
                cores_per_replica=5,
            ),
        ),
        ChaosScenario(
            "node-crash/continue/async",
            _config(
                "chaos-crash-async",
                failure=FailureSpec(
                    policy="continue", node_crashes=[[40.0, 0]]
                ),
                pattern_kind="asynchronous",
                cores=40,
                cores_per_replica=5,
            ),
        ),
        ChaosScenario(
            "preempt-requeue/relaunch/sync",
            _config(
                "chaos-preempt-requeue",
                failure=FailureSpec(
                    policy="relaunch",
                    preempt_after_s=60.0,
                    requeue_on_preempt=True,
                ),
            ),
        ),
        ChaosScenario(
            "staging-flaky/continue/sync",
            _config(
                "chaos-staging",
                failure=FailureSpec(
                    policy="continue",
                    staging_fault_probability=0.2,
                    staging_max_retries=5,
                    staging_backoff_s=0.2,
                ),
            ),
        ),
        ChaosScenario(
            "unit-failures/retire/sync",
            _config(
                "chaos-retire",
                failure=FailureSpec(
                    policy="retire", probability=0.3, retire_after=1
                ),
            ),
        ),
        # -- gray failures: nothing crashes, things just go quiet/slow --
        ChaosScenario(
            # node 0's four replicas run 4x slow; the watchdog flags them
            # against the healthy node-1 cohort and speculatively
            # relaunches on the cores node 1 freed (deadline_factor is
            # raised so speculation, not deadline kills, resolves them)
            "slow-node/speculative/sync",
            _config(
                "chaos-slow-speculative",
                failure=FailureSpec(
                    policy="continue", slow_nodes=[[0, 4.0]]
                ),
                watchdog=WatchdogSpec(
                    enabled=True,
                    deadline_factor=6.0,
                    check_interval_s=10.0,
                    speculative=True,
                ),
                cores=40,
                cores_per_replica=5,
            ),
        ),
        ChaosScenario(
            # hung attempts never complete; the watchdog's per-attempt
            # deadline kills and relaunches them (a fresh attempt
            # re-draws the hang, so the barrier always clears)
            "hangs/watchdog-relaunch/sync",
            _config(
                "chaos-hangs",
                failure=FailureSpec(
                    policy="continue", hang_probability=0.15
                ),
                watchdog=WatchdogSpec(enabled=True),
            ),
        ),
        ChaosScenario(
            # no watchdog: the slow node's replicas miss the 60s exchange
            # window, the barrier proceeds without them (bounded
            # staleness), and they rejoin the next cycle
            "slow-node/barrier-deadline/sync",
            _config(
                "chaos-barrier-deadline",
                failure=FailureSpec(
                    policy="continue", slow_nodes=[[0, 4.0]]
                ),
                barrier_deadline_s=60.0,
                cores=40,
                cores_per_replica=5,
            ),
        ),
    ]
    if not fast:
        scenarios += [
            ChaosScenario(
                # rate chosen so the seeded schedule lands ~2 crashes
                # inside the run while one node survives to the end
                "poisson-crashes/relaunch/sync",
                _config(
                    "chaos-poisson",
                    failure=FailureSpec(
                        policy="relaunch", node_crash_rate=20.0
                    ),
                    cores=40,
                    cores_per_replica=5,
                    n_cycles=4,
                ),
            ),
            ChaosScenario(
                "preempt-fail/continue/sync",
                _config(
                    "chaos-preempt-fail",
                    failure=FailureSpec(
                        policy="continue",
                        preempt_after_s=60.0,
                        requeue_on_preempt=False,
                    ),
                ),
                expect_failure=True,
            ),
            ChaosScenario(
                "kitchen-sink/relaunch/sync",
                _config(
                    "chaos-kitchen-sink",
                    failure=FailureSpec(
                        policy="relaunch",
                        probability=0.1,
                        node_crashes=[[40.0, 1]],
                        staging_fault_probability=0.1,
                        staging_max_retries=6,
                        staging_backoff_s=0.2,
                    ),
                    cores=40,
                    cores_per_replica=5,
                    n_cycles=4,
                ),
            ),
        ]
    return scenarios


def run_scenario(
    scenario: ChaosScenario,
    *,
    trace_dir: Optional[str] = None,
    resume_check: bool = True,
) -> ChaosOutcome:
    """Run one scenario in an isolated metrics registry.

    With ``trace_dir`` a surviving scenario also writes its manifest and
    a Perfetto-loadable Chrome trace there (scenario names are
    slash-separated, so ``/`` becomes ``_`` in the file names); dead
    runs have no manifest and write nothing.

    With ``resume_check`` (the default) every surviving scenario is
    additionally killed mid-run and restarted from its newest on-disk
    checkpoint (see :func:`_resume_verdict`); the verdict lands in
    :attr:`ChaosOutcome.resume` and a mismatch fails the scenario.
    """
    registry = MetricsRegistry()
    try:
        result = RepEx(scenario.config, registry=registry).run()
    except Exception as exc:  # a dead run is data, not a crash
        return ChaosOutcome(
            name=scenario.name,
            survived=False,
            expect_failure=scenario.expect_failure,
            error=f"{type(exc).__name__}: {exc}",
            fault_counters=_fault_counters(registry),
        )
    if trace_dir is not None and result.manifest is not None:
        _write_traces(result.manifest, scenario.name, trace_dir)
    resume = None
    if resume_check and not scenario.expect_failure:
        resume = _resume_verdict(scenario, result)
    return ChaosOutcome(
        name=scenario.name,
        survived=True,
        expect_failure=scenario.expect_failure,
        n_failures=result.n_failures,
        n_relaunches=result.n_relaunches,
        n_retired=result.n_retired,
        cycles_completed=len(result.cycle_timings),
        utilization=result.utilization(),
        fault_counters=_fault_counters(registry),
        resume=resume,
    )


def _resume_verdict(scenario: ChaosScenario, baseline) -> str:
    """Kill the scenario mid-run, restart from disk, compare fingerprints.

    Synchronous scenarios checkpoint at every cycle boundary (which does
    not perturb the timeline, so the plain ``baseline`` run is the
    reference) and are crashed mid-cycle at 60% of the baseline span;
    the resumed run rolls back to the last completed boundary and
    replays.  Asynchronous scenarios quiesce on a cadence (which *does*
    perturb the timeline, so a golden run with the same cadence is the
    reference) and are crashed at 80% of the golden span.  Either way the
    stitched run must reproduce the reference
    :meth:`~repro.core.results.SimulationResult.fingerprint` exactly.
    """
    is_sync = scenario.config.pattern.kind == "synchronous"
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        if is_sync:
            reference = baseline
            kwargs: Dict[str, object] = {"checkpoint_every": 1}
            crash_at = baseline.t_start + 0.6 * baseline.wallclock
        else:
            # quiesce roughly twice over the run; the exact cadence only
            # needs to put >= 1 checkpoint on disk before the crash
            kwargs = {"checkpoint_every_s": max(baseline.wallclock / 3, 1e-6)}
            reference = RepEx(scenario.config, **kwargs).run()
            crash_at = reference.t_start + 0.8 * reference.wallclock
        ckpt_dir = Path(tmp) / "ckpt"
        try:
            RepEx(
                scenario.config,
                checkpoint_dir=ckpt_dir,
                crash_at_time=crash_at,
                **kwargs,
            ).run()
            return f"FAIL: injected crash at t={crash_at:g}s never fired"
        except SimulatedCrash:
            pass
        except Exception as exc:
            return f"FAIL: crash run died early: {type(exc).__name__}: {exc}"
        latest = ckpt_dir / "latest.json"
        if not latest.exists():
            return "FAIL: no checkpoint on disk at crash time"
        try:
            resumed = RepEx(
                scenario.config,
                checkpoint_dir=ckpt_dir,
                resume_from=latest,
                **kwargs,
            ).run()
        except Exception as exc:
            return f"FAIL: resume died: {type(exc).__name__}: {exc}"
    if resumed.fingerprint() != reference.fingerprint():
        return "FAIL: resumed run's fingerprint differs from reference"
    return "ok"


def _write_traces(manifest, name: str, trace_dir: str) -> None:
    from repro.obs.export import chrome_trace

    out = Path(trace_dir)
    out.mkdir(parents=True, exist_ok=True)
    slug = name.replace("/", "_")
    manifest.dump(out / f"{slug}.manifest.jsonl")
    (out / f"{slug}.trace.json").write_text(
        json.dumps(chrome_trace(manifest), indent=2, sort_keys=True) + "\n"
    )


def _fault_counters(registry: MetricsRegistry) -> Dict[str, float]:
    counters = registry.snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if value
        and (
            name.startswith(("fault.", "watchdog.", "emm.barrier"))
            or name in _EXTRA_COUNTERS
        )
    }


def run_matrix(
    fast: bool = False,
    *,
    trace_dir: Optional[str] = None,
    resume: bool = True,
) -> List[ChaosOutcome]:
    """Run every built-in scenario; never raises on scenario death."""
    return [
        run_scenario(s, trace_dir=trace_dir, resume_check=resume)
        for s in builtin_scenarios(fast)
    ]


def render_report(outcomes: List[ChaosOutcome]) -> str:
    """The survival/utilization table ``repro chaos`` prints."""
    rows = []
    for o in outcomes:
        faults = ", ".join(
            f"{name.split('.', 1)[-1]}={value:g}"
            for name, value in sorted(o.fault_counters.items())
        )
        rows.append(
            [
                o.name,
                "ok" if o.ok else "FAIL",
                "yes" if o.survived else ("expected" if o.ok else "NO"),
                o.resume if o.resume is not None else "-",
                o.cycles_completed,
                o.n_failures,
                o.n_relaunches,
                o.n_retired,
                f"{100 * o.utilization:.1f}",
                faults or (o.error or "-"),
            ]
        )
    table = render_table(
        [
            "scenario",
            "verdict",
            "survived",
            "resume",
            "cycles",
            "failed",
            "relaunched",
            "retired",
            "util%",
            "faults",
        ],
        rows,
        title="Chaos matrix",
        align_right=False,
    )
    n_ok = sum(o.ok for o in outcomes)
    return f"{table}\n\n{n_ok}/{len(outcomes)} scenarios behaved as designed"
