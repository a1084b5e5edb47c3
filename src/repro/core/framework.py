"""The RepEx facade: configuration in, simulation result out.

Wires together the whole stack — engine adapter, performance model,
simulated cluster + pilot, AMM, and the pattern-appropriate EMM — from a
single :class:`~repro.core.config.SimulationConfig`:

.. code-block:: python

    from repro import RepEx, SimulationConfig, DimensionSpec

    config = SimulationConfig(
        dimensions=[DimensionSpec("temperature", 8, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=8),
        n_cycles=4,
    )
    result = RepEx(config).run()
    print(result.acceptance_ratio("temperature"))
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Union

from repro.core.amm import ApplicationManager
from repro.core.checkpoint import Checkpoint, CheckpointError, point_latest
from repro.core.config import SimulationConfig
from repro.core.emm import AsynchronousEMM, SynchronousEMM
from repro.core.execution_modes import ExecutionMode, make_mode
from repro.core.results import SimulationResult
from repro.md.engine import EngineAdapter
from repro.md.perfmodel import PerformanceModel
from repro.md.sandbox import Sandbox
from repro.obs.manifest import ManifestStream, RunManifest
from repro.pilot.cluster import get_cluster
from repro.pilot.failures import FailureModel
from repro.pilot.faultdomain import FaultDomainModel
from repro.pilot.pilot import PilotDescription
from repro.pilot.session import Session
from repro.pilot.trace import Tracer
from repro.pilot.watchdog import Watchdog
from repro.utils.rng import RNGRegistry


class RepEx:
    """One configured REMD simulation, ready to run.

    Parameters
    ----------
    config:
        The full simulation specification.
    adapter / perf / sandbox / session / mode:
        Dependency-injection points for tests and benchmarks; all default
        to what the config implies.
    checkpoint_every:
        Snapshot the run every N completed cycles (synchronous pattern
        only; 0 disables).  Checkpoints are collected in
        :attr:`checkpoints` and, when ``checkpoint_dir`` is set, written
        as ``cycle_NNNN.json`` plus a ``latest.json`` naming the newest,
        beside the run's append-only ``journal.jsonl``.
    checkpoint_every_s:
        Asynchronous pattern: quiesce (stop launching, drain in-flight
        units) and snapshot every N virtual seconds (0 disables).  On
        disk the snapshots are ``quiesce_NNNN.json`` plus
        ``latest.json``.
    checkpoint_keep:
        Retain only the newest N numbered snapshots in
        ``checkpoint_dir`` (0 keeps all; the journal is never pruned).
        Pruning is write-new-then-delete, so at least one loadable
        checkpoint exists at every instant.
    resume_from:
        A :class:`~repro.core.checkpoint.Checkpoint` (or a path to one)
        to continue from; the resumed run is bit-identical to the
        uninterrupted one (for the async pattern: to the uninterrupted
        run with the same checkpoint cadence).  A checkpoint of another
        pattern or configuration, or one with no work left, raises
        :class:`~repro.core.checkpoint.CheckpointError` here.
    stop_after_cycle:
        Synchronous: stop cleanly after this many completed cycles (the
        tested way to "kill" a run at a checkpoint boundary); >= 0.
    stop_after_checkpoint:
        Asynchronous: stop cleanly once this many quiesce checkpoints
        exist (counting any the resumed-from snapshot already had); >= 0.
    crash_at_time:
        Inject a :class:`~repro.pilot.events.SimulatedCrash` at this
        virtual time (>= 0) — the exception propagates out of
        :meth:`run` with no cleanup, modelling a hard kill.  Whatever
        checkpoints are on disk by then are the recovery points.
    manifest_path:
        Stream an incrementally flushed JSONL manifest to this path
        while the run is in flight (see
        :class:`~repro.obs.manifest.ManifestStream`); without it the
        run's log of finished units stays in memory.
    registry:
        The :class:`~repro.obs.metrics.MetricsRegistry` this run records
        into: every instrument, span and the manifest of this run land
        there and nowhere else.  Omitted, the injected ``session``'s
        registry is used, else a fresh one; beside an injected
        ``session`` only that session's registry is accepted.
        :class:`~repro.obs.metrics.NullRegistry` turns observability off.
        The session binds the registry to its clock, so a registry serves
        one run: handing one to a second ``RepEx`` raises
        :class:`~repro.obs.metrics.MetricError` at that construction.
        This is what makes a ``RepEx`` a value several of which can
        coexist in one process (the campaign arbiter runs one per tenant
        session).
    """

    def __init__(
        self,
        config: SimulationConfig,
        *,
        adapter: Optional[EngineAdapter] = None,
        perf: Optional[PerformanceModel] = None,
        sandbox: Optional[Sandbox] = None,
        session: Optional[Session] = None,
        mode: Optional[ExecutionMode] = None,
        checkpoint_every: int = 0,
        checkpoint_every_s: float = 0.0,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_keep: int = 0,
        resume_from: Optional[Union[str, Path, Checkpoint]] = None,
        stop_after_cycle: Optional[int] = None,
        stop_after_checkpoint: Optional[int] = None,
        crash_at_time: Optional[float] = None,
        manifest_path: Optional[Union[str, Path]] = None,
        registry=None,
    ):
        self.config = config
        self.cluster = get_cluster(config.resource.name)
        if session is None:
            # the new session binds the registry to its clock first, so
            # one that already serves a run is refused before anything
            # records into it
            session = Session(registry=registry)
        elif registry is not None and registry is not session.registry:
            raise ValueError(
                "registry= differs from the injected session's registry; "
                "pass one of them"
            )
        self.session = session
        self.registry = session.registry
        self._ran = False

        rng = RNGRegistry(config.seed)
        if config.failure.probability > 0:
            self.session.failure_model = FailureModel(
                probability=config.failure.probability,
                rng=rng.stream("failures"),
                only_phase="md",
            )
        self.fault_domain = FaultDomainModel.from_spec(
            config.failure, rng, self.registry
        )
        if self.fault_domain is not None:
            self.session.fault_domain = self.fault_domain
        self.watchdog = None
        if config.watchdog.enabled:
            self.watchdog = Watchdog(
                spec=config.watchdog,
                clock=self.session.clock,
                rng=(
                    rng.stream("watchdog-backoff")
                    if config.watchdog.backoff_jitter > 0
                    else None
                ),
                fault_domain=self.fault_domain,
                registry=self.registry,
            )
            self.session.watchdog = self.watchdog

        # Observability: run() traces every unit the session submits into
        # its run log; under a NullRegistry it traces nothing, so the
        # off-path cost is only the no-op instrument calls.
        self.tracer: Optional[Tracer] = None

        self.amm = ApplicationManager(
            config,
            self.cluster,
            adapter=adapter,
            perf=perf,
            sandbox=sandbox,
            registry=self.registry,
        )
        self.pilot = self.session.submit_pilot(
            PilotDescription(
                resource=self.cluster,
                cores=config.resource.cores,
                gpus=config.resource.gpus,
            )
        )
        self._is_sync = config.pattern.kind == "synchronous"
        emm_cls = SynchronousEMM if self._is_sync else AsynchronousEMM
        self.emm = emm_cls(
            config,
            self.amm,
            self.session,
            self.pilot,
            mode=mode or make_mode(config.effective_mode),
        )
        self._init_checkpointing(
            checkpoint_every,
            checkpoint_every_s,
            checkpoint_dir,
            checkpoint_keep,
            resume_from,
            stop_after_cycle,
            stop_after_checkpoint,
            crash_at_time,
        )
        self.manifest_path = manifest_path

    def _init_checkpointing(
        self,
        checkpoint_every: int,
        checkpoint_every_s: float,
        checkpoint_dir,
        checkpoint_keep: int,
        resume_from,
        stop_after_cycle: Optional[int],
        stop_after_checkpoint: Optional[int],
        crash_at_time: Optional[float],
    ) -> None:
        """Validate and wire the checkpoint/restart configuration."""
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if checkpoint_every_s < 0:
            raise ValueError(
                f"checkpoint_every_s must be >= 0, got {checkpoint_every_s}"
            )
        if checkpoint_keep < 0:
            raise ValueError(
                f"checkpoint_keep must be >= 0, got {checkpoint_keep}"
            )
        for name, value in (
            ("stop_after_cycle", stop_after_cycle),
            ("stop_after_checkpoint", stop_after_checkpoint),
            ("crash_at_time", crash_at_time),
        ):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if resume_from is not None and not isinstance(resume_from, Checkpoint):
            resume_from = Checkpoint.load(resume_from)
        if self._is_sync:
            if checkpoint_every_s > 0 or stop_after_checkpoint is not None:
                raise CheckpointError(
                    "checkpoint_every_s / stop_after_checkpoint drive the "
                    "asynchronous quiesce protocol; the synchronous "
                    "pattern checkpoints at cycle boundaries "
                    "(checkpoint_every)"
                )
        else:
            if checkpoint_every > 0 or stop_after_cycle is not None:
                raise CheckpointError(
                    "cycle-granular checkpointing (checkpoint_every / "
                    "stop_after_cycle) is synchronous-only; the "
                    "asynchronous pattern checkpoints at quiesce points "
                    "(checkpoint_every_s)"
                )
        if resume_from is not None:
            resume_from.check_resumes(self.config)
        self.checkpoint_every = int(checkpoint_every)
        self.checkpoint_every_s = float(checkpoint_every_s)
        self.checkpoint_keep = int(checkpoint_keep)
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        #: every checkpoint taken by :meth:`run`
        self.checkpoints: List[Checkpoint] = []
        self._resume = resume_from
        self.crash_at_time = (
            float(crash_at_time) if crash_at_time is not None else None
        )
        if self._is_sync:
            self.emm.checkpoint_every = self.checkpoint_every
            self.emm.checkpoint_sink = self._on_checkpoint
            self.emm.stop_after_cycle = stop_after_cycle
        else:
            self.emm.checkpoint_every_s = self.checkpoint_every_s
            self.emm.checkpoint_sink = self._on_checkpoint
            self.emm.stop_after_checkpoint = stop_after_checkpoint
            # a preemption warning induces one quiesce ahead of the
            # scheduled preemption, so a fresh checkpoint exists when the
            # batch system strikes
            spec = self.config.failure
            if (
                spec.preempt_after_s is not None
                and spec.preempt_warning_s > 0
            ):
                self.emm.quiesce_rel_times = [
                    max(0.0, spec.preempt_after_s - spec.preempt_warning_s)
                ]

    def _on_checkpoint(self, ckpt: Checkpoint) -> None:
        self.checkpoints.append(ckpt)
        if self.checkpoint_dir is not None:
            self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
            if self._is_sync:
                name = f"cycle_{ckpt.next_cycle:04d}.json"
            else:
                name = f"quiesce_{self.emm.state.n_quiesces:04d}.json"
            path = self.checkpoint_dir / name
            ckpt.save(path)
            point_latest(path)
            self._prune_checkpoints()

    def _prune_checkpoints(self) -> None:
        """Drop numbered snapshots beyond the newest ``checkpoint_keep``.

        Runs *after* the new snapshot (and ``latest.json``) landed —
        write-new-then-delete — so a kill at any instant leaves at least
        one loadable checkpoint behind.
        """
        if not self.checkpoint_keep or self.checkpoint_dir is None:
            return
        numbered = sorted(
            list(self.checkpoint_dir.glob("cycle_*.json"))
            + list(self.checkpoint_dir.glob("quiesce_*.json"))
        )
        for stale in numbered[: -self.checkpoint_keep]:
            try:
                stale.unlink()
            except OSError:
                # a failed delete only leaves an extra snapshot behind;
                # never let pruning take the run down
                pass

    def run(self) -> SimulationResult:
        """Execute the simulation and tear the pilot down.

        A ``RepEx`` runs once: its pilot is final afterwards, so a second
        call raises :class:`RuntimeError`; build a new ``RepEx`` instead.
        """
        if self._ran:
            raise RuntimeError(
                "this RepEx has already run and its pilot is torn down; "
                "build a new RepEx to run again"
            )
        self._ran = True
        run_log = ManifestStream(self.manifest_path, self.config)
        if self.registry.enabled:
            self.tracer = Tracer(run_log.on_unit)
            self.emm.run_log = run_log
        self.session.tracer = self.tracer
        if self.manifest_path is not None and self.fault_domain is not None:
            self.fault_domain.add_sink(run_log.on_fault)
        if self.crash_at_time is not None:
            self.session.schedule_crash(self.crash_at_time)
        try:
            # Dispatch on the live EMM instance (tests swap it in place).
            if isinstance(self.emm, (SynchronousEMM, AsynchronousEMM)):
                result = self.emm.run(resume=self._resume)
            else:
                result = self.emm.run()
        except BaseException:
            # Leave the partial manifest on disk — it is the post-mortem.
            run_log.abort(self.tracer)
            raise
        finally:
            self.pilot.cancel()
        ladder = getattr(self.emm, "ladder", None)
        result.manifest = RunManifest.from_run(
            self.config,
            result,
            run_log if self.tracer is not None else None,
            self.registry,
            fault_events=(
                [e.to_dict() for e in self.fault_domain.events]
                if self.fault_domain is not None
                else None
            ),
            ladder=ladder.records() if ladder is not None else None,
        )
        run_log.finalize(result.manifest)
        # the manifest holds the unit lines now; a held RepEx reaches the
        # log through its tracer and must not keep its (name, line) pairs
        run_log.rows = []
        return result


def run_simulation(config: SimulationConfig, **kwargs) -> SimulationResult:
    """One-call convenience wrapper around :class:`RepEx`."""
    return RepEx(config, **kwargs).run()
