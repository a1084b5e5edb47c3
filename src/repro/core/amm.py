"""Application Management Module (AMM).

"AMM support[s] generality by managing exchange parameters, input
parameters, simulation input/output files and file movement patterns ...
AMM is specific to a particular MD engine, since input/output files and
arguments for each MD engine are different." (paper, Sec. 3.3.)

Concretely, the AMM:

* instantiates the replica lattice from the configuration,
* translates replicas into engine input files (via the adapter) and into
  :class:`~repro.pilot.unit.UnitDescription` objects, with staging
  directives and performance-model durations, for both MD and exchange
  phases (including the single-point group tasks of S-REMD),
* parses task outputs back into replica state, and
* applies accepted exchange proposals.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.core import ram
from repro.core.config import SimulationConfig
from repro.core.exchange.base import (
    ExchangeDimension,
    GroupEnergyCache,
    SwapProposal,
)
from repro.core.exchange.multidim import DimensionSchedule, exchange_groups
from repro.core.exchange.pairing import get_pair_selector
from repro.core.exchange.ph import PHDimension
from repro.core.exchange.umbrella import UmbrellaDimension
from repro.core.replica import CycleRecord, Replica, ReplicaStatus, swap_parameters
from repro.core.results import ExchangeStats
from repro.md.batch import MDWork
from repro.md.engine import EngineAdapter, get_adapter
from repro.md.perfmodel import PerformanceModel
from repro.md.sandbox import Sandbox
from repro.md.system import get_system
from repro.md.toymd import MDParams, ThermodynamicState
from repro.obs.metrics import MetricsRegistry
from repro.pilot.cluster import ClusterSpec
from repro.pilot.staging import StagingAction, StagingDirective
from repro.pilot.unit import ComputeUnit, UnitDescription
from repro.utils.rng import RNGRegistry

#: input files charged at the performance model's restart-file size
_COORD_SUFFIXES = (".inpcrd", ".coor", ".rst", ".restart.coor")


class ApplicationManager:
    """Engine-facing manager of replicas, tasks and files.

    Exchange tasks count their Metropolis decisions into ``registry``
    (the run's; a private one when omitted).
    """

    def __init__(
        self,
        config: SimulationConfig,
        cluster: ClusterSpec,
        adapter: Optional[EngineAdapter] = None,
        perf: Optional[PerformanceModel] = None,
        sandbox: Optional[Sandbox] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.config = config
        self.cluster = cluster
        self.registry = registry if registry is not None else MetricsRegistry()
        system = get_system(config.engine.system)
        self.adapter = adapter or get_adapter(config.engine.name, system=system)
        self.system = self.adapter.system
        self.perf = perf or PerformanceModel()
        self.sandbox = sandbox if sandbox is not None else Sandbox()
        self.dimensions = config.build_dimensions()
        # internal salt evaluation (future-work optimization): give the
        # dimension direct access to the engine's energy function
        from repro.core.exchange.salt import SaltDimension
        from repro.md.toymd import ThermodynamicState as _TS

        toymd = self.adapter.toymd
        for dim in self.dimensions:
            if isinstance(dim, SaltDimension) and dim.internal:
                dim.evaluator = lambda coords, salt, _t=toymd: (
                    _t.single_point_energy(coords, _TS(salt_molar=salt))
                )
        self.schedule = DimensionSchedule(self.dimensions)
        self.selector = get_pair_selector(config.pair_selector)
        self.rng = RNGRegistry(config.seed)
        self.exchange_stats: Dict[str, ExchangeStats] = {
            d.name: ExchangeStats() for d in self.dimensions
        }
        #: window map -> the one copy :meth:`shared_windows` hands out
        self._window_maps: Dict[tuple, Dict[str, int]] = {}
        if config.engine.executable:
            self.executable = config.engine.executable
        elif (
            config.gpus_per_replica > 0
            and "pmemd.cuda" in self.adapter.executables
        ):
            self.executable = "pmemd.cuda"
        else:
            self.executable = self.adapter.default_executable(
                config.cores_per_replica
            )

    # -- replicas -----------------------------------------------------------------

    def create_replicas(self) -> List[Replica]:
        """Build the full replica lattice.

        Initial coordinates start at the replica's umbrella window center
        when umbrella dimensions exist (the paper pre-equilibrates every
        replica for >1 ns; starting inside the window is the equivalent),
        otherwise jittered around the alpha-R basin.
        """
        ranges = [range(d.n_windows) for d in self.dimensions]
        replicas = []
        alpha_r = np.radians([-63.0, -42.0])
        for rid, combo in enumerate(itertools.product(*ranges)):
            indices = {
                d.name: idx for d, idx in zip(self.dimensions, combo)
            }
            rng = self.rng.transient("init", rid)
            coords = alpha_r + 0.15 * rng.standard_normal(2)
            for d, idx in zip(self.dimensions, combo):
                if isinstance(d, UmbrellaDimension):
                    k = 0 if d.angle == "phi" else 1
                    coords[k] = np.radians(float(d.value(idx)))
            replicas.append(
                Replica(
                    rid=rid,
                    coords=coords,
                    param_indices=indices,
                    cores=self.config.cores_per_replica,
                )
            )
        if self.config.equilibration_steps > 0:
            from repro.md.minimize import equilibrate

            for rep in replicas:
                rep.coords = equilibrate(
                    self.adapter.toymd,
                    rep.coords,
                    self.state_of(rep),
                    n_steps=self.config.equilibration_steps,
                    rng=self.rng.transient("equilibrate", rep.rid),
                )
        return replicas

    def replica_speed(self, rid: int) -> float:
        """Duration multiplier of one MD task of replica ``rid``
        (heterogeneous ensembles).

        Each call takes the next draw of the replica's own
        ``("replica-speed", rid)`` stream, so every task built for the
        replica — its relaunches included — gets a fresh log-normal
        multiplier; the sequence is deterministic per (seed, rid) and
        independent of how replicas are grouped.  Identity when
        ``replica_heterogeneity`` is 0.  Models ensembles mixing levels of
        theory, where "different replicas may have significant differences
        in performance" (paper Sec. 2.1).
        """
        sigma = self.config.replica_heterogeneity
        if sigma <= 0:
            return 1.0
        rng = self.rng.stream("replica-speed", rid)
        return float(np.exp(sigma * rng.standard_normal()))

    def state_of(self, replica: Replica) -> ThermodynamicState:
        """The full thermodynamic state a replica's windows define.

        States are cached per window-index tuple: ladder values are fixed
        at dimension construction (see ``ExchangeDimension``), and
        ``ThermodynamicState`` is frozen, so one instance per lattice
        point serves every replica that visits it.
        """
        key = tuple(replica.window(d.name) for d in self.dimensions)
        cache = self.__dict__.setdefault("_state_cache", {})
        state = cache.get(key)
        if state is None:
            state = ThermodynamicState()
            for dim in self.dimensions:
                state = dim.apply(state, replica.window(dim.name))
            cache[key] = state
        return state

    def shared_windows(self, indices: Dict[str, int]) -> Dict[str, int]:
        """A copy of the window map ``indices``, shared by every caller
        that asks at the same lattice point.

        Built once per window map (its keys in ``indices``' order) and
        never mutated: the history records of one lattice point all hold
        it instead of a copy each, restored records included.
        """
        key = tuple(indices.items())
        windows = self._window_maps.get(key)
        if windows is None:
            windows = self._window_maps[key] = dict(key)
        return windows

    def states_of(self, replicas: Sequence[Replica]) -> Dict[int, ThermodynamicState]:
        """rid -> state for a set of replicas."""
        return {r.rid: self.state_of(r) for r in replicas}

    # -- MD phase ------------------------------------------------------------------

    def md_tag(self, replica: Replica, cycle: int) -> str:
        """Unique task tag for one replica's MD phase of one cycle."""
        return f"md_r{replica.rid:05d}_c{cycle:04d}"

    def md_tasks(
        self, replicas: Sequence[Replica], cycles: Union[int, Sequence[int]]
    ) -> List[UnitDescription]:
        """Build the compute-unit descriptions of one MD submission group.

        ``cycles`` is the cycle every replica runs, or one cycle per
        replica (an asynchronous launch group mixes cycles).  The group's
        input files are written in one adapter call and its durations come
        from one perf-model call; each task still draws its own
        :meth:`replica_speed` multiplier, in replica order.
        """
        config = self.config
        if isinstance(cycles, int):
            cycles = [cycles] * len(replicas)
        tags = [self.md_tag(r, c) for r, c in zip(replicas, cycles)]
        base_seed = config.seed * 1_000_003
        seeds = [
            (base_seed + r.rid * 1_009 + c * 7) % (2**31 - 1)
            for r, c in zip(replicas, cycles)
        ]
        adapter, sandbox = self.adapter, self.sandbox
        input_files = adapter.write_inputs(
            sandbox,
            tags,
            [r.coords for r in replicas],
            [self.state_of(r) for r in replicas],
            MDParams(
                n_steps=config.effective_numeric_steps,
                sample_stride=config.sample_stride,
            ),
            seeds,
        )
        durations = self.perf.md_durations(
            self.executable,
            self.system,
            config.steps_per_cycle,
            [r.cores for r in replicas],
            tags,
        )
        restart_mb = self.perf.restart_size_mb(self.system)
        info_mb = self.perf.mdinfo_size_mb()
        speed_factor = self.cluster.speed_factor
        gpus = config.gpus_per_replica
        descs = []
        for rep, cycle, tag, files, duration in zip(
            replicas, cycles, tags, input_files, durations
        ):
            # Coordinate files stand in for full-system restart files,
            # whose size the performance model supplies; text inputs are
            # charged at the size just written.
            in_staging = [
                StagingDirective(
                    source=f"client:///{f}",
                    target=f"sandbox:///{tag}/{f}",
                    size_mb=(
                        restart_mb
                        if f.endswith(_COORD_SUFFIXES)
                        else max(nbytes / 1.0e6, 0.001)
                    ),
                    action=StagingAction.COPY,
                )
                for f, nbytes in files
            ]
            info, restart = adapter.info_file(tag), adapter.restart_file(tag)
            out_staging = [
                StagingDirective(
                    source=f"sandbox:///{tag}/{info}",
                    target=f"staging:///{info}",
                    size_mb=info_mb,
                    action=StagingAction.COPY,
                ),
                StagingDirective(
                    source=f"sandbox:///{tag}/{restart}",
                    target=f"staging:///{restart}",
                    size_mb=restart_mb,
                    action=StagingAction.COPY,
                ),
            ]
            descs.append(
                UnitDescription(
                    name=tag,
                    cores=rep.cores,
                    gpus=gpus,
                    duration=speed_factor
                    * duration
                    * self.replica_speed(rep.rid),
                    work=lambda tag=tag: ram.execute_md(adapter, sandbox, tag),
                    batch=MDWork(adapter=adapter, sandbox=sandbox, tag=tag),
                    input_staging=in_staging,
                    output_staging=out_staging,
                    metadata={"phase": "md", "rid": rep.rid, "cycle": cycle},
                )
            )
        return descs

    def process_md_outputs(
        self,
        replicas: Sequence[Replica],
        units: Sequence[ComputeUnit],
        cycle: int,
        dim_name: Optional[str],
    ) -> List[bool]:
        """Fold finished MD units back into their replicas, pairwise.

        The outputs of the successful units are parsed in one adapter
        call, then every unit's files are discarded (:meth:`discard_md`).
        Returns, per replica, True on success; False (without touching
        the replica's coordinates) when its unit failed.
        """
        ok = [unit.succeeded for unit in units]
        tags = [self.md_tag(r, cycle) for r in replicas]
        done = [tag for tag, good in zip(tags, ok) if good]
        outputs = iter(ram.read_md_outputs(self.adapter, self.sandbox, done))
        ph_dims = [d for d in self.dimensions if isinstance(d, PHDimension)]
        for replica, unit, good in zip(replicas, units, ok):
            record = CycleRecord(
                cycle=cycle,
                dimension=dim_name,
                param_indices=self.shared_windows(replica.param_indices),
                potential_energy=float("nan"),
                restraint_energy=float("nan"),
            )
            if not good:
                replica.n_failures += 1
                record.failed = True
                replica.history.append(record)
                replica.cycle = cycle + 1
                continue
            energies, coords = next(outputs)
            replica.coords = coords
            replica.last_energies = dict(energies)
            # pH dimensions: sample the titratable site's occupancy after MD.
            for dim in ph_dims:
                ph = float(dim.value(replica.window(dim.name)))
                occ = dim.protonation_occupancy(
                    ph, self.rng.transient("protonation", replica.rid, cycle)
                )
                replica.last_energies["protonation"] = float(occ)
            record.potential_energy = energies["potential_energy"]
            record.restraint_energy = energies["restraint_energy"]
            record.torsional_energy = energies.get(
                "torsional_energy", float("nan")
            )
            if unit.result is not None and hasattr(unit.result, "trajectory"):
                record.trajectory = unit.result.trajectory
            replica.history.append(record)
            replica.cycle = cycle + 1
        self.discard_md(tags)
        return ok

    def discard_md(self, tags: Sequence[str]) -> None:
        """Delete every file the MD tasks ``tags`` wrote, with any parse
        entry left for them.  Called once a task is folded, or its replica
        retires without a fold: nothing reads the files again, so the
        sandbox holds only tasks in flight."""
        suffixes = self.adapter.task_suffixes
        self.adapter.discard(
            self.sandbox, [tag + s for tag in tags for s in suffixes]
        )

    # -- exchange phase -----------------------------------------------------------------

    def exchange_attempt_index(self, cycle: int) -> int:
        """How many times the active dimension has exchanged before this
        cycle — drives the even/odd alternation of neighbour pairing."""
        return cycle // self.schedule.n_dims

    def exchange_task(
        self,
        replicas: Sequence[Replica],
        dimension: ExchangeDimension,
        cycle: int,
        energy_matrix: Optional[Dict[int, Dict[int, float]]] = None,
    ) -> UnitDescription:
        """Build the single exchange-computation unit for this cycle.

        One task computes partners for every group ("we use a single MPI
        task to perform an exchange", paper Sec. 4.2); its work returns the
        flat list of proposals and counts them as ``exchange.attempted``
        and ``exchange.accepted``, each also labelled ``{dim=<name>}``.
        """
        active = [r for r in replicas if r.status is ReplicaStatus.ACTIVE]
        groups = exchange_groups(active, dimension)
        states = self.states_of(active)
        attempt = self.exchange_attempt_index(cycle)
        rng = self.rng.transient("exchange", dimension.name, cycle)
        selector = self.selector
        registry = self.registry

        def work():
            # One reduced-energy cache for the whole phase: state betas
            # etc. are computed once per replica and reused by every
            # group's stacked sweep (and by whichever dimension is active
            # in multi-dimensional schedules).
            cache = GroupEnergyCache(states)
            proposals: List[SwapProposal] = []
            for group in groups:
                proposals.extend(
                    ram.compute_exchange(
                        dimension,
                        group,
                        states,
                        selector,
                        attempt,
                        rng,
                        energy_matrix=energy_matrix,
                        cache=cache,
                    )
                )
            # the manifest lists every counter that exists, even at zero,
            # so each is created at its first count: no accepted counters
            # before the run's first accepted swap
            n_accepted = sum(p.accepted for p in proposals)
            for kind, n in (
                ("attempted", len(proposals)),
                ("accepted", n_accepted),
            ):
                if n:
                    registry.counter(f"exchange.{kind}").inc(n)
                    registry.counter(
                        f"exchange.{kind}{{dim={dimension.name}}}"
                    ).inc(n)
            return proposals

        n = len(active)
        size = n * self.perf.mdinfo_size_mb()
        for d in self.dimensions:
            if isinstance(d, UmbrellaDimension):
                size += n * self.perf.restraint_file_size_mb()
        if energy_matrix is not None:
            size += n * self.perf.energy_matrix_size_mb(dimension.n_windows)

        tag = f"ex_{dimension.name}_c{cycle:04d}"
        duration = self.perf.exchange_calc_duration(
            n,
            multidim=self.schedule.n_dims > 1,
            task_key=tag,
        )
        # internal salt evaluation folds the single-point work (4 energy
        # evaluations per pair) into this one task
        if getattr(dimension, "internal", False):
            duration *= 2.0
        return UnitDescription(
            name=tag,
            cores=1,
            duration=duration,
            work=work,
            input_staging=[
                StagingDirective(
                    source="staging:///mdinfo-aggregate",
                    target=f"sandbox:///{tag}/inputs",
                    size_mb=size,
                    action=StagingAction.COPY,
                )
            ],
            output_staging=[
                StagingDirective(
                    source=f"sandbox:///{tag}/pairs",
                    target=f"staging:///{tag}.pairs",
                    size_mb=0.001 * max(1, n // 100),
                    action=StagingAction.COPY,
                )
            ],
            metadata={"phase": "exchange", "cycle": cycle, "dimension": dimension.name},
        )

    def single_point_tasks(
        self,
        replicas: Sequence[Replica],
        dimension: ExchangeDimension,
        cycle: int,
    ) -> List[UnitDescription]:
        """Build the extra single-point tasks an S-REMD exchange needs.

        One task per replica, evaluating its configuration at its own and
        its potential partners' windows (neighbours), with as many cores as
        states — the paper's group-file pattern that doubles the task count
        and makes S exchange expensive.
        """
        descs = []
        for rep in replicas:
            if rep.status is not ReplicaStatus.ACTIVE:
                continue
            w = rep.window(dimension.name)
            windows = [
                wi
                for wi in (w - 1, w, w + 1)
                if 0 <= wi < dimension.n_windows
            ]
            base_state = self.state_of(rep)
            sp_states = [dimension.apply(base_state, wi) for wi in windows]
            tag = f"sp_r{rep.rid:05d}_c{cycle:04d}"
            cores = max(len(windows), 1)
            adapter, sandbox = self.adapter, self.sandbox
            coords = np.array(rep.coords, copy=True)

            def work(
                tag=tag, coords=coords, sp_states=sp_states, windows=windows
            ):
                row = ram.execute_single_point_group(
                    adapter, sandbox, tag, coords, sp_states
                )
                return {wi: float(e) for wi, e in zip(windows, row)}

            descs.append(
                UnitDescription(
                    name=tag,
                    cores=cores,
                    duration=self.cluster.speed_factor
                    * self.perf.single_point_duration(
                        self.system, len(windows), cores, task_key=tag
                    ),
                    work=work,
                    input_staging=[
                        StagingDirective(
                            source=f"staging:///{self.adapter.restart_file(self.md_tag(rep, cycle))}",
                            target=f"sandbox:///{tag}/coords",
                            size_mb=self.perf.restart_size_mb(self.system),
                            action=StagingAction.COPY,
                        ),
                        StagingDirective(
                            source=f"client:///{tag}.groupfile",
                            target=f"sandbox:///{tag}/groupfile",
                            size_mb=self.perf.groupfile_size_mb(len(windows)),
                            action=StagingAction.COPY,
                        ),
                    ],
                    output_staging=[
                        StagingDirective(
                            source=f"sandbox:///{tag}/matrix",
                            target=f"staging:///{tag}.matrix",
                            size_mb=self.perf.energy_matrix_size_mb(
                                len(windows)
                            ),
                            action=StagingAction.COPY,
                        )
                    ],
                    metadata={
                        "phase": "single_point",
                        "rid": rep.rid,
                        "cycle": cycle,
                        "dimension": dimension.name,
                    },
                )
            )
        return descs

    def apply_proposals(
        self,
        replicas: Sequence[Replica],
        dimension: ExchangeDimension,
        proposals: Sequence[SwapProposal],
    ) -> None:
        """Apply accepted swaps and update stats + the replicas' history."""
        by_rid = {r.rid: r for r in replicas}
        stats = self.exchange_stats[dimension.name]
        for p in proposals:
            stats.attempted += 1
            rep_i, rep_j = by_rid[p.rid_i], by_rid[p.rid_j]
            for rep, partner in ((rep_i, p.rid_j), (rep_j, p.rid_i)):
                if rep.history:
                    rec = rep.history[-1]
                    rec.partner = partner
                    rec.accepted = rec.accepted or p.accepted
            if p.accepted:
                stats.accepted += 1
                swap_parameters(rep_i, rep_j, dimension.name)
