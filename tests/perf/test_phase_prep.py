"""Phase preparation vs the per-task oracle, Amber and NAMD.

``ApplicationManager.md_tasks`` builds a whole MD submission group in one
pass, the adapters write and parse a group's files in one call each, and
``ApplicationManager.process_md_outputs`` folds a group back in one call.
The per-task code they replaced — ``md_task``, the adapters'
``write_input`` / ``write_outputs`` and ``process_md_output`` — lives
here as the oracle.  For every scenario, a group built both ways must agree
on every :class:`~repro.pilot.unit.UnitDescription` field (durations by
``float.hex``), on every sandbox byte before and after the MD runs, and on
the replica state after the fold; whole runs with the oracle patched in
must not differ by a byte either.  The fold is the last reader of a
task's files, so the oracle's per-task fold discards every file named
after the task, and the adapter's parse store and the sandbox must both
be empty once a run's phases are folded.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List

import numpy as np
import pytest

from repro.core import RepEx
from repro.core import ram
from repro.core.amm import ApplicationManager
from repro.core.config import (
    DimensionSpec,
    EngineSpec,
    FailureSpec,
    PatternSpec,
    ResourceSpec,
    SimulationConfig,
    WatchdogSpec,
)
from repro.core.exchange.ph import PHDimension
from repro.core.replica import CycleRecord
from repro.md.amber import AmberAdapter
from repro.md.batch import MDWork, run_md_batch
from repro.md.engine import EngineError
from repro.md.sandbox import Sandbox
from repro.md.toymd import MDParams
from repro.obs.metrics import MetricsRegistry
from repro.pilot.cluster import get_cluster
from repro.pilot.staging import StagingAction, StagingDirective
from repro.pilot.unit import ComputeUnit, UnitDescription, UnitState

# -- the per-task oracle ----------------------------------------------------


def _fmt_float(x: float) -> str:
    return f"{x:.6f}"


def amber_write_input(adapter, sandbox, tag, coords, state, params, seed):
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (2,):
        raise EngineError(f"coords must have shape (2,), got {coords.shape}")
    files = []
    nmropt = 1 if state.restraints else 0
    mdin = [
        f"{tag}: RepEx MD phase",
        " &cntrl",
        "  imin = 0, irest = 1, ntx = 5,",
        f"  nstlim = {params.n_steps}, dt = {params.integrator_params.dt},",
        f"  ntt = 3, temp0 = {_fmt_float(state.temperature)}, gamma_ln = "
        f"{_fmt_float(params.integrator_params.friction)},",
        f"  ig = {seed},",
        f"  ntpr = {max(1, params.sample_stride)}, ntwx = "
        f"{max(1, params.sample_stride)},",
        f"  igb = 1, saltcon = {_fmt_float(state.salt_molar)},",
        f"  nmropt = {nmropt},",
        " /",
    ]
    if state.restraints:
        mdin.append(" &wt type='END' /")
        mdin.append(f"DISANG={tag}.RST")
    sandbox.write_text(f"{tag}.mdin", "\n".join(mdin) + "\n")
    files.append(f"{tag}.mdin")
    sandbox.write_text(
        f"{tag}.inpcrd",
        "ALA2 toy coordinates (phi, psi in radians)\n"
        f"{adapter.system.n_atoms:6d}\n"
        f"{coords[0]: 12.7f}{coords[1]: 12.7f}\n",
    )
    files.append(f"{tag}.inpcrd")
    if state.restraints:
        lines = []
        for r in state.restraints:
            iat = ",".join(
                str(i)
                for i in {"phi": (5, 7, 9, 15), "psi": (7, 9, 15, 17)}[r.angle]
            )
            c = r.center_deg
            lines.append(
                f" &rst iat={iat}, r1={c - 180.0:.1f}, r2={c:.1f}, "
                f"r3={c:.1f}, r4={c + 180.0:.1f}, rk2={r.k:.4f}, "
                f"rk3={r.k:.4f}, /"
            )
        sandbox.write_text(f"{tag}.RST", "\n".join(lines) + "\n")
        files.append(f"{tag}.RST")
    return files


def namd_write_input(adapter, sandbox, tag, coords, state, params, seed):
    coords = np.asarray(coords, dtype=float)
    if coords.shape != (2,):
        raise EngineError(f"coords must have shape (2,), got {coords.shape}")
    if state.salt_molar != 0.0:
        raise EngineError("the NAMD adapter does not support salt")
    conf = [
        f"# {tag}: RepEx MD phase",
        f"structure          {adapter.system.name}.psf",
        f"coordinates        {tag}.coor",
        f"set temperature    {state.temperature:.6f}",
        "langevin           on",
        f"langevinTemp       {state.temperature:.6f}",
        f"langevinDamping    {params.integrator_params.friction:.6f}",
        f"seed               {seed}",
        f"timestep           {params.integrator_params.dt:.6f}",
        f"outputEnergies     {max(1, params.sample_stride)}",
        f"dcdfreq            {max(1, params.sample_stride)}",
        f"outputname         {tag}",
    ]
    if state.restraints:
        conf.append("colvars            on")
        conf.append(f"colvarsConfig      {tag}.colvars")
        blocks = []
        for i, r in enumerate(state.restraints):
            blocks.append(
                f"colvar {{\n  name {r.angle}{i}\n  dihedral {{ "
                f"group: {r.angle} }}\n}}\n"
                f"harmonic {{\n  colvars {r.angle}{i}\n  centers "
                f"{r.center_deg:.2f}\n  forceConstant {r.k:.6f}\n}}"
            )
        sandbox.write_text(f"{tag}.colvars", "\n".join(blocks) + "\n")
    conf.append(f"run                {params.n_steps}")
    sandbox.write_text(f"{tag}.conf", "\n".join(conf) + "\n")
    sandbox.write_text(
        f"{tag}.coor",
        "# NAMD toy coordinates (phi, psi radians)\n"
        f"{coords[0]: 12.7f}{coords[1]: 12.7f}\n",
    )
    files = [f"{tag}.conf", f"{tag}.coor"]
    if state.restraints:
        files.append(f"{tag}.colvars")
    return files


def amber_write_outputs(adapter, sandbox, tag, result):
    eamber = result.potential_energy - result.restraint_energy
    sandbox.write_text(
        f"{tag}.mdinfo",
        f" NSTEP = {result.n_steps:8d}   TIME(PS) = "
        f"{result.n_steps * 0.002:12.3f}  TEMP(K) = "
        f"{result.temperature:8.2f}  PRESS =     0.0\n"
        f" Etot   = {result.potential_energy:14.4f}  EKtot   = "
        f"{0.0:14.4f}  EPtot      = {result.potential_energy:14.4f}\n"
        f" RESTRAINT  = {result.restraint_energy:14.4f}\n"
        f" EAMBER (non-restraint)  = {eamber:14.4f}\n"
        f" TORSIONAL  = {result.torsional_energy:14.4f}  EBATH   = "
        f"{result.bath_energy:14.4f}\n",
    )
    c = result.final_coords
    sandbox.write_text(
        f"{tag}.rst",
        "ALA2 toy coordinates (phi, psi in radians)\n"
        f"{adapter.system.n_atoms:6d}\n"
        f"{c[0]: 12.7f}{c[1]: 12.7f}\n",
    )
    lines = [f"{row[0]: 12.7f}{row[1]: 12.7f}" for row in result.trajectory]
    sandbox.write_text(f"{tag}.mdcrd", "\n".join(lines) + "\n")


def namd_write_outputs(adapter, sandbox, tag, result):
    log = [
        f"Info: NAMD 2.10 (simulated) for {adapter.system.name}",
        "ETITLE:      TS           POTENTIAL           RESTRAINT"
        "                BATH               TEMP",
        (
            f"ENERGY: {result.n_steps:8d} {result.potential_energy:19.4f} "
            f"{result.restraint_energy:19.4f} {result.bath_energy:19.4f} "
            f"{result.temperature:18.2f}"
        ),
        "WallClock: (simulated)",
    ]
    sandbox.write_text(f"{tag}.log", "\n".join(log) + "\n")
    c = result.final_coords
    sandbox.write_text(
        f"{tag}.restart.coor",
        "# NAMD toy coordinates (phi, psi radians)\n"
        f"{c[0]: 12.7f}{c[1]: 12.7f}\n",
    )
    lines = ["# NAMD toy trajectory (phi psi radians per frame)"]
    lines += [f"{row[0]: 12.7f}{row[1]: 12.7f}" for row in result.trajectory]
    sandbox.write_text(f"{tag}.dcd.txt", "\n".join(lines) + "\n")


_AMBER_INFO = {
    "potential_energy": r"EPtot\s*=\s*(-?[\d.]+)",
    "restraint_energy": r"RESTRAINT\s*=\s*(-?[\d.]+)",
    "torsional_energy": r"TORSIONAL\s*=\s*(-?[\d.]+)",
    "bath_energy": r"EBATH\s*=\s*(-?[\d.]+)",
    "temperature": r"TEMP\(K\)\s*=\s*(-?[\d.]+)",
}


def read_md_output(adapter, sandbox, tag):
    """The oracle's parse of one task's info file and restart coordinates."""
    if isinstance(adapter, AmberAdapter):
        text = sandbox.read_text(f"{tag}.mdinfo")
        energies = {
            key: float(re.search(pattern, text).group(1))
            for key, pattern in _AMBER_INFO.items()
        }
        restart = sandbox.read_text(f"{tag}.rst").splitlines()[2]
    else:
        text = sandbox.read_text(f"{tag}.log")
        cols = [ln for ln in text.splitlines() if ln.startswith("ENERGY:")][
            -1
        ].split()
        potential, restraint, bath = (float(x) for x in cols[2:5])
        energies = {
            "potential_energy": potential,
            "restraint_energy": restraint,
            "torsional_energy": potential - restraint - bath,
            "bath_energy": bath,
            "temperature": float(cols[5]),
        }
        restart = sandbox.read_text(f"{tag}.restart.coor").splitlines()[1]
    vals = restart.split()
    return energies, np.array([float(vals[0]), float(vals[1])])


def oracle_write_input(adapter, *args):
    writer = (
        amber_write_input
        if isinstance(adapter, AmberAdapter)
        else namd_write_input
    )
    return writer(adapter, *args)


def oracle_write_outputs(adapter, *args):
    writer = (
        amber_write_outputs
        if isinstance(adapter, AmberAdapter)
        else namd_write_outputs
    )
    writer(adapter, *args)


def md_task(amm, replica, cycle) -> UnitDescription:
    """The per-task ``ApplicationManager.md_task`` the group build replaced."""
    tag = amm.md_tag(replica, cycle)
    state = amm.state_of(replica)
    params = MDParams(
        n_steps=amm.config.effective_numeric_steps,
        sample_stride=amm.config.sample_stride,
    )
    seed = (
        amm.config.seed * 1_000_003 + replica.rid * 1_009 + cycle * 7
    ) % (2**31 - 1)
    input_files = oracle_write_input(
        amm.adapter, amm.sandbox, tag, replica.coords, state, params, seed
    )

    def file_size(filename):
        if filename.endswith((".inpcrd", ".coor", ".rst", ".restart.coor")):
            return amm.perf.restart_size_mb(amm.system)
        return max(amm.sandbox.size_mb(filename), 0.001)

    in_staging = [
        StagingDirective(
            source=f"client:///{f}",
            target=f"sandbox:///{tag}/{f}",
            size_mb=file_size(f),
            action=StagingAction.COPY,
        )
        for f in input_files
    ]
    out_staging = [
        StagingDirective(
            source=f"sandbox:///{tag}/{amm.adapter.info_file(tag)}",
            target=f"staging:///{amm.adapter.info_file(tag)}",
            size_mb=amm.perf.mdinfo_size_mb(),
            action=StagingAction.COPY,
        ),
        StagingDirective(
            source=f"sandbox:///{tag}/{amm.adapter.restart_file(tag)}",
            target=f"staging:///{amm.adapter.restart_file(tag)}",
            size_mb=amm.perf.restart_size_mb(amm.system),
            action=StagingAction.COPY,
        ),
    ]
    duration = amm.cluster.speed_factor * amm.perf.md_duration(
        amm.executable,
        amm.system,
        amm.config.steps_per_cycle,
        cores=replica.cores,
        task_key=tag,
    )
    duration *= amm.replica_speed(replica.rid)
    adapter, sandbox = amm.adapter, amm.sandbox
    return UnitDescription(
        name=tag,
        cores=replica.cores,
        gpus=amm.config.gpus_per_replica,
        duration=duration,
        work=lambda: ram.execute_md(adapter, sandbox, tag),
        batch=MDWork(adapter=adapter, sandbox=sandbox, tag=tag),
        input_staging=in_staging,
        output_staging=out_staging,
        metadata={"phase": "md", "rid": replica.rid, "cycle": cycle},
    )


def process_md_output(amm, replica, unit, cycle, dim_name) -> bool:
    """The per-replica ``ApplicationManager.process_md_output``, then the
    deletion of every sandbox file named after the task."""
    tag = amm.md_tag(replica, cycle)
    ok = _fold_md_output(amm, replica, unit, tag, cycle, dim_name)
    for name in amm.sandbox.listdir():
        if name.startswith(f"{tag}."):
            amm.sandbox.remove(name)
    return ok


def _fold_md_output(amm, replica, unit, tag, cycle, dim_name) -> bool:
    record = CycleRecord(
        cycle=cycle,
        dimension=dim_name,
        param_indices=dict(replica.param_indices),
        potential_energy=float("nan"),
        restraint_energy=float("nan"),
    )
    if not unit.succeeded:
        replica.n_failures += 1
        record.failed = True
        replica.history.append(record)
        replica.cycle = cycle + 1
        return False
    energies, coords = read_md_output(amm.adapter, amm.sandbox, tag)
    replica.coords = coords
    replica.last_energies = dict(energies)
    for dim in amm.dimensions:
        if isinstance(dim, PHDimension):
            ph = float(dim.value(replica.window(dim.name)))
            occ = dim.protonation_occupancy(
                ph, amm.rng.stream("protonation", replica.rid, cycle)
            )
            replica.last_energies["protonation"] = float(occ)
    record.potential_energy = energies["potential_energy"]
    record.restraint_energy = energies["restraint_energy"]
    record.torsional_energy = energies.get("torsional_energy", float("nan"))
    if unit.result is not None and hasattr(unit.result, "trajectory"):
        record.trajectory = unit.result.trajectory
    replica.history.append(record)
    replica.cycle = cycle + 1
    return True


def oracle_md(adapter, sandbox, tags):
    """Integrate each task alone from its files; the oracle writes the
    outputs (the oracle's files are never primed, so every read here is
    the regex parse)."""
    results = []
    for tag in tags:
        [(params, state, seed, coords)] = adapter.read_tasks(sandbox, [tag])
        result = adapter.toymd.run(
            coords, state, params, np.random.default_rng(seed)
        )
        oracle_write_outputs(adapter, sandbox, tag, result)
        results.append(result)
    return results


# -- comparison helpers -----------------------------------------------------


def staging_view(directives):
    return [
        (d.source, d.target, d.size_mb.hex(), d.action) for d in directives
    ]


def description_view(desc: UnitDescription):
    """Every field of an MD description; durations and sizes as hex."""
    return {
        "name": desc.name,
        "cores": desc.cores,
        "gpus": desc.gpus,
        "duration": desc.duration.hex(),
        "input_staging": staging_view(desc.input_staging),
        "output_staging": staging_view(desc.output_staging),
        "metadata": desc.metadata,
        "batch": (desc.batch.tag, type(desc.batch).__name__),
        "has_work": desc.work is not None,
    }


def sandbox_bytes(sandbox: Sandbox) -> Dict[str, str]:
    return {name: sandbox.read_text(name) for name in sandbox.listdir()}


def replica_view(rep):
    return json.dumps(
        {
            "rid": rep.rid,
            "coords": [float(c).hex() for c in rep.coords],
            "cycle": rep.cycle,
            "n_failures": rep.n_failures,
            "last_energies": {
                k: float(v).hex() for k, v in sorted(rep.last_energies.items())
            },
            "history": [
                {
                    "cycle": h.cycle,
                    "dimension": h.dimension,
                    "param_indices": h.param_indices,
                    "potential_energy": float(h.potential_energy).hex(),
                    "restraint_energy": float(h.restraint_energy).hex(),
                    "torsional_energy": float(h.torsional_energy).hex(),
                    "failed": h.failed,
                    "trajectory": (
                        None
                        if h.trajectory is None
                        else [float(x).hex() for x in h.trajectory.ravel()]
                    ),
                }
                for h in rep.history
            ],
        },
        sort_keys=True,
    )


def finished_unit(desc, result, ok: bool) -> ComputeUnit:
    """A unit driven by hand to DONE (with ``result``) or FAILED."""
    unit = ComputeUnit(desc)
    unit.advance(UnitState.SCHEDULING, 0.0)
    unit.advance(UnitState.STAGING_INPUT, 0.1)
    unit.advance(UnitState.AGENT_EXECUTING_PENDING, 0.2)
    unit.advance(UnitState.EXECUTING, 0.3)
    if not ok:
        unit.advance(UnitState.FAILED, 5.0)
        return unit
    unit.result = result
    unit.advance(UnitState.STAGING_OUTPUT, 10.0)
    unit.advance(UnitState.DONE, 10.1)
    return unit


# -- unit-level scenarios ---------------------------------------------------


def make_config(**over) -> SimulationConfig:
    defaults = dict(
        title="phase-prep",
        dimensions=[DimensionSpec("temperature", 4, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=4),
        n_cycles=2,
        steps_per_cycle=6000,
        numeric_steps=8,
        sample_stride=4,
        seed=11,
    )
    defaults.update(over)
    return SimulationConfig(**defaults)


ALL_AT_0 = "all@0"

#: name -> (config overrides, submission groups, failed (group, rid) pairs);
#: a group is ALL_AT_0 or a list of (rid, cycle)
SCENARIOS = {
    "amber-T": ({}, [ALL_AT_0], set()),
    "amber-TxSxU-umbrella": (
        {
            "dimensions": [
                DimensionSpec("temperature", 2, 300.0, 340.0),
                DimensionSpec("salt", 2, 0.0, 1.0),
                DimensionSpec(
                    "umbrella", 3, 0.0, 360.0, angle="phi",
                    force_constant=0.0005,
                ),
            ],
            "resource": ResourceSpec("stampede", cores=12),
        },
        [ALL_AT_0],
        set(),
    ),
    "namd-T": ({"engine": EngineSpec(name="namd")}, [ALL_AT_0], set()),
    "namd-U": (
        {
            "engine": EngineSpec(name="namd"),
            "dimensions": [
                DimensionSpec("umbrella", 4, 0.0, 360.0, angle="psi")
            ],
        },
        [ALL_AT_0],
        set(),
    ),
    "pmemd-mpi-4-cores": (
        {
            "cores_per_replica": 4,
            "resource": ResourceSpec("supermic", cores=16),
        },
        [ALL_AT_0],
        set(),
    ),
    "pmemd-cuda-gpus": (
        {
            "resource": ResourceSpec("stampede", cores=4, gpus=4),
            "gpus_per_replica": 1,
        },
        [ALL_AT_0],
        set(),
    ),
    "heterogeneity": ({"replica_heterogeneity": 0.5}, [ALL_AT_0], set()),
    # a failed first attempt of replicas 1 and 3, relaunched at the same
    # cycle: the relaunch group draws each replica's next speed multiplier
    "sync-relaunch-group": (
        {"replica_heterogeneity": 0.3},
        [ALL_AT_0, [(1, 0), (3, 0)]],
        {(0, 1), (0, 3)},
    ),
    # an asynchronous launch group: replicas at different cycles, one of
    # which fails and is folded as such
    "async-mixed-cycles": (
        {"n_cycles": 4},
        [[(2, 3), (0, 1), (3, 0), (1, 2)]],
        {(0, 3)},
    ),
    "on-disk-sandbox": ({}, [ALL_AT_0], set()),
}


#: scenarios that run something other than the engine's serial executable
EXECUTABLES = {
    "pmemd-mpi-4-cores": "pmemd.MPI",
    "pmemd-cuda-gpus": "pmemd.cuda",
}


def build_pair(config, tmp_path, on_disk):
    amms = []
    for side in ("phase", "oracle"):
        sandbox = Sandbox(tmp_path / side) if on_disk else Sandbox()
        amms.append(
            ApplicationManager(
                config, get_cluster(config.resource.name), sandbox=sandbox
            )
        )
    return amms


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_phase_matches_per_task_oracle(name, tmp_path):
    over, groups, failed = SCENARIOS[name]
    config = make_config(**over)
    amm, oamm = build_pair(config, tmp_path, on_disk=name == "on-disk-sandbox")
    assert amm.executable == EXECUTABLES.get(name, amm.adapter.executables[0])
    reps = {r.rid: r for r in amm.create_replicas()}
    oreps = {r.rid: r for r in oamm.create_replicas()}
    dim_name = amm.dimensions[0].name
    latest, olatest = {}, {}
    for gi, group in enumerate(groups):
        if group == ALL_AT_0:
            group = [(rid, 0) for rid in sorted(reps)]
        rids = [rid for rid, _ in group]
        cycles = [cycle for _, cycle in group]
        descs = amm.md_tasks([reps[r] for r in rids], cycles)
        odescs = [md_task(oamm, oreps[r], c) for r, c in group]
        assert [description_view(d) for d in descs] == [
            description_view(d) for d in odescs
        ]
        assert sandbox_bytes(amm.sandbox) == sandbox_bytes(oamm.sandbox)

        results = run_md_batch([d.batch for d in descs])
        oresults = oracle_md(
            oamm.adapter, oamm.sandbox, [d.name for d in odescs]
        )
        assert sandbox_bytes(amm.sandbox) == sandbox_bytes(oamm.sandbox)
        for (rid, cycle), d, r, od, orr in zip(
            group, descs, results, odescs, oresults
        ):
            ok = (gi, rid) not in failed
            latest[rid] = (finished_unit(d, r, ok), cycle)
            olatest[rid] = (finished_unit(od, orr, ok), cycle)

    for cycle in sorted({c for _, c in latest.values()}):
        rids = [rid for rid, (_, c) in latest.items() if c == cycle]
        oks = amm.process_md_outputs(
            [reps[r] for r in rids], [latest[r][0] for r in rids], cycle,
            dim_name,
        )
        ooks = [
            process_md_output(oamm, oreps[r], olatest[r][0], cycle, dim_name)
            for r in rids
        ]
        assert oks == ooks
    assert [replica_view(reps[r]) for r in sorted(reps)] == [
        replica_view(oreps[r]) for r in sorted(oreps)
    ]
    # the fold drops every unit's files and entries, so even a failed
    # unit's never-read outputs leave nothing behind
    assert amm.adapter._parsed == {}
    assert amm.sandbox.listdir() == oamm.sandbox.listdir() == []


def test_tasks_of_one_state_share_its_text_and_parse():
    """A group renders each distinct state's text once, and the tasks of
    one state read back one shared parsed state."""
    config = make_config(
        dimensions=[DimensionSpec("umbrella", 2, 0.0, 360.0, angle="phi")],
        resource=ResourceSpec("supermic", cores=2),
    )
    amm = ApplicationManager(config, get_cluster("supermic"))
    rep = amm.create_replicas()[0]
    t0, t1 = (d.name for d in amm.md_tasks([rep, rep], [0, 1]))
    sandbox = amm.sandbox
    assert sandbox.read_text(f"{t0}.RST") is sandbox.read_text(f"{t1}.RST")
    (_, s0, _, _), (_, s1, _, _) = amm.adapter.read_tasks(sandbox, [t0, t1])
    assert s0 is s1


# -- whole runs -------------------------------------------------------------


def oracle_md_tasks(amm, replicas, cycles) -> List[UnitDescription]:
    if isinstance(cycles, int):
        cycles = [cycles] * len(replicas)
    return [md_task(amm, r, c) for r, c in zip(replicas, cycles)]


def oracle_process_md_outputs(amm, replicas, units, cycle, dim_name):
    return [
        process_md_output(amm, r, u, cycle, dim_name)
        for r, u in zip(replicas, units)
    ]


#: one run per submission site: the sync phase, the sync relaunch, the
#: deadline-bounded barrier and the asynchronous launch groups
RUNS = {
    "sync-phase": {},
    "sync-relaunch": {
        "failure": FailureSpec(probability=0.4, policy="relaunch"),
        "n_cycles": 3,
    },
    "bounded-barrier": {
        "pattern": PatternSpec(kind="synchronous", barrier_deadline_s=300.0),
        "failure": FailureSpec(policy="continue", slow_nodes=[[0, 4.0]]),
        "watchdog": WatchdogSpec(
            enabled=True, deadline_factor=6.0, speculative=True
        ),
    },
    "async-launch-groups": {
        "pattern": PatternSpec(kind="asynchronous", window_seconds=60.0),
        "failure": FailureSpec(probability=0.3, policy="relaunch"),
        "n_cycles": 3,
    },
    "async-namd": {
        "engine": EngineSpec(name="namd"),
        "pattern": PatternSpec(kind="asynchronous", fifo_count=2),
        "n_cycles": 3,
    },
    "tsu-mode2": {
        "dimensions": [
            DimensionSpec("temperature", 2, 300.0, 340.0),
            DimensionSpec("salt", 2, 0.0, 1.0),
            DimensionSpec(
                "umbrella", 2, 0.0, 360.0, angle="phi", force_constant=0.0005
            ),
        ],
        "resource": ResourceSpec("stampede", cores=4),
        "execution_mode": "II",
        "replica_heterogeneity": 0.2,
    },
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_runs_match_per_task_oracle(name, monkeypatch):
    """A whole run with the oracle's per-task build and fold patched in does
    not differ from the phase path in its result, manifest or sandbox."""
    config = make_config(**RUNS[name])

    def run():
        repex = RepEx(config, registry=MetricsRegistry())
        result = repex.run()
        return (
            result.fingerprint(),
            result.manifest.to_jsonl(),
            sandbox_bytes(repex.amm.sandbox),
        )

    phase = run()
    monkeypatch.setattr(ApplicationManager, "md_tasks", oracle_md_tasks)
    monkeypatch.setattr(
        ApplicationManager, "process_md_outputs", oracle_process_md_outputs
    )
    assert run() == phase


@pytest.mark.parametrize(
    "over",
    [
        {},
        {
            "pattern": PatternSpec(kind="asynchronous", window_seconds=60.0),
            "n_cycles": 3,
        },
    ],
    ids=["sync", "async"],
)
def test_parse_caches_are_empty_after_a_run(over):
    """Every entry a phase's writes prime is removed by the read that uses
    it or by the fold, so a finished run leaves the adapter's parse store
    holding nothing."""
    repex = RepEx(make_config(**over))
    result = repex.run()
    assert sum(len(r.history) for r in result.replicas) > 0
    assert repex.amm.adapter._parsed == {}
    assert repex.amm.sandbox.listdir() == []
