"""Batched MD execution: many replicas, one vectorised integration pass.

Adapters own the file formats, this module owns the numerics.  A group's
tasks are read through one :meth:`EngineAdapter.read_tasks
<repro.md.engine.EngineAdapter.read_tasks>` call (parameters, state, seed
and coordinates from the engine's own input files), integrated here, and
their outputs written through one
:meth:`~repro.md.engine.EngineAdapter.write_outputs` call — so Amber and
NAMD tasks batch alike, and ``EngineAdapter.run_md`` is a batch of one.
Every MD submission site integrates its whole group in one
call (:func:`repro.core.execution_modes.precompute_md`): a synchronous
phase in either execution mode, the deadline-bounded barrier's fan-out,
and the asynchronous pattern's initial launch and its post-sweep,
pool-flush and post-checkpoint relaunch groups.  Within a call:

* every task is read up front,
* tasks with the same step schedule (``n_steps``, sample stride, ``dt``,
  friction, mass) and restraint signature (the angle of each restraint
  slot) are stacked into an ``(R, 2)`` walker array and integrated
  together with the Brownian integrator (the only one the engines' input
  formats express; a task naming another raises ``EngineError``) —
  temperature, salt, umbrella centres, force constants and seed are
  per-row columns, so a whole T x S x U wave is one group, and
* each replica keeps its *own* ``default_rng(seed)`` whose normal draws are
  pre-generated as one ``(n_steps, 2)`` block.

Bit-identity with the scalar path (read one task ->
``ToyMD.run(..., default_rng(seed))`` -> write its outputs) is a hard
contract, relied on by the differential suite in
``tests/perf/test_soa_equivalence.py``:

* ``Generator.standard_normal((n_steps, 2))`` yields exactly the values of
  ``n_steps`` sequential ``(1, 2)`` draws and leaves the generator in the
  same state, so the post-integration bath draw matches too;
* the force field is elementwise over the walker axis (no reductions), so
  evaluating ``(R,)`` rows together reproduces each ``(1,)`` evaluation bit
  for bit;
* the per-replica noise scale, Debye screening factor and restraint
  operands are computed with the exact scalar arithmetic of the reference
  and applied as columns (``(R, 1) * (R, 2)`` or ``(R,) * (R,)``), which
  combine the same pairs of doubles; the gradient itself is the one
  formula the reference calls (``ForceField.screened_gradient``).

Scalar transcendentals with *different* operand shapes (float exponents,
``math.exp`` vs ``np.exp``) are NOT bit-stable between batch and scalar
form — anything of that shape (energy readouts, cluster models) stays a
per-replica scalar call here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.md.engine import EngineError
from repro.md.forcefield import debye_screening_factor, wrap_angle
from repro.md.toymd import MDResult, ToyMD
from repro.utils.units import KB_KCAL_PER_MOL_K

#: cap on pre-drawn normals per integration chunk (doubles); bounds memory
#: at ~64 MB for the largest ladders without affecting any value
_MAX_NORMALS = 8_000_000


@dataclass(eq=False, frozen=True)
class MDWork:
    """Batchable-work descriptor carried on ``UnitDescription.batch``.

    Identifies one MD task (adapter + sandbox + tag) so a submission site
    can integrate all of its MD units through :func:`run_md_batch`
    instead of one ``work()`` call each; every unit's ``work`` then
    returns its precomputed result, on either event engine.
    """

    adapter: Any
    sandbox: Any
    tag: str


def run_md_batch(items: Sequence[MDWork]) -> List[MDResult]:
    """Execute every MD task in ``items``; returns results in input order.

    Tasks are grouped by (adapter, sandbox) identity, then by integration
    compatibility; each compatible group integrates as one stacked walker
    array.  Each group's output files are written by one call of its
    adapter's ``write_outputs``.
    """
    results: List[MDResult] = [None] * len(items)  # type: ignore[list-item]
    groups: Dict[Tuple[int, int], List[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault((id(item.adapter), id(item.sandbox)), []).append(i)
    for idxs in groups.values():  # first-seen order
        first = items[idxs[0]]
        outs = _run_adapter_batch(
            first.adapter, first.sandbox, [items[i].tag for i in idxs]
        )
        for i, result in zip(idxs, outs):
            results[i] = result
    return results


def _run_adapter_batch(adapter, sandbox, tags: List[str]) -> List[MDResult]:
    # Read phase: every task's (params, state, seed, coords), hoisted out
    # of the integration loop.
    tasks = adapter.read_tasks(sandbox, tags)

    # Group by the step schedule and the restraint signature (which angle
    # each restraint slot acts on).  Temperature, salt, umbrella centres
    # and force constants, and the rng stream are per-row columns.
    results: List[MDResult] = [None] * len(tags)  # type: ignore[list-item]
    group_idx: Dict[tuple, List[int]] = {}
    for i, (params, state, _seed, _coords) in enumerate(tasks):
        if params.integrator != "brownian":
            raise EngineError(
                f"{tags[i]}: batched MD integrates only the Brownian "
                f"integrator, not {params.integrator!r}"
            )
        ip = params.integrator_params
        key = (
            params.n_steps,
            params.sample_stride,
            ip.dt,
            ip.friction,
            ip.mass,
            tuple(r.angle for r in state.restraints),
        )
        group_idx.setdefault(key, []).append(i)

    for idxs in group_idx.values():
        params = tasks[idxs[0]][0]
        # Chunk so the pre-drawn normals stay bounded in memory.
        rows = max(1, _MAX_NORMALS // (2 * max(1, params.n_steps)))
        for lo in range(0, len(idxs), rows):
            chunk = idxs[lo : lo + rows]
            outs = _integrate_brownian_group(
                adapter.toymd, [tasks[i] for i in chunk]
            )
            for i, result in zip(chunk, outs):
                results[i] = result

    # Output phase: the adapter's own files and formats.
    adapter.write_outputs(sandbox, tags, results)
    return results


def _integrate_brownian_group(
    toymd: ToyMD, tasks: List[tuple]
) -> List[MDResult]:
    """Overdamped Langevin for R walkers in one pass.

    ``tasks`` is ``[(params, ThermodynamicState, seed, coords (2,)), ...]``
    as ``read_tasks`` returns them, all with the same step schedule and
    restraint signature.  Every arithmetic step below reproduces
    ``BrownianIntegrator.run`` + ``ToyMD.run`` per element: the per-replica
    noise scale, Debye screening factor and restraint operands are
    computed with the reference's scalar arithmetic and broadcast down the
    walker axis as columns.
    """
    ff = toymd.forcefield
    params = tasks[0][0]
    n_steps, sample_stride = params.n_steps, params.sample_stride
    iparams = params.integrator_params
    dt = iparams.dt
    gamma = iparams.friction
    drift = dt / gamma

    n = len(tasks)
    x = np.array([t[3] for t in tasks], dtype=float)
    states = [t[1] for t in tasks]
    # Same bit-generator state as the reference's default_rng(seed),
    # without default_rng's errstate wrapper (one construction per task).
    rngs = [np.random.Generator(np.random.PCG64(t[2])) for t in tasks]
    noise_col = np.empty((n, 1))
    for i, state in enumerate(states):
        kt = KB_KCAL_PER_MOL_K * state.temperature
        noise_col[i, 0] = math.sqrt(2.0 * kt * dt / gamma)
    s_col = np.array(
        [debye_screening_factor(st.salt_molar, ff.elec_r0) for st in states]
    )
    # One (angle, centre column, 2k column) triple per restraint slot.
    restraint_cols = []
    for slot in zip(*(st.restraints for st in states)):
        angles, centres, two_ks = zip(*(r.gradient_terms for r in slot))
        restraint_cols.append((angles[0], np.array(centres), np.array(two_ks)))
    # One (n_steps, 2) block per replica == its n_steps sequential (1, 2)
    # draws, and leaves each generator ready for the bath draw below.
    normals = np.empty((n, n_steps, 2))
    for i, rng in enumerate(rngs):
        normals[i] = rng.standard_normal((n_steps, 2))

    samples = [] if sample_stride > 0 else None
    for step in range(n_steps):
        gphi, gpsi = ff.screened_gradient(
            x[:, 0], x[:, 1], s_col, restraint_cols
        )
        x[:, 0] -= drift * gphi
        x[:, 1] -= drift * gpsi
        x += noise_col * normals[:, step, :]
        x = wrap_angle(x)
        if samples is not None and (step + 1) % sample_stride == 0:
            samples.append(x.copy())

    if samples is not None:
        if samples:
            samples_arr = np.array(samples)
        else:
            samples_arr = np.empty((0, n, 2))
    else:
        samples_arr = None

    # Final torsional energies for all walkers in one call: the rama/elec
    # terms are elementwise array math on both paths ((R, 3) wells here vs
    # (3,) wells per replica — same ufunc loops, bit-identical elements).
    # Restraint energies stay per-replica: ``d**2`` on a 0-d scalar and on
    # a 1-D array take different pow paths and are NOT bit-stable.
    tors_all = ff.screened_energy(x[:, 0], x[:, 1], s_col)
    results = []
    for i, (state, rng) in enumerate(zip(states, rngs)):
        final = x[i]
        traj = (
            samples_arr[:, i, :]
            if samples_arr is not None
            else np.empty((0, 2))
        )
        tors = float(tors_all[i])
        restr = 0.0
        for r in state.restraints:
            restr += float(r.energy(final[0], final[1]))
        bath = toymd.bath.sample_energy(state.temperature, rng)
        results.append(
            MDResult(
                final_coords=final,
                trajectory=traj,
                potential_energy=tors + restr + bath,
                torsional_energy=tors,
                restraint_energy=restr,
                bath_energy=bath,
                temperature=state.temperature,
                n_steps=n_steps,
            )
        )
    return results
