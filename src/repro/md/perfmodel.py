"""Calibrated performance model for the simulated MD executables.

The virtual-clock durations of compute units come from here.  Constants are
calibrated to the anchors the paper reports (Section 4):

* ``sander`` (serial Amber): 6000 steps of the 2881-atom system take
  139.6 s  =>  C_SANDER = 139.6 / (6000 * 2881) ~ 8.074e-6 s/(step*atom).
* ``pmemd.MPI`` (parallel Amber): faster per step than sander, plus a
  per-step communication term that grows with core count — this produces
  the paper's Fig. 12 shape (large drop to 16 cores, sub-linear beyond,
  because the 64366-atom system "is small in absolute terms").
* ``namd2``: calibrated so 4000 steps of the 2881-atom system take ~230 s
  (Fig. 8 MD bars), plus NAMD's noticeable startup/load-balancing cost.
* single-point energy tasks (``sander`` group runs for S-REMD): startup-
  dominated, cost scaling with the number of states evaluated.

Per-task jitter is multiplicative log-normal, deterministic per
(name, cycle) key — it is what makes barrier (max-over-replicas) times
exceed the mean and efficiency decline with replica count, exactly the
mechanism behind the paper's weak-scaling curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.md.system import MolecularSystem
from repro.utils.rng import key_digest

# -- calibration constants (seconds) ----------------------------------------

#: sander cost per step per atom (from 139.6 s / 6000 steps / 2881 atoms).
C_SANDER = 139.6 / (6000.0 * 2881.0)

#: pmemd compute cost per step per atom (pmemd ~1.7x faster than sander).
C_PMEMD = C_SANDER / 1.7

#: pmemd per-step communication cost, multiplied by log2(cores).  Set so
#: that the 64366-atom system saturates around 64 cores, reproducing the
#: paper's Fig. 12 observation that the system "is small in absolute
#: terms and thus makes it difficult to gain significant performance
#: improvements by using more CPUs".
C_PMEMD_COMM = 1.2e-3

#: pmemd.cuda cost per step per atom: one K20 GPU runs this workload an
#: order of magnitude faster than a CPU core (paper: GPU support for the
#: simulation phase, already available on Stampede).
C_PMEMD_CUDA = C_PMEMD / 12.0

#: pmemd.cuda startup (context creation + upload).
CUDA_STARTUP = 4.0

#: NAMD cost per step per atom (from ~230 s / 4000 steps / 2881 atoms).
C_NAMD = 230.0 / (4000.0 * 2881.0)

#: NAMD startup + initial load balancing.
NAMD_STARTUP = 12.0

#: Amber startup (prmtop parse etc.).
AMBER_STARTUP = 1.5

#: Single-point energy evaluation cost per atom per state.
C_SINGLE_POINT = 1.5e-3

#: Startup of a single-point group run (group-file sander launch).
SP_STARTUP = 8.0

#: Default relative jitter (sigma of log-normal) on MD task durations.
DEFAULT_JITTER = 0.02


class PerfModelError(ValueError):
    """Raised for inconsistent performance queries (e.g. sander on 4 cores)."""


@dataclass
class PerformanceModel:
    """Duration oracle for the simulated executables.

    Parameters
    ----------
    jitter:
        Relative log-normal sigma applied per task; 0 disables noise.
    seed:
        Root seed of the jitter streams (deterministic per task key).
    """

    jitter: float = DEFAULT_JITTER
    seed: int = 20160113  # arXiv submission date of the paper

    def __post_init__(self):
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    # -- MD phases ------------------------------------------------------------

    def md_duration(
        self,
        executable: str,
        system: MolecularSystem,
        n_steps: int,
        cores: int = 1,
        *,
        task_key: Optional[str] = None,
    ) -> float:
        """Virtual seconds for an MD phase of ``n_steps`` on ``cores`` cores.

        Raises
        ------
        PerfModelError
            For executable/core mismatches (sander is serial; pmemd.MPI
            needs >= 2 cores, as the paper notes it "can't be run on a
            single CPU core").
        """
        if n_steps < 0:
            raise PerfModelError(f"n_steps must be >= 0, got {n_steps}")
        if cores <= 0:
            raise PerfModelError(f"cores must be > 0, got {cores}")

        if executable == "sander":
            if cores != 1:
                raise PerfModelError("sander is serial; use pmemd.MPI for cores > 1")
            base = AMBER_STARTUP + n_steps * system.n_atoms * C_SANDER
        elif executable == "pmemd.MPI":
            if cores < 2:
                raise PerfModelError("pmemd.MPI can't be run on a single CPU core")
            compute = n_steps * system.n_atoms * C_PMEMD / cores
            comm = n_steps * C_PMEMD_COMM * math.log2(cores)
            base = AMBER_STARTUP + compute + comm
        elif executable == "pmemd.cuda":
            # one GPU per task; the CPU core only feeds the device
            base = CUDA_STARTUP + n_steps * system.n_atoms * C_PMEMD_CUDA
        elif executable == "namd2":
            compute = n_steps * system.n_atoms * C_NAMD / cores
            comm = (
                n_steps * C_PMEMD_COMM * math.log2(cores) if cores > 1 else 0.0
            )
            base = NAMD_STARTUP + compute + comm
        else:
            raise PerfModelError(
                f"unknown executable {executable!r}; "
                "known: sander, pmemd.MPI, pmemd.cuda, namd2"
            )
        return self._jittered(base, task_key)

    def md_durations(
        self,
        executable: str,
        system: MolecularSystem,
        n_steps: int,
        cores: Sequence[int],
        task_keys: Sequence[str],
    ) -> List[float]:
        """:meth:`md_duration` for a submission group, one task per key.

        The jitter-free base depends only on the core count, so it is
        computed once per distinct count; each task keeps its own one-shot
        jitter draw, so every value equals the per-task call's bit for bit.
        """
        bases: Dict[int, float] = {}
        out = []
        for n_cores, key in zip(cores, task_keys):
            if n_cores not in bases:
                bases[n_cores] = self.md_duration(
                    executable, system, n_steps, n_cores
                )
            out.append(self._jittered(bases[n_cores], key))
        return out

    # -- exchange-phase tasks -----------------------------------------------------

    def exchange_calc_duration(
        self,
        n_replicas_in_group: int,
        *,
        multidim: bool = False,
        task_key: Optional[str] = None,
    ) -> float:
        """Seconds for the (cheap, single-task) exchange-matrix computation.

        Used for T and U exchange, where energies are already available and
        a single MPI task computes partners — cost grows with the number of
        replicas whose files it reads (the near-linear growth of exchange
        time in Fig. 6).
        """
        if n_replicas_in_group < 0:
            raise PerfModelError(
                f"n_replicas_in_group must be >= 0, got {n_replicas_in_group}"
            )
        base = 0.6 + 0.012 * n_replicas_in_group
        if multidim:
            base *= 1.25  # more bookkeeping per replica in M-REMD
        return self._jittered(base, task_key)

    def single_point_duration(
        self,
        system: MolecularSystem,
        n_states: int,
        cores: int,
        *,
        task_key: Optional[str] = None,
    ) -> float:
        """Seconds for an Amber group-file single-point energy task.

        One such task evaluates one replica's configuration in ``n_states``
        thermodynamic states using ``cores`` cores (the paper: "this task
        requires at least as many CPU cores as there are potential exchange
        partners").
        """
        if n_states <= 0:
            raise PerfModelError(f"n_states must be > 0, got {n_states}")
        if cores <= 0:
            raise PerfModelError(f"cores must be > 0, got {cores}")
        concurrent = min(cores, n_states)
        waves = math.ceil(n_states / concurrent)
        base = SP_STARTUP + waves * system.n_atoms * C_SINGLE_POINT
        return self._jittered(base, task_key)

    def task_prep_overhead(self, n_replicas: int, n_dims: int = 1) -> float:
        """RepEx-side task-preparation time (``T_RepEx_over``).

        "RepEx overhead depends on the total number of replicas and on
        simulation type ... overhead times for 3D simulations are longer,
        since there are more data associated with each replica" (Sec. 4.1).
        Calibrated to the Fig. 5 series: ~ seconds at 64 replicas, ~10 s
        (1D) / ~17 s (3D) at 1728.
        """
        if n_replicas < 0:
            raise PerfModelError(f"n_replicas must be >= 0, got {n_replicas}")
        if n_dims < 1:
            raise PerfModelError(f"n_dims must be >= 1, got {n_dims}")
        per_replica = 0.0052 if n_dims == 1 else 0.0052 * (1.0 + 0.65 * (n_dims - 1))
        return 0.8 + per_replica * n_replicas

    # -- file-size model (drives T_data) ----------------------------------------------

    def mdinfo_size_mb(self) -> float:
        """Size of an engine info/energy file."""
        return 0.004

    def restart_size_mb(self, system: MolecularSystem) -> float:
        """Size of a coordinate restart file (text, ~80 bytes/atom)."""
        return system.n_atoms * 80.0 / 1.0e6

    def restraint_file_size_mb(self) -> float:
        """Size of an umbrella restraint (DISANG-style) file."""
        return 0.002

    def groupfile_size_mb(self, n_states: int) -> float:
        """Size of an Amber group file listing ``n_states`` runs."""
        return 0.0002 * max(1, n_states)

    def energy_matrix_size_mb(self, n_states: int) -> float:
        """Size of the staged per-replica energy-matrix row."""
        return 0.0001 * max(1, n_states)

    # -- internals ---------------------------------------------------------------

    def _jittered(self, base: float, task_key: Optional[str]) -> float:
        if self.jitter == 0.0 or task_key is None:
            return base
        # One-shot generator per task key: deterministic, and avoids caching
        # hundreds of thousands of streams across a long scaling sweep.
        # Generator(PCG64(seq)) is what default_rng(seq) constructs
        # (PCG64(seq) itself enters np.errstate, so neither is cheaper).
        rng = np.random.Generator(
            np.random.PCG64(
                np.random.SeedSequence([self.seed, key_digest(task_key)])
            )
        )
        return float(base * math.exp(self.jitter * rng.standard_normal()))


#: A quiet model for tests that need exact arithmetic.
def deterministic_model() -> PerformanceModel:
    """Performance model with jitter disabled."""
    return PerformanceModel(jitter=0.0)
