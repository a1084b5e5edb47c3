"""Engine adapter interface.

The RepEx design principle is that the framework never reaches inside the
MD engine: the AMM prepares *input files* and task descriptions, the RAM
(running on the cluster) launches the executable and parses *output files*.
An adapter therefore only knows its engine's native file formats:
``write_input`` / ``read_task`` write a task's input files and parse them
back, ``write_outputs`` / ``read_info`` / ``read_restart`` do the same for
its output files.  The numerics in between belong to
:mod:`repro.md.batch`, which integrates tasks of either engine in one
pass; ``run_md`` is a batch of one.

Adding a new MD engine to RepEx means writing one new adapter — nothing in
``repro.core`` changes, which is the paper's "integration of new MD
simulation engines is significantly simplified" claim, and something the
test suite asserts structurally.
"""

from __future__ import annotations

import abc
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.md.forcefield import ForceField
from repro.md.sandbox import Sandbox
from repro.md.system import MolecularSystem, alanine_dipeptide
from repro.md.toymd import MDParams, MDResult, ThermodynamicState, ToyMD


class EngineError(RuntimeError):
    """Raised when an adapter is driven with inconsistent inputs."""


class EngineAdapter(abc.ABC):
    """Base class for MD engine adapters (Amber-style, NAMD-style)."""

    #: engine name as used in configuration files
    name: str = "abstract"
    #: executables this engine provides, serial first
    executables: Sequence[str] = ()
    #: whether the input formats carry a salt concentration (S-REMD)
    supports_salt: bool = True

    def __init__(
        self,
        system: Optional[MolecularSystem] = None,
        forcefield: Optional[ForceField] = None,
    ):
        self.system = system or alanine_dipeptide()
        self.toymd = ToyMD(self.system, forcefield)

    # -- input side (AMM / RAM build these) ----------------------------------

    @abc.abstractmethod
    def write_input(
        self,
        sandbox: Sandbox,
        tag: str,
        coords: np.ndarray,
        state: ThermodynamicState,
        params: MDParams,
        seed: int,
    ) -> List[str]:
        """Write the engine's input files for one MD phase.

        Returns the list of file names written (all relative to the
        sandbox).  ``tag`` uniquely names this task, e.g.
        ``"md_r0042_c0003"``.
        """

    @abc.abstractmethod
    def read_task(
        self, sandbox: Sandbox, tag: str
    ) -> Tuple[MDParams, ThermodynamicState, int, np.ndarray]:
        """Parse ``tag``'s input files (the single source of truth, as for
        a real engine) into ``(params, state, seed, coords)``."""

    # -- execution (RAM calls this inside the compute unit) --------------------

    def run_md(self, sandbox: Sandbox, tag: str) -> MDResult:
        """Execute the MD phase described by ``tag``'s input files: read,
        integrate, write the outputs, return the result.  A batch of one
        (:func:`repro.md.batch.run_md_batch`); submission groups call the
        batch directly, so adapters implement the formats, not this."""
        from repro.md.batch import MDWork, run_md_batch  # imports this module

        return run_md_batch([MDWork(self, sandbox, tag)])[0]

    # -- output side (exchange phase reads these) -------------------------------

    @abc.abstractmethod
    def write_outputs(self, sandbox: Sandbox, tag: str, result: MDResult) -> None:
        """Write the native output files (info, restart, trajectory) of
        ``tag``'s finished integration."""

    @abc.abstractmethod
    def read_info(self, sandbox: Sandbox, tag: str) -> Dict[str, float]:
        """Parse the engine's info/energy output file for ``tag``.

        Returns at least ``potential_energy``, ``restraint_energy`` and
        ``temperature``.
        """

    @abc.abstractmethod
    def read_restart(self, sandbox: Sandbox, tag: str) -> np.ndarray:
        """Parse the final coordinates (phi, psi) written by ``tag``'s run."""

    # -- bookkeeping -----------------------------------------------------------

    def info_file(self, tag: str) -> str:
        """Name of the energy/info output file for a task tag."""
        return f"{tag}.mdinfo"

    def restart_file(self, tag: str) -> str:
        """Name of the restart (final coordinates) file for a task tag."""
        return f"{tag}.rst"

    def default_executable(self, cores: int) -> str:
        """Executable to use for a replica of ``cores`` cores."""
        if not self.executables:
            raise EngineError(f"{self.name}: no executables registered")
        if cores == 1:
            return self.executables[0]
        if len(self.executables) > 1:
            return self.executables[1]
        return self.executables[0]


_ADAPTERS: Dict[str, type] = {}


def register_adapter(cls: type) -> type:
    """Class decorator: register an adapter under ``cls.name``."""
    if not issubclass(cls, EngineAdapter):
        raise TypeError(f"{cls!r} is not an EngineAdapter")
    _ADAPTERS[cls.name] = cls
    return cls


def adapter_class(name: str) -> type:
    """The adapter class registered under engine ``name``.

    Raises
    ------
    KeyError
        If no adapter with that name is registered.
    """
    try:
        return _ADAPTERS[name]
    except KeyError:
        raise KeyError(
            f"unknown MD engine {name!r}; known: {sorted(_ADAPTERS)}"
        ) from None


def get_adapter(
    name: str,
    system: Optional[MolecularSystem] = None,
    forcefield: Optional[ForceField] = None,
) -> EngineAdapter:
    """Instantiate a registered adapter by engine name."""
    return adapter_class(name)(system=system, forcefield=forcefield)


def available_engines() -> List[str]:
    """Names of all registered engine adapters."""
    return sorted(_ADAPTERS)
