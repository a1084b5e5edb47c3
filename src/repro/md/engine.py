"""Engine adapter interface.

The RepEx design principle is that the framework never reaches inside the
MD engine: the AMM prepares *input files* and task descriptions, the RAM
(running on the cluster) launches the executable and parses *output files*.
An adapter therefore only knows its engine's native file formats, and
speaks them a submission group at a time: ``write_inputs`` / ``read_tasks``
write the group's input files and parse them back, ``write_outputs`` /
``read_outputs`` do the same for its output files.  A single task is a
one-element group.  The numerics in between belong to
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
    def write_inputs(
        self,
        sandbox: Sandbox,
        tags: Sequence[str],
        coords: Sequence[np.ndarray],
        states: Sequence[ThermodynamicState],
        params: MDParams,
        seeds: Sequence[int],
    ) -> List[List[Tuple[str, int]]]:
        """Write the engine's input files for a group of MD tasks.

        Task ``i`` is named ``tags[i]`` (e.g. ``"md_r0042_c0003"``) and
        starts from ``coords[i]`` in ``states[i]`` with seed ``seeds[i]``;
        every task of the group shares ``params``.  Returns, per task, the
        ``(file name, byte length)`` of each file written, relative to the
        sandbox.
        """

    @abc.abstractmethod
    def read_tasks(
        self, sandbox: Sandbox, tags: Sequence[str]
    ) -> List[Tuple[MDParams, ThermodynamicState, int, np.ndarray]]:
        """Parse each tag's input files (the single source of truth, as for
        a real engine) into ``(params, state, seed, coords)``, in order."""

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
    def write_outputs(
        self,
        sandbox: Sandbox,
        tags: Sequence[str],
        results: Sequence[MDResult],
    ) -> None:
        """Write the native output files (info, restart, trajectory) of
        each tag's finished integration."""

    @abc.abstractmethod
    def read_outputs(
        self, sandbox: Sandbox, tags: Sequence[str]
    ) -> List[Tuple[Dict[str, float], np.ndarray]]:
        """Parse each tag's info file and restart coordinates, in order.

        The energies hold at least ``potential_energy``,
        ``restraint_energy`` and ``temperature``; the coordinates are the
        final (phi, psi).
        """

    @staticmethod
    def _coord_rows(coords: Sequence[np.ndarray]) -> List[List[float]]:
        """Each task's starting (phi, psi) as floats, shape-checked."""
        rows = []
        for c in coords:
            c = np.asarray(c, dtype=float)
            if c.shape != (2,):
                raise EngineError(
                    f"coords must have shape (2,), got {c.shape}"
                )
            rows.append(c.tolist())
        return rows

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
