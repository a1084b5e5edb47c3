"""Engine adapter interface.

The RepEx design principle is that the framework never reaches inside the
MD engine: the AMM prepares *input files* and task descriptions, the RAM
(running on the cluster) launches the executable and parses *output files*.
An adapter therefore only knows its engine's native file formats, and
speaks them a submission group at a time: ``write_inputs`` / ``read_tasks``
write the group's input files and parse them back, ``write_outputs`` /
``read_outputs`` do the same for its output files, and ``discard``
deletes them once the task is folded.  A single task is a one-element
group.  An adapter writes its formats, lists the files a task writes
(``task_suffixes``) and supplies the parsers; the reads are this base's,
served from the parse store the writes prime.  The numerics in between
belong to :mod:`repro.md.batch`, which integrates tasks of either engine
in one pass; ``run_md`` is a batch of one.

Adding a new MD engine to RepEx means writing one new adapter — nothing in
``repro.core`` changes, which is the paper's "integration of new MD
simulation engines is significantly simplified" claim, and something the
test suite asserts structurally.
"""

from __future__ import annotations

import abc
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.md.forcefield import ForceField, UmbrellaRestraint
from repro.md.integrators import IntegratorParams
from repro.md.sandbox import Sandbox
from repro.md.system import MolecularSystem, alanine_dipeptide
from repro.md.toymd import MDParams, MDResult, ThermodynamicState, ToyMD


class EngineError(RuntimeError):
    """Raised when an adapter is driven with inconsistent inputs."""


class EngineAdapter(abc.ABC):
    """Base class for MD engine adapters (Amber-style, NAMD-style).

    An adapter writes its engine's files; this base reads them back
    through one parse store, keyed by sandbox and file name, that holds
    only files in flight.  Writing a file the adapter reads back records
    what a parse of exactly those bytes recovers, and the read that uses
    the entry pops it.  A hit still requires the file's text, and that of
    the one file its parse also reads (a DISANG or colvars file), to equal
    what was written, so a rewritten or hand-edited file always goes
    through the real parser; a value the parser would not recover
    verbatim is never recorded.  :meth:`discard` deletes a task's files,
    with any entry no read used, once the task is folded.
    """

    #: engine name as used in configuration files
    name: str = "abstract"
    #: executables this engine provides, serial first
    executables: Sequence[str] = ()
    #: whether the input formats carry a salt concentration (S-REMD)
    supports_salt: bool = True
    #: every file an MD task ``tag`` writes, inputs and outputs, is
    #: ``tag + suffix`` for one of these
    task_suffixes: Sequence[str] = ()
    #: a task's control file and its starting coordinates
    _control_suffix = ".mdin"
    _coords_suffix = ".inpcrd"
    #: the lines of a coordinate file before its (phi, psi) line
    _coords_head = ""

    def __init__(
        self,
        system: Optional[MolecularSystem] = None,
        forcefield: Optional[ForceField] = None,
    ):
        self.system = system or alanine_dipeptide()
        self.toymd = ToyMD(self.system, forcefield)
        #: (id(sandbox), file name) -> (text, what its parse recovers,
        #: (name, text) of the file that parse also reads, or None)
        self._parsed: Dict[Tuple[int, str], tuple] = {}

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
        sandbox.  The control file's entry holds what
        :meth:`_parse_control` returns.
        """

    def read_tasks(
        self, sandbox: Sandbox, tags: Sequence[str]
    ) -> List[Tuple[MDParams, ThermodynamicState, int, np.ndarray]]:
        """Parse each tag's input files (the single source of truth, as for
        a real engine) into ``(params, state, seed, coords)``, in order."""
        tasks = []
        for tag in tags:
            name = tag + self._control_suffix
            text = sandbox.read_text(name)
            n_steps, stride, dt, friction, state, seed = self._take(
                sandbox, name, text
            ) or self._parse_control(sandbox, tag, text)
            # MDParams is mutable, so each task gets its own; a cached
            # state is shared by the tasks of one state
            params = MDParams(
                n_steps,
                stride,
                integrator_params=IntegratorParams(dt, friction),
            )
            coords = self._read_coords(sandbox, tag + self._coords_suffix)
            tasks.append((params, state, seed, coords))
        return tasks

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

    def read_outputs(
        self, sandbox: Sandbox, tags: Sequence[str]
    ) -> List[Tuple[Dict[str, float], np.ndarray]]:
        """Parse each tag's info file and restart coordinates, in order.

        The energies hold at least ``potential_energy``,
        ``restraint_energy`` and ``temperature``; the coordinates are the
        final (phi, psi).
        """
        outputs = []
        for tag in tags:
            name = self.info_file(tag)
            text = sandbox.read_text(name)
            energies = self._take(sandbox, name, text) or self._parse_info(
                text, tag
            )
            coords = self._read_coords(sandbox, self.restart_file(tag))
            outputs.append((energies, coords))
        return outputs

    def discard(self, sandbox: Sandbox, names: Sequence[str]) -> None:
        """Delete the named files and any parse entry left for them; a
        name that was never written (no restraints, no outputs yet) is
        skipped."""
        pop, sid = self._parsed.pop, id(sandbox)
        for name in names:
            pop((sid, name), None)
        sandbox.discard(names)

    # -- the formats' parsers, and the store in front of them ----------------

    def _parse_control(self, sandbox: Sandbox, tag: str, text: str) -> tuple:
        """``(n_steps, stride, dt, friction, state, seed)`` of a control
        file's ``text`` (and of the restraint file it names)."""
        raise NotImplementedError

    def _parse_info(self, text: str, tag: str) -> Dict[str, float]:
        raise NotImplementedError

    def _parse_coords(self, text: str, name: str) -> np.ndarray:
        raise NotImplementedError

    def _prime(self, sandbox, name, text, parsed, also=None) -> None:
        """Record that a parse of ``text``, written as ``name``, recovers
        ``parsed``; ``also`` is the ``(name, text)`` it also reads."""
        self._parsed[(id(sandbox), name)] = (text, parsed, also)

    def _take(self, sandbox, name, text):
        """Pop ``name``'s entry: what its parse recovers if ``text`` (and
        the file that parse also reads) is what was written, else None."""
        hit = self._parsed.pop((id(sandbox), name), None)
        if hit is None or hit[0] != text:
            return None
        also = hit[2]
        if also is not None and sandbox.read_text(also[0]) != also[1]:
            return None
        return hit[1]

    def _write_coords(self, sandbox: Sandbox, name: str, coords) -> str:
        """Write (phi, psi) as a coordinate file; returns its text."""
        a, b = f"{coords[0]: 12.7f}", f"{coords[1]: 12.7f}"
        text = f"{self._coords_head}{a}{b}\n"
        sandbox.write_text(name, text)
        if b[0] == " ":  # else the parser's split would join the fields
            self._prime(sandbox, name, text, (float(a), float(b)))
        return text

    def _read_coords(self, sandbox: Sandbox, name: str) -> np.ndarray:
        """(phi, psi) of a coordinate file, as a fresh array."""
        text = sandbox.read_text(name)
        hit = self._take(sandbox, name, text)
        return self._parse_coords(text, name) if hit is None else np.array(hit)

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


def recovered_state(
    temperature: str,
    restraints: Sequence[UmbrellaRestraint],
    center: str,
    k: str,
    salt: str = "0",
) -> Optional[ThermodynamicState]:
    """The state a parse recovers from a state's formatted tokens: the
    ``temperature`` and ``salt`` texts as written, each restraint's
    centre and force constant in the formats ``center`` and ``k`` (e.g.
    ``".1f"``).  None when a token would not come back verbatim (a
    non-finite value) or names no valid state (a temperature that rounds
    to zero)."""
    t, c = float(temperature), float(salt)
    recovered = tuple(
        UmbrellaRestraint(
            r.angle, float(format(r.center_deg, center)), float(format(r.k, k))
        )
        for r in restraints
    )
    total = t + c
    for r in recovered:
        total += r.center_deg + r.k
    # a sum is finite only if every term is
    if t <= 0 or not math.isfinite(total):
        return None
    return ThermodynamicState(t, c, recovered)


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
