"""NAMD-style engine adapter.

Demonstrates the paper's claim that RepEx supports "both Amber and NAMD
with minimal conceptual or implementation changes": this adapter differs
from :class:`repro.md.amber.AmberAdapter` only in file dialects —

* ``.conf``  — Tcl-flavoured NAMD configuration (``set temperature``,
  ``langevinTemp``, ``run N``, colvars block for umbrella restraints)
* ``.coor``  — coordinate file
* ``.log``   — NAMD log with ``ETITLE:`` / ``ENERGY:`` lines, which doubles
  as the info file the exchange phase parses.

NAMD has no salt-concentration input in this subset (``supports_salt`` is
False, so a config pairing NAMD with a salt dimension fails validation, and
writing a salted state raises), matching the paper (S-REMD experiments all
use Amber).
"""

from __future__ import annotations

import re
from typing import Dict, List

import numpy as np

from repro.md.engine import EngineAdapter, EngineError, register_adapter
from repro.md.forcefield import UmbrellaRestraint
from repro.md.integrators import IntegratorParams
from repro.md.sandbox import Sandbox
from repro.md.toymd import MDParams, MDResult, ThermodynamicState

_ETITLE = (
    "ETITLE:      TS           POTENTIAL           RESTRAINT"
    "                BATH               TEMP"
)

# Hot-path patterns, compiled once; ``search`` keeps the first match.
_CONF_KEYS = {
    key: re.compile(rf"^{key}\s+(\S+)", re.MULTILINE)
    for key in ("run", "langevinTemp", "langevinDamping", "timestep", "seed",
                "outputEnergies")
}
_COLVARS_CONFIG_RE = re.compile(r"colvarsConfig\s+(\S+)")
_COLVARS_RE = re.compile(
    r"group:\s*(phi|psi).*?centers\s+(-?[\d.]+).*?forceConstant\s+([\d.]+)",
    re.DOTALL,
)


@register_adapter
class NAMDAdapter(EngineAdapter):
    """Adapter for the simulated ``namd2`` executable."""

    name = "namd"
    executables = ("namd2",)
    supports_salt = False

    def info_file(self, tag: str) -> str:
        """NAMD writes energies into its log."""
        return f"{tag}.log"

    def restart_file(self, tag: str) -> str:
        """NAMD restart coordinates."""
        return f"{tag}.restart.coor"

    # ------------------------------------------------------------------ input

    def write_input(
        self,
        sandbox: Sandbox,
        tag: str,
        coords: np.ndarray,
        state: ThermodynamicState,
        params: MDParams,
        seed: int,
    ) -> List[str]:
        """Write ``{tag}.conf`` and ``{tag}.coor``."""
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (2,):
            raise EngineError(f"coords must have shape (2,), got {coords.shape}")
        if state.salt_molar != 0.0:
            raise EngineError(
                "the NAMD adapter does not support salt concentration "
                "(S-REMD runs use the Amber engine, as in the paper)"
            )

        conf = [
            f"# {tag}: RepEx MD phase",
            f"structure          {self.system.name}.psf",
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
            sandbox.write_text(
                f"{tag}.colvars", self._format_colvars(state.restraints)
            )
        conf.append(f"run                {params.n_steps}")
        sandbox.write_text(f"{tag}.conf", "\n".join(conf) + "\n")
        self._write_coords(sandbox, f"{tag}.coor", coords)
        files = [f"{tag}.conf", f"{tag}.coor"]
        if state.restraints:
            files.append(f"{tag}.colvars")
        return files

    @staticmethod
    def _format_colvars(restraints) -> str:
        blocks = []
        for i, r in enumerate(restraints):
            blocks.append(
                f"colvar {{\n  name {r.angle}{i}\n  dihedral {{ "
                f"group: {r.angle} }}\n}}\n"
                f"harmonic {{\n  colvars {r.angle}{i}\n  centers "
                f"{r.center_deg:.2f}\n  forceConstant {r.k:.6f}\n}}"
            )
        return "\n".join(blocks) + "\n"

    @staticmethod
    def _parse_colvars(text: str) -> List[UmbrellaRestraint]:
        return [
            UmbrellaRestraint(
                angle=m.group(1),
                center_deg=float(m.group(2)),
                k=float(m.group(3)),
            )
            for m in _COLVARS_RE.finditer(text)
        ]

    def _write_coords(self, sandbox: Sandbox, name: str, coords: np.ndarray) -> None:
        sandbox.write_text(
            name,
            "# NAMD toy coordinates (phi, psi radians)\n"
            f"{coords[0]: 12.7f}{coords[1]: 12.7f}\n",
        )

    def _read_coords(self, sandbox: Sandbox, name: str) -> np.ndarray:
        lines = sandbox.read_text(name).splitlines()
        for line in lines:
            if line.startswith("#") or not line.strip():
                continue
            vals = line.split()
            return np.array([float(vals[0]), float(vals[1])])
        raise EngineError(f"malformed coordinate file {name!r}")

    def read_task(self, sandbox: Sandbox, tag: str):
        """Parse ``{tag}.conf`` (with its colvars file) and ``{tag}.coor``."""
        text = sandbox.read_text(f"{tag}.conf")

        def grab(key: str, default=None):
            m = _CONF_KEYS[key].search(text)
            if m is None:
                if default is None:
                    raise EngineError(f"{tag}.conf: missing {key}")
                return default
            return m.group(1)

        n_steps = int(grab("run"))
        temperature = float(grab("langevinTemp"))
        friction = float(grab("langevinDamping", "1.0"))
        dt = float(grab("timestep"))
        seed = int(grab("seed"))
        stride = int(grab("outputEnergies", "50"))

        restraints: List[UmbrellaRestraint] = []
        m = _COLVARS_CONFIG_RE.search(text)
        if m:
            restraints = self._parse_colvars(sandbox.read_text(m.group(1)))

        params = MDParams(
            n_steps=n_steps,
            sample_stride=stride,
            integrator_params=IntegratorParams(dt=dt, friction=friction),
        )
        state = ThermodynamicState(
            temperature=temperature, restraints=tuple(restraints)
        )
        return params, state, seed, self._read_coords(sandbox, f"{tag}.coor")

    # ----------------------------------------------------------------- output

    def write_outputs(self, sandbox: Sandbox, tag: str, result: MDResult) -> None:
        """Simulated ``namd2`` output: ``.log``, ``.restart.coor`` and
        ``.dcd.txt``."""
        log = [
            f"Info: NAMD 2.10 (simulated) for {self.system.name}",
            _ETITLE,
            (
                f"ENERGY: {result.n_steps:8d} {result.potential_energy:19.4f} "
                f"{result.restraint_energy:19.4f} {result.bath_energy:19.4f} "
                f"{result.temperature:18.2f}"
            ),
            "WallClock: (simulated)",
        ]
        sandbox.write_text(f"{tag}.log", "\n".join(log) + "\n")
        self._write_coords(sandbox, self.restart_file(tag), result.final_coords)
        lines = ["# NAMD toy trajectory (phi psi radians per frame)"]
        lines += [
            f"{row[0]: 12.7f}{row[1]: 12.7f}" for row in result.trajectory
        ]
        sandbox.write_text(f"{tag}.dcd.txt", "\n".join(lines) + "\n")

    def read_trajectory(self, sandbox: Sandbox, tag: str) -> np.ndarray:
        """Sampled (phi, psi) trajectory of the MD phase, shape (n, 2)."""
        text = sandbox.read_text(f"{tag}.dcd.txt")
        rows = [
            [float(x) for x in line.split()]
            for line in text.splitlines()
            if line.strip() and not line.startswith("#")
        ]
        return np.asarray(rows) if rows else np.empty((0, 2))

    def read_info(self, sandbox: Sandbox, tag: str) -> Dict[str, float]:
        """Parse the last ``ENERGY:`` line of ``{tag}.log``."""
        text = sandbox.read_text(f"{tag}.log")
        energy_lines = [
            line for line in text.splitlines() if line.startswith("ENERGY:")
        ]
        if not energy_lines:
            raise EngineError(f"{tag}.log: no ENERGY: lines")
        cols = energy_lines[-1].split()
        if len(cols) < 6:
            raise EngineError(f"{tag}.log: malformed ENERGY: line")
        potential = float(cols[2])
        restraint = float(cols[3])
        bath = float(cols[4])
        return {
            "potential_energy": potential,
            "restraint_energy": restraint,
            "torsional_energy": potential - restraint - bath,
            "bath_energy": bath,
            "temperature": float(cols[5]),
        }

    def read_restart(self, sandbox: Sandbox, tag: str) -> np.ndarray:
        """Final (phi, psi) of the MD phase."""
        return self._read_coords(sandbox, self.restart_file(tag))
