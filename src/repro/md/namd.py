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
from repro.md.toymd import MDParams, ThermodynamicState

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

    def write_inputs(self, sandbox, tags, coords, states, params, seeds):
        """Write ``{tag}.conf``, ``{tag}.coor`` and, if restrained,
        ``{tag}.colvars`` per task, rendering each distinct state's text
        once."""
        rows = self._coord_rows(coords)
        ip = params.integrator_params
        stride = max(1, params.sample_stride)
        structure = f"structure          {self.system.name}.psf\n"
        mid = (
            f"timestep           {ip.dt:.6f}\n"
            f"outputEnergies     {stride}\n"
            f"dcdfreq            {stride}\n"
        )
        run = f"run                {params.n_steps}\n"
        rendered: Dict[int, tuple] = {}
        files = []
        for tag, (phi, psi), state, seed in zip(tags, rows, states, seeds):
            frag = rendered.get(id(state))
            if frag is None:
                if state.salt_molar != 0.0:
                    raise EngineError(
                        "the NAMD adapter does not support salt concentration "
                        "(S-REMD runs use the Amber engine, as in the paper)"
                    )
                temps = (
                    f"set temperature    {state.temperature:.6f}\n"
                    "langevin           on\n"
                    f"langevinTemp       {state.temperature:.6f}\n"
                    f"langevinDamping    {ip.friction:.6f}\n"
                )
                colvars = (
                    self._format_colvars(state.restraints)
                    if state.restraints
                    else None
                )
                frag = rendered[id(state)] = (
                    temps,
                    colvars,
                    len(colvars.encode()) if colvars is not None else 0,
                )
            temps, colvars, colvars_bytes = frag
            conf = (
                f"# {tag}: RepEx MD phase\n{structure}"
                f"coordinates        {tag}.coor\n{temps}"
                f"seed               {seed}\n{mid}"
                f"outputname         {tag}\n"
            )
            if colvars is not None:
                conf += (
                    "colvars            on\n"
                    f"colvarsConfig      {tag}.colvars\n"
                )
                sandbox.write_text(f"{tag}.colvars", colvars)
            conf += run
            crd = self._coords_text(phi, psi)
            sandbox.write_text(f"{tag}.conf", conf)
            sandbox.write_text(f"{tag}.coor", crd)
            task_files = [
                (f"{tag}.conf", len(conf.encode())),
                (f"{tag}.coor", len(crd.encode())),
            ]
            if colvars is not None:
                task_files.append((f"{tag}.colvars", colvars_bytes))
            files.append(task_files)
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

    @staticmethod
    def _coords_text(phi: float, psi: float) -> str:
        return (
            "# NAMD toy coordinates (phi, psi radians)\n"
            f"{phi: 12.7f}{psi: 12.7f}\n"
        )

    def _read_coords(self, sandbox: Sandbox, name: str) -> np.ndarray:
        lines = sandbox.read_text(name).splitlines()
        for line in lines:
            if line.startswith("#") or not line.strip():
                continue
            vals = line.split()
            return np.array([float(vals[0]), float(vals[1])])
        raise EngineError(f"malformed coordinate file {name!r}")

    def _parse_conf(self, sandbox: Sandbox, tag: str):
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
        return params, state, seed

    def read_tasks(self, sandbox, tags):
        """Parse each ``{tag}.conf`` (with its colvars file) and
        ``{tag}.coor``."""
        return [
            (*self._parse_conf(sandbox, tag),
             self._read_coords(sandbox, f"{tag}.coor"))
            for tag in tags
        ]

    # ----------------------------------------------------------------- output

    def write_outputs(self, sandbox, tags, results) -> None:
        """Simulated ``namd2`` output per task: ``.log``, ``.restart.coor``
        and ``.dcd.txt``."""
        banner = (
            f"Info: NAMD 2.10 (simulated) for {self.system.name}\n"
            f"{_ETITLE}\n"
        )
        for tag, result in zip(tags, results):
            sandbox.write_text(
                f"{tag}.log",
                f"{banner}ENERGY: {result.n_steps:8d} "
                f"{result.potential_energy:19.4f} "
                f"{result.restraint_energy:19.4f} {result.bath_energy:19.4f} "
                f"{result.temperature:18.2f}\nWallClock: (simulated)\n",
            )
            phi, psi = result.final_coords.tolist()
            sandbox.write_text(
                self.restart_file(tag), self._coords_text(phi, psi)
            )
            lines = ["# NAMD toy trajectory (phi psi radians per frame)"]
            lines += [
                f"{a: 12.7f}{b: 12.7f}" for a, b in result.trajectory.tolist()
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

    @staticmethod
    def _parse_log(text: str, tag: str) -> Dict[str, float]:
        """Energies of the last ``ENERGY:`` line of ``{tag}.log``."""
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

    def read_outputs(self, sandbox, tags):
        """Parse each ``{tag}.log`` and ``{tag}.restart.coor``."""
        return [
            (
                self._parse_log(sandbox.read_text(f"{tag}.log"), tag),
                self._read_coords(sandbox, self.restart_file(tag)),
            )
            for tag in tags
        ]
