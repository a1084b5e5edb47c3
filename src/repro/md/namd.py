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

import math
import re
from typing import Dict, List

import numpy as np

from repro.md.engine import (
    EngineAdapter,
    EngineError,
    recovered_state,
    register_adapter,
)
from repro.md.forcefield import UmbrellaRestraint
from repro.md.sandbox import Sandbox
from repro.md.toymd import ThermodynamicState

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


def _energies(potential, restraint, bath, temperature) -> Dict[str, float]:
    """The energies of one ``ENERGY:`` line's columns."""
    return {
        "potential_energy": potential,
        "restraint_energy": restraint,
        "torsional_energy": potential - restraint - bath,
        "bath_energy": bath,
        "temperature": temperature,
    }


@register_adapter
class NAMDAdapter(EngineAdapter):
    """Adapter for the simulated ``namd2`` executable.

    Writes prime the base's parse store for the conf (with its colvars
    file), both coordinate files and the log, as Amber's do.
    """

    name = "namd"
    executables = ("namd2",)
    supports_salt = False
    task_suffixes = (
        ".conf", ".coor", ".colvars", ".log", ".restart.coor", ".dcd.txt"
    )
    _control_suffix = ".conf"
    _coords_suffix = ".coor"
    _coords_head = "# NAMD toy coordinates (phi, psi radians)\n"

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
        # what _parse_control recovers of ``params``: the six-decimal
        # round trips, unless a token is not finite
        dt, friction = float(f"{ip.dt:.6f}"), float(f"{ip.friction:.6f}")
        phase_parse = (
            (params.n_steps, stride, dt, friction)
            if math.isfinite(dt) and math.isfinite(friction)
            else None
        )
        rendered: Dict[int, tuple] = {}
        files = []
        for tag, row, state, seed in zip(tags, rows, states, seeds):
            frag = rendered.get(id(state))
            if frag is None:
                if state.salt_molar != 0.0:
                    raise EngineError(
                        "the NAMD adapter does not support salt concentration "
                        "(S-REMD runs use the Amber engine, as in the paper)"
                    )
                temp = f"{state.temperature:.6f}"
                temps = (
                    f"set temperature    {temp}\n"
                    "langevin           on\n"
                    f"langevinTemp       {temp}\n"
                    f"langevinDamping    {ip.friction:.6f}\n"
                )
                colvars = (
                    self._format_colvars(state.restraints)
                    if state.restraints
                    else None
                )
                parsed = None
                if phase_parse is not None:
                    recovered = recovered_state(
                        temp, state.restraints, center=".2f", k=".6f"
                    )
                    if recovered is not None:
                        parsed = phase_parse + (recovered,)
                frag = rendered[id(state)] = (
                    temps,
                    colvars,
                    len(colvars.encode()) if colvars is not None else 0,
                    parsed,
                )
            temps, colvars, colvars_bytes, parsed = frag
            conf = (
                f"# {tag}: RepEx MD phase\n{structure}"
                f"coordinates        {tag}.coor\n{temps}"
                f"seed               {seed}\n{mid}"
                f"outputname         {tag}\n"
            )
            also = None
            if colvars is not None:
                conf += (
                    "colvars            on\n"
                    f"colvarsConfig      {tag}.colvars\n"
                )
                also = (f"{tag}.colvars", colvars)
                sandbox.write_text(*also)
            conf += run
            sandbox.write_text(f"{tag}.conf", conf)
            if parsed is not None:
                self._prime(
                    sandbox, f"{tag}.conf", conf, parsed + (int(seed),), also
                )
            crd = self._write_coords(sandbox, f"{tag}.coor", row)
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

    def _parse_coords(self, text: str, name: str) -> np.ndarray:
        for line in text.splitlines():
            if line.startswith("#") or not line.strip():
                continue
            vals = line.split()
            return np.array([float(vals[0]), float(vals[1])])
        raise EngineError(f"malformed coordinate file {name!r}")

    def _parse_control(self, sandbox: Sandbox, tag: str, text: str):
        """Regex parse of ``{tag}.conf`` (``text``) and its colvars file."""

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

        state = ThermodynamicState(
            temperature=temperature, restraints=tuple(restraints)
        )
        return n_steps, stride, dt, friction, state, seed

    # ----------------------------------------------------------------- output

    def write_outputs(self, sandbox, tags, results) -> None:
        """Simulated ``namd2`` output per task: ``.log``, ``.restart.coor``
        and ``.dcd.txt``."""
        banner = (
            f"Info: NAMD 2.10 (simulated) for {self.system.name}\n"
            f"{_ETITLE}\n"
        )
        for tag, result in zip(tags, results):
            pe, re_, be, temp = (
                result.potential_energy,
                result.restraint_energy,
                result.bath_energy,
                result.temperature,
            )
            log = (
                f"{banner}ENERGY: {result.n_steps:8d} {pe:19.4f} "
                f"{re_:19.4f} {be:19.4f} {temp:18.2f}\n"
                "WallClock: (simulated)\n"
            )
            sandbox.write_text(f"{tag}.log", log)
            # a sum is finite only if every term is
            if math.isfinite(pe + re_ + be + temp):
                # what _parse_info recovers from the formatted columns
                energies = _energies(
                    float(f"{pe:.4f}"),
                    float(f"{re_:.4f}"),
                    float(f"{be:.4f}"),
                    float(f"{temp:.2f}"),
                )
                self._prime(sandbox, f"{tag}.log", log, energies)
            self._write_coords(
                sandbox, self.restart_file(tag), result.final_coords.tolist()
            )
            lines = ["# NAMD toy trajectory (phi psi radians per frame)"]
            lines += [
                f"{a: 12.7f}{b: 12.7f}" for a, b in result.trajectory.tolist()
            ]
            sandbox.write_text(f"{tag}.dcd.txt", "\n".join(lines) + "\n")

    @staticmethod
    def _parse_info(text: str, tag: str) -> Dict[str, float]:
        """Energies of the last ``ENERGY:`` line of ``{tag}.log``."""
        energy_lines = [
            line for line in text.splitlines() if line.startswith("ENERGY:")
        ]
        if not energy_lines:
            raise EngineError(f"{tag}.log: no ENERGY: lines")
        cols = energy_lines[-1].split()
        if len(cols) < 6:
            raise EngineError(f"{tag}.log: malformed ENERGY: line")
        return _energies(*(float(x) for x in cols[2:6]))
