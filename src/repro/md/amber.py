"""Amber-style engine adapter.

Speaks (a faithful subset of) Amber's file dialects:

* ``.mdin``   — ``&cntrl`` namelist input (nstlim, temp0, saltcon, ig, ...)
* ``.RST``    — DISANG torsion restraints (``&rst iat=..., r2=..., rk2=...``)
* ``.rst``    — restart file carrying the final (phi, psi)
* ``.mdinfo`` — the energy summary RepEx stages to the staging area after
  every MD phase ("Amber's .mdinfo files to 'staging area'", paper Sec. 4)
* group files — one line of sander arguments per single-point state, used
  by the S-REMD exchange ("Since we are using Amber's group files, this
  task requires at least as many CPU cores as there are potential exchange
  partners", paper Sec. 4.2)

The physics behind the executables is the toy engine; the formats and the
parse/serialize round-trips are real and tested.
"""

from __future__ import annotations

import math
import re
from typing import Dict, List, Sequence

import numpy as np

from repro.md.engine import EngineAdapter, EngineError, register_adapter
from repro.md.forcefield import UmbrellaRestraint
from repro.md.integrators import IntegratorParams
from repro.md.sandbox import Sandbox
from repro.md.toymd import MDParams, MDResult, ThermodynamicState

#: Amber atom indices of the backbone torsions in alanine dipeptide.
_TORSION_ATOMS = {"phi": (5, 7, 9, 15), "psi": (7, 9, 15, 17)}
_ATOMS_TO_TORSION = {v: k for k, v in _TORSION_ATOMS.items()}

# Hot-path patterns, compiled once.  ``sander`` namelist entries are always
# ``word = numeric`` so one scan collects every key the parser can ask for;
# first occurrence wins, matching the old per-key ``re.search``.
_MDIN_KV = re.compile(r"\b(\w+)\s*=\s*(-?[\d.eE+]+)")
_DISANG_RE = re.compile(r"DISANG=(\S+)")
_MDINFO_FIELDS = tuple(
    (out_key, key, re.compile(rf"{re.escape(key)}\s*=\s*(-?[\d.]+)"))
    for out_key, key in (
        ("potential_energy", "EPtot"),
        ("restraint_energy", "RESTRAINT"),
        ("torsional_energy", "TORSIONAL"),
        ("bath_energy", "EBATH"),
        ("temperature", "TEMP(K)"),
    )
)
_GROUPFILE_RE = re.compile(r"-i (\S+)\s.*-c (\S+)")
_SALTCON_RE = re.compile(r"saltcon\s*=\s*([\d.eE+-]+)")


def _fmt_float(x: float) -> str:
    return f"{x:.6f}"


@register_adapter
class AmberAdapter(EngineAdapter):
    """Adapter for the simulated ``sander`` / ``pmemd.MPI`` executables."""

    name = "amber"
    executables = ("sander", "pmemd.MPI", "pmemd.cuda")

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
        """Write ``{tag}.mdin``, ``{tag}.inpcrd`` and, if restrained,
        ``{tag}.RST``."""
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
        mdin_text = "\n".join(mdin) + "\n"
        sandbox.write_text(f"{tag}.mdin", mdin_text)
        files.append(f"{tag}.mdin")

        self._write_coords(sandbox, f"{tag}.inpcrd", coords)
        files.append(f"{tag}.inpcrd")

        rst_text = None
        if state.restraints:
            rst_text = self._format_disang(state.restraints)
            sandbox.write_text(f"{tag}.RST", rst_text)
            files.append(f"{tag}.RST")
        self._prime_mdin_cache(
            sandbox, tag, mdin_text, rst_text, state, params, seed
        )
        return files

    def _prime_mdin_cache(
        self, sandbox, tag, mdin_text, rst_text, state, params, seed
    ) -> None:
        """Record what :meth:`_parse_mdin` will recover from ``mdin_text``.

        The values stored are the exact round-trips of the formatted tokens
        (``float(_fmt_float(x))`` etc.), so a later parse of the unchanged
        file returns identical values without running the regex scan.  The
        cache entry is validated against the file text on every hit — a
        rewritten or hand-edited file always falls back to the real parser.
        Entries are skipped for inputs the namelist regex would not capture
        verbatim (scientific-notation ``dt``, non-finite values).
        """
        dt = params.integrator_params.dt
        dt_str = str(dt)
        body = dt_str[1:] if dt_str.startswith("-") else dt_str
        if not body or not all(c.isdigit() or c == "." for c in body):
            return
        values = (
            state.temperature,
            state.salt_molar,
            params.integrator_params.friction,
        )
        if not all(math.isfinite(v) for v in values):
            return
        restraints = tuple(
            UmbrellaRestraint(
                angle=r.angle,
                center_deg=float(f"{r.center_deg:.1f}"),
                k=float(f"{r.k:.4f}"),
            )
            for r in state.restraints
        )
        parsed_state = ThermodynamicState(
            temperature=float(_fmt_float(state.temperature)),
            salt_molar=float(_fmt_float(state.salt_molar)),
            restraints=restraints,
        )
        cache = self.__dict__.setdefault("_mdin_cache", {})
        cache[(id(sandbox), tag)] = (
            mdin_text,
            rst_text,
            params.n_steps,
            max(1, params.sample_stride),
            float(dt_str),
            float(_fmt_float(params.integrator_params.friction)),
            parsed_state,
            int(seed),
        )

    @staticmethod
    def _format_disang(restraints: Sequence[UmbrellaRestraint]) -> str:
        lines = []
        for r in restraints:
            iat = ",".join(str(i) for i in _TORSION_ATOMS[r.angle])
            c = r.center_deg
            lines.append(
                f" &rst iat={iat}, r1={c - 180.0:.1f}, r2={c:.1f}, "
                f"r3={c:.1f}, r4={c + 180.0:.1f}, rk2={r.k:.4f}, "
                f"rk3={r.k:.4f}, /"
            )
        return "\n".join(lines) + "\n"

    @staticmethod
    def _parse_disang(text: str) -> List[UmbrellaRestraint]:
        restraints = []
        for m in re.finditer(
            r"&rst\s+iat=([\d,\s]+?),\s*r1=.*?r2=\s*(-?[\d.]+)\s*,"
            r".*?rk2=\s*([\d.]+)",
            text,
            re.DOTALL,
        ):
            iat = tuple(int(x) for x in m.group(1).split(",") if x.strip())
            angle = _ATOMS_TO_TORSION.get(iat)
            if angle is None:
                raise EngineError(f"unknown torsion atom selection {iat}")
            restraints.append(
                UmbrellaRestraint(
                    angle=angle,
                    center_deg=float(m.group(2)),
                    k=float(m.group(3)),
                )
            )
        return restraints

    def _write_coords(self, sandbox: Sandbox, name: str, coords: np.ndarray) -> None:
        text = (
            "ALA2 toy coordinates (phi, psi in radians)\n"
            f"{self.system.n_atoms:6d}\n"
            f"{coords[0]: 12.7f}{coords[1]: 12.7f}\n"
        )
        sandbox.write_text(name, text)

    def _read_coords(self, sandbox: Sandbox, name: str) -> np.ndarray:
        lines = sandbox.read_text(name).splitlines()
        if len(lines) < 3:
            raise EngineError(f"malformed coordinate file {name!r}")
        vals = lines[2].split()
        return np.array([float(vals[0]), float(vals[1])])

    def _parse_mdin(self, sandbox: Sandbox, tag: str):
        text = sandbox.read_text(f"{tag}.mdin")
        cache = self.__dict__.get("_mdin_cache")
        if cache is not None:
            hit = cache.get((id(sandbox), tag))
            if (
                hit is not None
                and text == hit[0]
                and (
                    hit[1] is None
                    or sandbox.read_text(f"{tag}.RST") == hit[1]
                )
            ):
                # Same file contents the cache was primed with: return the
                # recorded round-trip values.  MDParams is mutable, so a
                # fresh instance is built per call; the frozen state and
                # restraint objects are shared.
                params = MDParams(
                    n_steps=hit[2],
                    sample_stride=hit[3],
                    integrator_params=IntegratorParams(
                        dt=hit[4], friction=hit[5]
                    ),
                )
                return params, hit[6], hit[7]
        kv: Dict[str, str] = {}
        for key, value in _MDIN_KV.findall(text):
            kv.setdefault(key, value)

        def grab(key: str, default=None):
            value = kv.get(key, default)
            if value is None:
                raise EngineError(f"{tag}.mdin: missing {key}")
            return value

        n_steps = int(grab("nstlim"))
        dt = float(grab("dt"))
        temp0 = float(grab("temp0"))
        gamma = float(grab("gamma_ln", "1.0"))
        seed = int(grab("ig"))
        saltcon = float(grab("saltcon", "0.0"))
        stride = int(grab("ntwx", "50"))

        restraints: List[UmbrellaRestraint] = []
        m = _DISANG_RE.search(text)
        if m:
            restraints = self._parse_disang(sandbox.read_text(m.group(1)))

        params = MDParams(
            n_steps=n_steps,
            sample_stride=stride,
            integrator_params=IntegratorParams(dt=dt, friction=gamma),
        )
        state = ThermodynamicState(
            temperature=temp0,
            salt_molar=saltcon,
            restraints=tuple(restraints),
        )
        return params, state, seed

    def read_task(self, sandbox: Sandbox, tag: str):
        """Parse ``{tag}.mdin`` (with its DISANG file) and ``{tag}.inpcrd``."""
        params, state, seed = self._parse_mdin(sandbox, tag)
        return params, state, seed, self._read_coords(sandbox, f"{tag}.inpcrd")

    # ----------------------------------------------------------------- output

    def write_outputs(self, sandbox: Sandbox, tag: str, result: MDResult) -> None:
        """Simulated ``sander`` output: ``.mdinfo``, ``.rst`` and ``.mdcrd``."""
        eamber = result.potential_energy - result.restraint_energy
        text = (
            f" NSTEP = {result.n_steps:8d}   TIME(PS) = "
            f"{result.n_steps * 0.002:12.3f}  TEMP(K) = "
            f"{result.temperature:8.2f}  PRESS =     0.0\n"
            f" Etot   = {result.potential_energy:14.4f}  EKtot   = "
            f"{0.0:14.4f}  EPtot      = {result.potential_energy:14.4f}\n"
            f" RESTRAINT  = {result.restraint_energy:14.4f}\n"
            f" EAMBER (non-restraint)  = {eamber:14.4f}\n"
            f" TORSIONAL  = {result.torsional_energy:14.4f}  EBATH   = "
            f"{result.bath_energy:14.4f}\n"
        )
        sandbox.write_text(self.info_file(tag), text)
        fields = (
            result.potential_energy,
            result.restraint_energy,
            result.torsional_energy,
            result.bath_energy,
            result.temperature,
        )
        if all(math.isfinite(v) for v in fields):
            # What read_info will recover: the 4 (resp. 2 for TEMP) decimal
            # round-trips of the formatted fields, in _MDINFO_FIELDS order.
            cache = self.__dict__.setdefault("_info_cache", {})
            cache[(id(sandbox), tag)] = (
                text,
                {
                    "potential_energy": float(f"{fields[0]:.4f}"),
                    "restraint_energy": float(f"{fields[1]:.4f}"),
                    "torsional_energy": float(f"{fields[2]:.4f}"),
                    "bath_energy": float(f"{fields[3]:.4f}"),
                    "temperature": float(f"{fields[4]:.2f}"),
                },
            )
        self._write_coords(sandbox, self.restart_file(tag), result.final_coords)
        lines = [f"{row[0]: 12.7f}{row[1]: 12.7f}" for row in result.trajectory]
        sandbox.write_text(f"{tag}.mdcrd", "\n".join(lines) + "\n")

    def read_info(self, sandbox: Sandbox, tag: str) -> Dict[str, float]:
        """Parse ``{tag}.mdinfo`` (the exchange phase's input)."""
        text = sandbox.read_text(self.info_file(tag))
        cache = self.__dict__.get("_info_cache")
        if cache is not None:
            hit = cache.get((id(sandbox), tag))
            if hit is not None and text == hit[0]:
                return dict(hit[1])
        out: Dict[str, float] = {}
        for out_key, key, pattern in _MDINFO_FIELDS:
            m = pattern.search(text)
            if m is None:
                raise EngineError(f"{tag}.mdinfo: missing {key}")
            out[out_key] = float(m.group(1))
        return out

    def read_restart(self, sandbox: Sandbox, tag: str) -> np.ndarray:
        """Final (phi, psi) of the MD phase."""
        return self._read_coords(sandbox, self.restart_file(tag))

    def read_trajectory(self, sandbox: Sandbox, tag: str) -> np.ndarray:
        """Sampled (phi, psi) trajectory of the MD phase, shape (n, 2)."""
        text = sandbox.read_text(f"{tag}.mdcrd").strip()
        if not text:
            return np.empty((0, 2))
        rows = [
            [float(x) for x in line.split()] for line in text.splitlines()
        ]
        return np.asarray(rows)

    # ------------------------------------------------------- single-point (S-REMD)

    def write_groupfile(
        self,
        sandbox: Sandbox,
        tag: str,
        coords: np.ndarray,
        states: Sequence[ThermodynamicState],
    ) -> List[str]:
        """Write a group file evaluating ``coords`` in every state.

        One sander instance per state, exactly as the paper runs the
        salt-concentration single-point energies.
        """
        files = []
        group_lines = []
        for j, state in enumerate(states):
            sp_tag = f"{tag}.sp{j}"
            mdin = [
                f"{sp_tag}: single point energy",
                " &cntrl",
                "  imin = 1, maxcyc = 0,",
                f"  igb = 1, saltcon = {_fmt_float(state.salt_molar)},",
                f"  nmropt = {1 if state.restraints else 0},",
                " /",
            ]
            if state.restraints:
                mdin.append(" &wt type='END' /")
                mdin.append(f"DISANG={sp_tag}.RST")
                sandbox.write_text(
                    f"{sp_tag}.RST", self._format_disang(state.restraints)
                )
                files.append(f"{sp_tag}.RST")
            sandbox.write_text(f"{sp_tag}.mdin", "\n".join(mdin) + "\n")
            files.append(f"{sp_tag}.mdin")
            group_lines.append(
                f"-O -i {sp_tag}.mdin -o {sp_tag}.mdout -c {tag}.inpcrd "
                f"-inf {sp_tag}.mdinfo"
            )
        self._write_coords(sandbox, f"{tag}.inpcrd", np.asarray(coords))
        files.append(f"{tag}.inpcrd")
        sandbox.write_text(f"{tag}.groupfile", "\n".join(group_lines) + "\n")
        files.append(f"{tag}.groupfile")
        return files

    def run_single_point_group(self, sandbox: Sandbox, tag: str) -> np.ndarray:
        """Execute every entry of ``{tag}.groupfile``; returns the energies.

        Also writes ``{tag}.matrix`` (one energy per line), the file staged
        back for the exchange step.
        """
        group = sandbox.read_text(f"{tag}.groupfile").strip().splitlines()
        energies = []
        for line in group:
            m = _GROUPFILE_RE.search(line)
            if m is None:
                raise EngineError(f"malformed groupfile line: {line!r}")
            mdin_name, coord_name = m.group(1), m.group(2)
            sp_tag = mdin_name[: -len(".mdin")]
            text = sandbox.read_text(mdin_name)
            salt = float(_SALTCON_RE.search(text).group(1))
            restraints: List[UmbrellaRestraint] = []
            dm = _DISANG_RE.search(text)
            if dm:
                restraints = self._parse_disang(sandbox.read_text(dm.group(1)))
            coords = self._read_coords(sandbox, coord_name)
            state = ThermodynamicState(
                temperature=300.0,  # irrelevant for a single point
                salt_molar=salt,
                restraints=tuple(restraints),
            )
            e = self.toymd.single_point_energy(coords, state)
            energies.append(e)
            sandbox.write_text(
                f"{sp_tag}.mdinfo",
                f" NSTEP = 0\n Etot   = {e:14.4f}  EPtot      = {e:14.4f}\n"
                f" RESTRAINT  = {0.0:14.4f}\n",
            )
        arr = np.asarray(energies)
        sandbox.write_text(
            f"{tag}.matrix", "\n".join(f"{e:.8f}" for e in energies) + "\n"
        )
        return arr

    def read_energy_row(self, sandbox: Sandbox, tag: str) -> np.ndarray:
        """Read the staged single-point energy row written by the group run."""
        text = sandbox.read_text(f"{tag}.matrix").strip()
        return np.asarray([float(x) for x in text.splitlines()])
