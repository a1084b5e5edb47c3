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

from repro.md.engine import (
    EngineAdapter,
    EngineError,
    recovered_state,
    register_adapter,
)
from repro.md.forcefield import UmbrellaRestraint
from repro.md.sandbox import Sandbox
from repro.md.toymd import MDParams, ThermodynamicState

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
    """Adapter for the simulated ``sander`` / ``pmemd.MPI`` executables.

    Writes prime the base's parse store for the mdin (with its DISANG
    file), both coordinate files and the mdinfo; tasks of one state share
    one parsed :class:`ThermodynamicState`.
    """

    name = "amber"
    executables = ("sander", "pmemd.MPI", "pmemd.cuda")
    task_suffixes = (".mdin", ".inpcrd", ".RST", ".mdinfo", ".rst", ".mdcrd")

    def __init__(self, system=None, forcefield=None):
        super().__init__(system, forcefield)
        self._coords_head = (
            "ALA2 toy coordinates (phi, psi in radians)\n"
            f"{self.system.n_atoms:6d}\n"
        )

    # ------------------------------------------------------------------ input

    def write_inputs(self, sandbox, tags, coords, states, params, seeds):
        """Write ``{tag}.mdin``, ``{tag}.inpcrd`` and, if restrained,
        ``{tag}.RST`` per task, rendering each distinct state's text once."""
        rows = self._coord_rows(coords)
        ip = params.integrator_params
        stride = max(1, params.sample_stride)
        friction = _fmt_float(ip.friction)
        head = (
            " &cntrl\n"
            "  imin = 0, irest = 1, ntx = 5,\n"
            f"  nstlim = {params.n_steps}, dt = {ip.dt},\n"
        )
        phase_parse = self._mdin_phase_parse(params, friction)
        rendered: Dict[int, tuple] = {}
        files = []
        for tag, row, state, seed in zip(tags, rows, states, seeds):
            frag = rendered.get(id(state))
            if frag is None:
                frag = rendered[id(state)] = self._state_text(
                    state, head, friction, stride, phase_parse
                )
            pre, post, rst, rst_bytes, parsed = frag
            mdin = f"{tag}: RepEx MD phase\n{pre}  ig = {seed},\n{post}"
            also = None
            if rst is not None:
                mdin += f"DISANG={tag}.RST\n"
                also = (f"{tag}.RST", rst)
                sandbox.write_text(*also)
            sandbox.write_text(f"{tag}.mdin", mdin)
            if parsed is not None:
                self._prime(
                    sandbox, f"{tag}.mdin", mdin, parsed + (int(seed),), also
                )
            crd = self._write_coords(sandbox, f"{tag}.inpcrd", row)
            task_files = [
                (f"{tag}.mdin", len(mdin.encode())),
                (f"{tag}.inpcrd", len(crd.encode())),
            ]
            if rst is not None:
                task_files.append((f"{tag}.RST", rst_bytes))
            files.append(task_files)
        return files

    def _state_text(self, state, head, friction, stride, phase_parse):
        """One state's share of a group's inputs: the mdin text before and
        after ``ig``, its DISANG text (None when unrestrained) and byte
        length, and what a parse recovers (None when uncacheable)."""
        temp0 = _fmt_float(state.temperature)
        saltcon = _fmt_float(state.salt_molar)
        pre = f"{head}  ntt = 3, temp0 = {temp0}, gamma_ln = {friction},\n"
        post = (
            f"  ntpr = {stride}, ntwx = {stride},\n"
            f"  igb = 1, saltcon = {saltcon},\n"
            f"  nmropt = {1 if state.restraints else 0},\n /\n"
        )
        rst = None
        if state.restraints:
            post += " &wt type='END' /\n"
            rst = self._format_disang(state.restraints)
        parsed = None
        if phase_parse is not None:
            recovered = recovered_state(
                temp0, state.restraints, center=".1f", k=".4f", salt=saltcon
            )
            if recovered is not None:
                parsed = phase_parse + (recovered,)
        rst_bytes = len(rst.encode()) if rst is not None else 0
        return pre, post, rst, rst_bytes, parsed

    @staticmethod
    def _mdin_phase_parse(params: MDParams, friction: str):
        """What :meth:`_parse_control` recovers of ``params`` from an mdin:
        ``(n_steps, stride, dt, friction)``, or None for inputs the
        namelist regex would not capture verbatim (scientific-notation
        ``dt``, a non-finite friction), which always take the real
        parser."""
        dt_str = str(params.integrator_params.dt)
        body = dt_str[1:] if dt_str.startswith("-") else dt_str
        if not body or not all(c.isdigit() or c == "." for c in body):
            return None
        if not math.isfinite(params.integrator_params.friction):
            return None
        return (
            params.n_steps,
            max(1, params.sample_stride),
            float(dt_str),
            float(friction),
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

    def _parse_coords(self, text: str, name: str) -> np.ndarray:
        lines = text.splitlines()
        if len(lines) < 3:
            raise EngineError(f"malformed coordinate file {name!r}")
        vals = lines[2].split()
        return np.array([float(vals[0]), float(vals[1])])

    def _parse_control(self, sandbox: Sandbox, tag: str, text: str):
        """Regex parse of ``{tag}.mdin`` (``text``) and its DISANG file."""
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

        state = ThermodynamicState(
            temperature=temp0,
            salt_molar=saltcon,
            restraints=tuple(restraints),
        )
        return n_steps, stride, dt, gamma, state, seed

    # ----------------------------------------------------------------- output

    def write_outputs(self, sandbox, tags, results) -> None:
        """Simulated ``sander`` output per task: ``.mdinfo``, ``.rst`` and
        ``.mdcrd``."""
        for tag, result in zip(tags, results):
            pe, re_, te, be, temp = (
                result.potential_energy,
                result.restraint_energy,
                result.torsional_energy,
                result.bath_energy,
                result.temperature,
            )
            text = (
                f" NSTEP = {result.n_steps:8d}   TIME(PS) = "
                f"{result.n_steps * 0.002:12.3f}  TEMP(K) = "
                f"{temp:8.2f}  PRESS =     0.0\n"
                f" Etot   = {pe:14.4f}  EKtot   = "
                f"{0.0:14.4f}  EPtot      = {pe:14.4f}\n"
                f" RESTRAINT  = {re_:14.4f}\n"
                f" EAMBER (non-restraint)  = {pe - re_:14.4f}\n"
                f" TORSIONAL  = {te:14.4f}  EBATH   = {be:14.4f}\n"
            )
            info = self.info_file(tag)
            sandbox.write_text(info, text)
            # a sum is finite only if every term is
            if math.isfinite(pe + re_ + te + be + temp):
                # What _parse_info recovers: the 4 (resp. 2 for TEMP)
                # decimal round trips of the formatted fields.
                self._prime(
                    sandbox,
                    info,
                    text,
                    {
                        "potential_energy": float(f"{pe:.4f}"),
                        "restraint_energy": float(f"{re_:.4f}"),
                        "torsional_energy": float(f"{te:.4f}"),
                        "bath_energy": float(f"{be:.4f}"),
                        "temperature": float(f"{temp:.2f}"),
                    },
                )
            self._write_coords(
                sandbox, self.restart_file(tag), result.final_coords.tolist()
            )
            lines = [
                f"{a: 12.7f}{b: 12.7f}" for a, b in result.trajectory.tolist()
            ]
            sandbox.write_text(f"{tag}.mdcrd", "\n".join(lines) + "\n")

    @staticmethod
    def _parse_info(text: str, tag: str) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for out_key, key, pattern in _MDINFO_FIELDS:
            m = pattern.search(text)
            if m is None:
                raise EngineError(f"{tag}.mdinfo: missing {key}")
            out[out_key] = float(m.group(1))
        return out

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
        salt-concentration single-point energies.  Returns the names of
        the group's whole set: the files written here and the ones its
        run writes (an ``.mdinfo`` per entry, ``{tag}.matrix``).
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
            files += (f"{sp_tag}.mdin", f"{sp_tag}.mdinfo")
            group_lines.append(
                f"-O -i {sp_tag}.mdin -o {sp_tag}.mdout -c {tag}.inpcrd "
                f"-inf {sp_tag}.mdinfo"
            )
        self._write_coords(sandbox, f"{tag}.inpcrd", np.asarray(coords))
        files.append(f"{tag}.inpcrd")
        sandbox.write_text(f"{tag}.groupfile", "\n".join(group_lines) + "\n")
        files += (f"{tag}.groupfile", f"{tag}.matrix")
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
