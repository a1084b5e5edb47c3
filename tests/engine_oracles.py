"""Readers of the engine files the package writes and never reads back.

The adapters write what the real engines do: a sampled trajectory per
MD task (Amber ``.mdcrd``, NAMD ``.dcd.txt``) and, for a single-point
group, the energy row staged back for the exchange (Amber ``.matrix``).
A run reads none of them: a task's trajectory reaches its cycle record
from the in-memory result, and a group's energies from its ``work()``.
These readers are the tests' oracles that the text holds what was
computed.
"""

import numpy as np

from repro.md.sandbox import Sandbox


def _rows(text: str) -> np.ndarray:
    """One float row per non-blank, non-comment line; shape (n, 2) when
    there are none."""
    rows = [
        [float(x) for x in line.split()]
        for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    ]
    return np.asarray(rows) if rows else np.empty((0, 2))


def amber_trajectory(sandbox: Sandbox, tag: str) -> np.ndarray:
    """The sampled (phi, psi) trajectory in ``{tag}.mdcrd``, shape (n, 2)."""
    return _rows(sandbox.read_text(f"{tag}.mdcrd"))


def namd_trajectory(sandbox: Sandbox, tag: str) -> np.ndarray:
    """The sampled (phi, psi) trajectory in ``{tag}.dcd.txt`` (after its
    ``#`` header), shape (n, 2)."""
    return _rows(sandbox.read_text(f"{tag}.dcd.txt"))


def amber_energy_row(sandbox: Sandbox, tag: str) -> np.ndarray:
    """The single-point energies in ``{tag}.matrix``, one per state."""
    text = sandbox.read_text(f"{tag}.matrix")
    return np.asarray([float(x) for x in text.split()])
