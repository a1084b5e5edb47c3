"""Task sandboxes: where engine input/output files live.

Each compute unit runs in a sandbox, exactly like RADICAL-Pilot creates a
directory per unit.  Two backends share one interface:

* in-memory (default) — a dict; what every run builds unless handed a
  sandbox, and
* on-disk — real files under a root path; for a library caller who
  passes ``RepEx(config, sandbox=Sandbox(root))`` to see the files, and
  for the adapter and phase tests, so the text formats are genuinely
  written to and read back from disk.

A task's files live from its write until its fold: the application
manager discards an MD task's inputs and outputs once they are folded
into the replica (or the replica retires without a fold), and a
single-point group's files once its energy row is computed.  So a run's
sandbox holds only the files of tasks in flight, on either backend.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Iterable, List, Optional


class SandboxError(IOError):
    """Raised for missing files or writes outside the sandbox."""


class Sandbox:
    """A flat, named file namespace backed by memory or by a directory."""

    def __init__(self, root: Optional[os.PathLike] = None):
        self._root = Path(root) if root is not None else None
        self._mem: Dict[str, str] = {}
        if self._root is not None:
            self._root.mkdir(parents=True, exist_ok=True)

    @property
    def on_disk(self) -> bool:
        """True when backed by a real directory."""
        return self._root is not None

    @property
    def root(self) -> Optional[Path]:
        """Backing directory, or None for the in-memory backend."""
        return self._root

    def _path(self, name: str) -> Path:
        assert self._root is not None
        p = (self._root / name).resolve()
        if self._root.resolve() not in p.parents and p != self._root.resolve():
            raise SandboxError(f"path escapes sandbox: {name!r}")
        return p

    def write_text(self, name: str, text: str) -> None:
        """Create or overwrite a file."""
        if self._root is None:
            self._mem[name] = text
        else:
            p = self._path(name)
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(text)

    def read_text(self, name: str) -> str:
        """Read a file's contents.

        Raises
        ------
        SandboxError
            If the file does not exist.
        """
        if self._root is None:
            try:
                return self._mem[name]
            except KeyError:
                raise SandboxError(f"no such file in sandbox: {name!r}") from None
        p = self._path(name)
        if not p.is_file():
            raise SandboxError(f"no such file in sandbox: {name!r}")
        return p.read_text()

    def exists(self, name: str) -> bool:
        """Whether a file has been written."""
        if self._root is None:
            return name in self._mem
        return self._path(name).is_file()

    def listdir(self) -> List[str]:
        """Sorted names of all files in the sandbox."""
        if self._root is None:
            return sorted(self._mem)
        out = []
        for p in self._root.rglob("*"):
            if p.is_file():
                out.append(str(p.relative_to(self._root)))
        return sorted(out)

    def size_mb(self, name: str) -> float:
        """File size in MB (UTF-8 length for the memory backend)."""
        if self._root is None:
            try:
                return len(self._mem[name].encode()) / 1.0e6
            except KeyError:
                raise SandboxError(f"no such file in sandbox: {name!r}") from None
        p = self._path(name)
        if not p.is_file():
            raise SandboxError(f"no such file in sandbox: {name!r}")
        return p.stat().st_size / 1.0e6

    def remove(self, name: str) -> None:
        """Delete a file.

        Raises
        ------
        SandboxError
            If the file does not exist.
        """
        if self._root is None:
            if name not in self._mem:
                raise SandboxError(f"no such file in sandbox: {name!r}")
            del self._mem[name]
        else:
            p = self._path(name)
            if not p.is_file():
                raise SandboxError(f"no such file in sandbox: {name!r}")
            p.unlink()

    def discard(self, names: Iterable[str]) -> None:
        """Delete each named file; a name never written is skipped."""
        if self._root is None:
            pop = self._mem.pop
            for name in names:
                pop(name, None)
        else:
            for name in names:
                self._path(name).unlink(missing_ok=True)
