"""Data-staging directives, mirroring RADICAL-Pilot's staging API.

A :class:`ComputeUnit <repro.pilot.unit.ComputeUnit>` declares input and
output staging directives; the agent charges the filesystem model for each
transfer.  This is where the paper's ``T_data`` term comes from ("time to
perform data movement procedures, which are mostly remote-to-remote.  For
example, Amber's .mdinfo files to 'staging area' which is accessible by
subsequent tasks").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, List

from repro.obs.metrics import get_registry


class StagingAction(enum.Enum):
    """How a file moves between task sandbox and staging area."""

    #: Physical copy through the parallel filesystem (charged bandwidth).
    COPY = "copy"
    #: Symlink / rename within the filesystem (metadata cost only).
    LINK = "link"
    #: Copy then remove source; charged like COPY.
    MOVE = "move"


@dataclass(frozen=True)
class StagingDirective:
    """One file movement between a unit sandbox and the staging area."""

    source: str
    target: str
    size_mb: float
    action: StagingAction = StagingAction.COPY

    def __post_init__(self):
        if self.size_mb < 0:
            raise ValueError(f"size_mb must be >= 0, got {self.size_mb}")
        if not self.source or not self.target:
            raise ValueError("source and target must be non-empty paths")


class StagingArea:
    """A virtual shared staging directory on the cluster filesystem.

    Tracks which logical files exist and their sizes, so that a unit's input
    staging can be validated (a missing input is a workload bug the paper's
    AMM would have produced) and so tests can assert on data movement.
    """

    def __init__(self, registry=None):
        self._files: Dict[str, float] = {}
        self.bytes_in_mb: float = 0.0
        self.bytes_out_mb: float = 0.0
        self.n_transfers: int = 0
        if registry is None:
            registry = get_registry()
        self._m_bytes = registry.counter("staging.bytes_mb")
        self._m_transfers = registry.counter("staging.transfers")

    def __contains__(self, path: str) -> bool:
        return path in self._files

    def __len__(self) -> int:
        return len(self._files)

    def size_of(self, path: str) -> float:
        """Size in MB of a staged file.

        Raises
        ------
        KeyError
            If the file has not been staged.
        """
        return self._files[path]

    def put(self, path: str, size_mb: float) -> None:
        """Record a file written into the staging area."""
        if size_mb < 0:
            raise ValueError(f"size_mb must be >= 0, got {size_mb}")
        self._files[path] = size_mb
        self.bytes_in_mb += size_mb
        self.n_transfers += 1
        self._m_bytes.inc(size_mb)
        self._m_transfers.inc()

    def get(self, path: str) -> float:
        """Record a read of a staged file; returns its size in MB."""
        size = self._files[path]
        self.bytes_out_mb += size
        self.n_transfers += 1
        self._m_bytes.inc(size)
        self._m_transfers.inc()
        return size

    def remove(self, path: str) -> None:
        """Delete a staged file."""
        del self._files[path]

    def files(self) -> List[str]:
        """All staged logical paths, sorted."""
        return sorted(self._files)

    # -- checkpointing -------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-safe transfer totals (the file ledger travels as
        :meth:`changes_since` deltas)."""
        return {
            "bytes_in_mb": self.bytes_in_mb,
            "bytes_out_mb": self.bytes_out_mb,
            "n_transfers": self.n_transfers,
        }

    def changes_since(self, seen: Dict[str, float]) -> Dict[str, object]:
        """The ledger changes since ``seen`` (the files as last recorded),
        which is brought up to date in place.

        ``put`` holds every file added or overwritten with a new size,
        ``removed`` every file deleted, both sorted.  Computed by diffing
        at the call, so :meth:`put` carries no bookkeeping for it.
        """
        files = self._files
        put = dict(sorted(files.items() - seen.items()))
        removed = sorted(seen.keys() - files.keys())
        seen.update(put)
        for path in removed:
            del seen[path]
        return {"put": put, "removed": removed}

    def restore(
        self, snapshot: Dict[str, object], files: Dict[str, float]
    ) -> None:
        """Restore :meth:`snapshot` totals and the ``files`` ledger,
        bypassing the transfer counters.

        Restoration re-materializes bookkeeping, it does not move data, so
        neither the ``staging.*`` metrics nor the byte totals are charged;
        the totals are set to the snapshotted values instead.
        """
        self._files = {str(k): float(v) for k, v in files.items()}
        self.bytes_in_mb = float(snapshot["bytes_in_mb"])
        self.bytes_out_mb = float(snapshot["bytes_out_mb"])
        self.n_transfers = int(snapshot["n_transfers"])


def total_staging_size(directives: Iterable[StagingDirective]) -> float:
    """Sum of sizes (MB) of COPY/MOVE directives (links are free)."""
    return sum(
        d.size_mb for d in directives if d.action is not StagingAction.LINK
    )
