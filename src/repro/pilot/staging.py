"""Data-staging directives, mirroring RADICAL-Pilot's staging API.

A :class:`ComputeUnit <repro.pilot.unit.ComputeUnit>` declares input and
output staging directives; the agent charges the filesystem model for each
transfer.  This is where the paper's ``T_data`` term comes from ("time to
perform data movement procedures, which are mostly remote-to-remote.  For
example, Amber's .mdinfo files to 'staging area' which is accessible by
subsequent tasks").  The staging area itself is not modelled as a file
store: its whole cost is the filesystem model's transfer time, and the
agent counts the files staged in or out (``staging.transfers``,
``staging.bytes_mb``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable


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


def total_staging_size(directives: Iterable[StagingDirective]) -> float:
    """Sum of sizes (MB) of COPY/MOVE directives (links are free)."""
    return sum(
        d.size_mb for d in directives if d.action is not StagingAction.LINK
    )
