"""Shared infrastructure for the figure/table benchmarks.

Every benchmark regenerates one of the paper's tables or figures: it runs
the same workload (type, replica counts, cores, cluster, steps) through the
full RepEx stack on the simulated runtime, then prints the same rows/series
the figure plots and appends them to ``benchmarks/output/<name>.txt``.

Sweeps are cached per parameter set within one pytest session because
several figures share data (Figs. 5, 6 and 7 all come from the 1-D weak-
scaling sweep; Fig. 11 re-analyzes Figs. 9-10).

Set ``REPRO_FAST=1`` to trim the replica counts for a quick smoke pass;
its tables go to a temporary directory, so the committed full-scale
tables under ``benchmarks/output/`` stay as they are.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.core import (
    DimensionSpec,
    PatternSpec,
    RepEx,
    ResourceSpec,
    SimulationConfig,
)
from repro.core.config import EngineSpec
from repro.core.results import SimulationResult

FAST = os.environ.get("REPRO_FAST", "0") == "1"

#: The paper's replica counts for the weak-scaling experiments.
REPLICA_COUNTS: List[int] = [64, 216] if FAST else [64, 216, 512, 1000, 1728]

#: Fig. 10's core counts at fixed replica count (strong scaling).  The
#: FAST variant keeps the same structure at 216 replicas: Mode II points
#: followed by a final cores == replicas (Mode I) point.
STRONG_CORE_COUNTS: List[int] = (
    [54, 108, 216] if FAST else [112, 224, 432, 864, 1728]
)

#: Fig. 13's (cores == replicas) points.
UTILIZATION_COUNTS: List[int] = [120, 240] if FAST else [120, 240, 480, 960]

#: Cycles averaged per measurement ("average of 4 simulation cycles").
N_CYCLES_1D = 2 if FAST else 4

#: Full M-REMD cycles per measurement (each is n_dims 1-D cycles).
N_FULL_CYCLES_MREMD = 1 if FAST else 2

#: Steps actually integrated per phase in scaling runs; the virtual clock
#: is billed for the paper's step counts regardless (DESIGN.md decision 1).
NUMERIC_STEPS = 10

#: Umbrella force constant used throughout (see EXPERIMENTS.md on the
#: calibration relative to the paper's quoted 0.02 kcal/mol/deg^2).
UMBRELLA_K = 0.0005

if FAST:
    # removed when the interpreter exits
    _FAST_OUTPUT = tempfile.TemporaryDirectory(prefix="repro-bench-fast-")
    OUTPUT_DIR = Path(_FAST_OUTPUT.name)
else:
    OUTPUT_DIR = Path(__file__).parent / "output"

_CACHE: Dict[Tuple, SimulationResult] = {}


def report(
    name: str,
    text: str,
    headers: Optional[List[str]] = None,
    rows: Optional[List[List]] = None,
) -> None:
    """Print a figure's table and persist it under :data:`OUTPUT_DIR`.

    Besides the human-readable ``<name>.txt``, every figure gets a
    machine-readable ``<name>.json`` sidecar so downstream tooling
    (``perfbench.py --compare`` style diffs, plotting) never has to parse
    the ASCII tables.  Callers with tabular data pass ``headers``/``rows``;
    text-only figures fall back to a ``{"text": ...}`` document.
    """
    OUTPUT_DIR.mkdir(exist_ok=True)
    print(f"\n{text}\n")
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
    doc: Dict[str, object] = {"name": name}
    if headers is not None:
        doc["headers"] = list(headers)
    if rows is not None:
        doc["rows"] = [list(row) for row in rows]
    if headers is None and rows is None:
        doc["text"] = text
    (OUTPUT_DIR / f"{name}.json").write_text(
        json.dumps(doc, indent=2, default=float) + "\n"
    )


def _dimension_spec(kind: str, n_windows: int) -> DimensionSpec:
    if kind == "temperature":
        return DimensionSpec("temperature", n_windows, 273.0, 373.0)
    if kind == "umbrella":
        return DimensionSpec(
            "umbrella", n_windows, 0.0, 360.0, angle="phi",
            force_constant=UMBRELLA_K,
        )
    if kind == "salt":
        return DimensionSpec("salt", n_windows, 0.0, 1.0)
    if kind == "ph":
        return DimensionSpec("ph", n_windows, 4.0, 9.0)
    raise ValueError(f"unknown 1-D benchmark kind {kind!r}")


def run_1d(
    kind: str,
    n_replicas: int,
    *,
    cores: Optional[int] = None,
    cluster: str = "supermic",
    engine: str = "amber",
    steps_per_cycle: int = 6000,
    n_cycles: int = N_CYCLES_1D,
    exchange_enabled: bool = True,
    pattern: Optional[PatternSpec] = None,
    seed: int = 2016,
) -> SimulationResult:
    """Run (and cache) one 1-D REMD scaling point."""
    cores = cores if cores is not None else n_replicas
    key = (
        "1d", kind, n_replicas, cores, cluster, engine, steps_per_cycle,
        n_cycles, exchange_enabled,
        pattern.kind if pattern else "synchronous",
        pattern.window_seconds if pattern else 0.0,
        pattern.fifo_count if pattern else None,
        seed,
    )
    if key not in _CACHE:
        config = SimulationConfig(
            title=f"bench-{kind}-{n_replicas}",
            engine=EngineSpec(name=engine),
            dimensions=[_dimension_spec(kind, n_replicas)],
            resource=ResourceSpec(cluster, cores=cores),
            pattern=pattern or PatternSpec(),
            n_cycles=n_cycles,
            steps_per_cycle=steps_per_cycle,
            numeric_steps=NUMERIC_STEPS,
            sample_stride=0,
            seed=seed,
        )
        _CACHE[key] = RepEx(config).run()
    return _CACHE[key]


def run_mremd(
    order: str,
    per_dim: Tuple[int, ...],
    *,
    cores: int,
    cluster: str = "stampede",
    steps_per_cycle: int = 6000,
    n_full_cycles: int = N_FULL_CYCLES_MREMD,
    cores_per_replica: int = 1,
    system: str = "ala2",
    seed: int = 2016,
) -> SimulationResult:
    """Run (and cache) one M-REMD point.

    ``order`` is a code string like "TSU" or "TUU"; ``per_dim`` gives the
    window count of each dimension in that order.
    """
    if len(order) != len(per_dim):
        raise ValueError(f"order {order!r} does not match {per_dim}")
    key = (
        "mremd", order, per_dim, cores, cluster, steps_per_cycle,
        n_full_cycles, cores_per_replica, system, seed,
    )
    if key not in _CACHE:
        dims = []
        seen_u = 0
        for code, n in zip(order, per_dim):
            if code == "T":
                dims.append(
                    DimensionSpec("temperature", n, 273.0, 373.0)
                )
            elif code == "S":
                dims.append(DimensionSpec("salt", n, 0.0, 1.0))
            elif code == "U":
                angle = "phi" if seen_u == 0 else "psi"
                seen_u += 1
                dims.append(
                    DimensionSpec(
                        "umbrella", n, 0.0, 360.0, angle=angle,
                        force_constant=UMBRELLA_K,
                    )
                )
            else:
                raise ValueError(f"unknown dimension code {code!r}")
        config = SimulationConfig(
            title=f"bench-{order.lower()}-{'x'.join(map(str, per_dim))}",
            engine=EngineSpec(name="amber", system=system),
            dimensions=dims,
            resource=ResourceSpec(cluster, cores=cores),
            n_cycles=n_full_cycles * len(order),
            steps_per_cycle=steps_per_cycle,
            numeric_steps=NUMERIC_STEPS,
            sample_stride=0,
            cores_per_replica=cores_per_replica,
            seed=seed,
        )
        _CACHE[key] = RepEx(config).run()
    return _CACHE[key]


def one_dimensional_sweep(kind: str, **kwargs) -> List[SimulationResult]:
    """The Figs. 5-7 sweep: replicas == cores over REPLICA_COUNTS."""
    return [run_1d(kind, n, **kwargs) for n in REPLICA_COUNTS]


#: Manifest phase buckets, in presentation order.
PHASES: Tuple[str, ...] = ("md", "exchange", "staging", "overhead", "other")


def phase_decomposition(result: SimulationResult) -> Dict[str, float]:
    """Per-phase busy core-seconds of one run, from its manifest."""
    return dict(result.manifest.phase_totals)


def phase_rows(results: List[SimulationResult]) -> List[List]:
    """Table rows [replicas, md, exchange, staging, overhead, util%] —
    the same decomposition for every figure script that wants it."""
    rows = []
    for res in results:
        phases = phase_decomposition(res)
        rows.append(
            [res.n_replicas]
            + [phases.get(p, 0.0) for p in PHASES[:4]]
            + [100.0 * res.utilization()]
        )
    return rows
