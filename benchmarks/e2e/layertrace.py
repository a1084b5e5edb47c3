"""External per-layer host-time ledger for the end-to-end benchmark.

The tracer wraps the public callables of each layer of ``repro`` from
outside the program: it replaces class attributes, and every reference a
``repro.*`` module holds to a traced module-level function (which covers
``from x import f`` call sites such as ``try_fast_phase`` inside
``repro.core.execution_modes``).  Nothing under ``src/`` is edited.

Each call becomes one span ``(layer, callable, start, end, parent)`` kept
in memory; ``parent`` is the index of the enclosing span or -1.  A
layer's *self* time is the sum of its spans' durations minus the time
covered by their direct child spans, so the self times of all layers add
up to the traced time with no double counting.  Spans are written out
only when the traced run has finished (:meth:`LayerTracer.dump`).

Install before the workload builds anything: objects created earlier may
hold bound methods or function references the tracer cannot reach.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: ``layer -> [(module, class or None, callables)]``.  A class entry with
#: ``PUBLIC`` traces every public method the class defines or inherits
#: from another ``repro`` class, except the file-name helpers below.
PUBLIC = "*public*"

#: adapter methods that only format a file name; at ~10 calls per unit
#: their wrapper would cost more than they do
NAME_HELPERS = frozenset({"info_file", "restart_file", "default_executable"})

LAYERS: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "core.framework": [
        ("repro.core.framework", "RepEx", ("__init__", "run")),
    ],
    "core.emm": [
        ("repro.core.emm", "SynchronousEMM", ("run",)),
        ("repro.core.emm", "AsynchronousEMM", ("run",)),
    ],
    "core.amm": [
        (
            "repro.core.amm",
            "ApplicationManager",
            (
                "create_replicas",
                "md_task",
                "process_md_output",
                "exchange_task",
                "single_point_tasks",
                "apply_proposals",
            ),
        ),
    ],
    "md.adapter": [
        (
            "repro.core.ram",
            None,
            ("execute_md", "read_md_outputs", "execute_single_point_group"),
        ),
        ("repro.md.amber", "AmberAdapter", (PUBLIC,)),
        ("repro.md.namd", "NAMDAdapter", (PUBLIC,)),
    ],
    "md.batch": [
        ("repro.md.batch", None, ("run_md_batch",)),
    ],
    "md.kernel": [
        ("repro.md.toymd", "ToyMD", ("run", "run_batch", "single_point_energy")),
        ("repro.md.forcefield", "ForceField", ("energy", "gradient")),
    ],
    "md.perfmodel": [
        (
            "repro.md.perfmodel",
            "PerformanceModel",
            (
                "md_duration",
                "exchange_calc_duration",
                "single_point_duration",
                "task_prep_overhead",
            ),
        ),
    ],
    "pilot.soa": [
        ("repro.pilot.soa", None, ("try_fast_phase",)),
    ],
    "core.execution_modes": [
        ("repro.core.execution_modes", "ModeI", ("run_phase",)),
        ("repro.core.execution_modes", "ModeII", ("run_phase",)),
    ],
    "pilot.events": [
        (
            "repro.pilot.events",
            "EventQueue",
            ("step", "step_batch", "account_batch", "schedule_many"),
        ),
    ],
    "pilot.scheduler": [
        ("repro.pilot.scheduler", "AgentScheduler", ("submit", "submit_many")),
        (
            "repro.pilot.session",
            "Session",
            ("submit_units", "wait_units", "run_for"),
        ),
    ],
    "core.exchange": [
        ("repro.core.ram", None, ("compute_exchange",)),
        ("repro.core.exchange.base", None, ("metropolis_accept",)),
        (
            "repro.core.exchange.base",
            "ExchangeDimension",
            ("exchange_delta", "batch_exchange_deltas"),
        ),
        (
            "repro.core.exchange.temperature",
            "TemperatureDimension",
            ("exchange_delta", "batch_exchange_deltas"),
        ),
        (
            "repro.core.exchange.salt",
            "SaltDimension",
            ("exchange_delta", "batch_exchange_deltas"),
        ),
        (
            "repro.core.exchange.umbrella",
            "UmbrellaDimension",
            ("exchange_delta", "batch_exchange_deltas"),
        ),
        (
            "repro.core.exchange.ph",
            "PHDimension",
            ("exchange_delta", "batch_exchange_deltas"),
        ),
    ],
    "core.checkpoint": [
        ("repro.core.checkpoint", "Checkpoint", ("capture", "capture_async", "save")),
    ],
    "obs.manifest": [
        ("repro.obs.manifest", "RunManifest", ("from_run", "dump")),
        ("repro.obs.manifest", None, ("config_hash",)),
        ("repro.pilot.trace", "Tracer", ("watch", "watch_all")),
    ],
    "campaign.arbiter": [
        # The event callbacks (_complete, _crash_node, _repair_node) are
        # the arbiter's own work fired from its outer event queue; without
        # them that work would land in pilot.events.
        (
            "repro.campaign.arbiter",
            "Arbiter",
            ("submit", "run", "_complete", "_crash_node", "_repair_node"),
        ),
        ("repro.campaign.service", None, ("run_campaign", "expand_requests")),
        ("repro.campaign.service", "CampaignReport", ("to_dict",)),
    ],
}

#: the layer the benchmark's own campaign runner wrapper reports under
RUNNER_LAYER = "campaign.runner"

#: every layer name the ledger reports, in report order
LAYER_NAMES = list(LAYERS) + [RUNNER_LAYER]

#: extra per-layer metrics beyond ``<layer>.calls`` / ``<layer>.self_s``
EXTRA_METRICS = {
    "core.framework.init_s": "s",
    "md.adapter.write_calls": "count",
    "md.adapter.read_calls": "count",
    "md.batch.rows": "count",
    "pilot.soa.hit_ratio": "frac",
    "pilot.events.fired": "count",
    "core.exchange.accept_ratio": "frac",
    "core.checkpoint.bytes": "bytes",
    "obs.manifest.bytes": "bytes",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
}


def metric_units() -> Dict[str, str]:
    """Every per-layer metric name the ledger reports, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYER_NAMES:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(EXTRA_METRICS)
    return units


class LayerTracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: (layer, callable, start, end, parent) per call, in entry order
        self.spans: List[Optional[tuple]] = []
        self._stack: List[int] = []
        #: counters fed by per-callable result hooks
        self.counts: Dict[str, float] = {}

    # -- wrapping ---------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable, after=None) -> Callable:
        """Return ``fn`` wrapped so each call records one span.

        ``after(args, kwargs, result)``, when given, runs after the span
        closes, so its own cost is attributed to the caller.
        """
        spans = self.spans
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, name, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _bump(self, key: str, by: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _hook_for(self, layer: str, attr: str):
        """Result hooks for the counters the ledger derives from returns."""
        if layer == "pilot.soa":
            return lambda a, k, r: self._bump("soa.hits", r is not None)
        if layer == "core.exchange" and attr == "metropolis_accept":
            return lambda a, k, r: self._bump("exchange.accepted", bool(r))
        if layer == "pilot.events" and attr == "step":
            return lambda a, k, r: self._bump("events.fired", bool(r))
        if layer == "pilot.events" and attr == "step_batch":
            return lambda a, k, r: self._bump("events.fired", r[1])
        if layer == "md.batch":
            return lambda a, k, r: self._bump("batch.rows", len(a[0]))
        if layer == "core.checkpoint" and attr == "save":
            path = lambda a, k: a[1] if len(a) > 1 else k["path"]
            return lambda a, k, r: self._bump(
                "checkpoint.bytes", os.path.getsize(path(a, k))
            )
        if layer == "obs.manifest" and attr == "dump":
            return lambda a, k, r: self._bump(
                "manifest.bytes", os.path.getsize(r)
            )
        return None

    def _patch_attr(self, layer: str, owner: type, attr: str) -> None:
        raw = owner.__dict__[attr]
        name = f"{owner.__name__}.{attr}"
        hook = self._hook_for(layer, attr)
        if isinstance(raw, classmethod):
            new = classmethod(self.wrap(layer, name, raw.__func__, hook))
        elif isinstance(raw, staticmethod):
            new = staticmethod(self.wrap(layer, name, raw.__func__, hook))
        elif callable(raw):
            new = self.wrap(layer, name, raw, hook)
        else:
            return  # properties and data attributes are not calls we time
        setattr(owner, attr, new)

    def _patch_function(self, layer: str, module, attr: str) -> None:
        original = getattr(module, attr)
        short = module.__name__.rsplit(".", 1)[-1]
        wrapped = self.wrap(
            layer, f"{short}.{attr}", original, self._hook_for(layer, attr)
        )
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "repro" and not mod_name.startswith("repro."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)

    def install(self) -> "LayerTracer":
        """Wrap every callable named in :data:`LAYERS`."""
        seen = set()
        for layer, entries in LAYERS.items():
            for module_name, cls_name, attrs in entries:
                module = importlib.import_module(module_name)
                if cls_name is None:
                    for attr in attrs:
                        self._patch_function(layer, module, attr)
                    continue
                cls = getattr(module, cls_name)
                if attrs == (PUBLIC,):
                    targets = []
                    for attr in dir(cls):
                        if attr.startswith("_") or attr in NAME_HELPERS:
                            continue
                        owner = next(k for k in cls.__mro__ if attr in k.__dict__)
                        if owner.__module__.startswith("repro."):
                            targets.append((owner, attr))
                else:
                    targets = [(cls, attr) for attr in attrs if attr in cls.__dict__]
                for owner, attr in targets:
                    if (owner, attr) not in seen:
                        seen.add((owner, attr))
                        self._patch_attr(layer, owner, attr)
        return self

    # -- reporting ----------------------------------------------------------

    def ledger(self, traced_wall_s: float) -> Dict[str, float]:
        """Per-layer calls / self time plus the derived ratios and counts.

        ``traced_wall_s`` is the host time of the traced region; the part
        of it no span's self time covers is ``trace.unattributed_frac``.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for span in spans:
            if span is not None and span[4] >= 0:
                child_s[span[4]] += span[3] - span[2]
        calls = {layer: 0 for layer in LAYER_NAMES}
        self_s = {layer: 0.0 for layer in LAYER_NAMES}
        init_s = 0.0
        reads = writes = 0
        for i, span in enumerate(spans):
            if span is None:
                continue  # a call still open (cannot happen after a clean run)
            layer, name, start, end, _ = span
            calls[layer] += 1
            self_s[layer] += (end - start) - child_s[i]
            if name == "RepEx.__init__":
                init_s += end - start
            elif layer == "md.adapter" and "Adapter." in name:
                method = name.rsplit(".", 1)[-1]
                reads += method.startswith("read")
                writes += method.startswith("write")
        out: Dict[str, float] = {}
        for layer in calls:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        soa_calls = calls["pilot.soa"]
        accept_calls = sum(
            1 for s in spans if s is not None and s[1] == "base.metropolis_accept"
        )
        counts = self.counts
        out.update(
            {
                "core.framework.init_s": init_s,
                "md.adapter.write_calls": writes,
                "md.adapter.read_calls": reads,
                "md.batch.rows": counts.get("batch.rows", 0),
                "pilot.soa.hit_ratio": (
                    counts.get("soa.hits", 0) / soa_calls if soa_calls else 0.0
                ),
                "pilot.events.fired": counts.get("events.fired", 0),
                "core.exchange.accept_ratio": (
                    counts.get("exchange.accepted", 0) / accept_calls
                    if accept_calls
                    else 0.0
                ),
                "core.checkpoint.bytes": counts.get("checkpoint.bytes", 0),
                "obs.manifest.bytes": counts.get("manifest.bytes", 0),
                "trace.unattributed_frac": (
                    1.0 - sum(self_s.values()) / traced_wall_s
                    if traced_wall_s > 0
                    else 0.0
                ),
            }
        )
        return out

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines (one span per line)."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
