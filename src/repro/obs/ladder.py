"""Exchange-dynamics metrics: ladder occupancy and round-trip times.

Acceptance ratio alone says little about how well a replica-exchange
ladder mixes — the literature's preferred observable is the *round-trip
time*: how long a replica takes to diffuse from the bottom window of a
dimension to the top and back (Nadler & Hansmann, arXiv:0708.3627;
Bussi, arXiv:0812.1633).  Short mean RTT and flat ladder occupancy mean
the ladder acts like an unbiased random walk; diverging RTT or replicas
piling up in a band of windows exposes a bottleneck no acceptance
average shows.  These are the numbers that *compare* exchange
criteria, so they live in ``repro.obs`` and flow into manifests (schema
v3), ``repro obs summary`` and ``diff_manifests``.

The :class:`LadderTracker` observes replica window positions on the
virtual clock — at run start and after every applied exchange sweep.
Windows only change at those moments, so the piecewise-constant
occupancy integral is exact.  Walk labeling follows the standard
up/down-walker convention: a replica becomes an **up**-walker when it
visits window 0 and a **down**-walker when it visits the top window;
one round trip is bottom → top → bottom, measured in virtual seconds.

Everything here is metrics-gated: the EMM only creates a tracker when
the run's registry is enabled, so ``NullRegistry`` benchmark runs and
golden traces are untouched.  Tracker state round-trips through
checkpoints (:meth:`state_dict` / :meth:`load_state`) so a crash-resumed
run's manifest stays byte-identical to an uninterrupted one's.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = ["LadderTracker"]


class _WalkState:
    """One replica's walk through one dimension's ladder."""

    __slots__ = ("last_w", "last_t", "label", "trip_start")

    def __init__(self, w: int, t: float, top: int):
        self.last_w = w
        self.last_t = t
        # A replica starting at an extreme is already labeled; one in the
        # middle stays unlabeled until it first touches an end.
        self.label: Optional[str] = (
            "up" if w == 0 else ("down" if w == top else None)
        )
        self.trip_start: Optional[float] = t if w == 0 else None

    def to_dict(self) -> Dict:
        return {
            "last_w": self.last_w,
            "last_t": self.last_t,
            "label": self.label,
            "trip_start": self.trip_start,
        }

    @classmethod
    def from_dict(cls, d: Dict) -> "_WalkState":
        st = cls.__new__(cls)
        st.last_w = int(d["last_w"])
        st.last_t = float(d["last_t"])
        st.label = d.get("label")
        st.trip_start = d.get("trip_start")
        return st


class _DimTracker:
    """Ladder state for one exchange dimension."""

    def __init__(self, name: str, n_windows: int):
        self.name = name
        self.n_windows = n_windows
        self.top = n_windows - 1
        self.walks: Dict[int, _WalkState] = {}
        #: rid -> {window -> virtual seconds} (sparse; replicas visit few
        #: windows in short runs)
        self.occupancy: Dict[int, Dict[int, float]] = {}
        self.rtts: List[float] = []

    def observe(self, t: float, rid: int, w: int) -> Optional[float]:
        """Record that ``rid`` holds window ``w`` at time ``t``.

        Returns the duration of a completed round trip, if this
        observation closes one.
        """
        st = self.walks.get(rid)
        if st is None:
            self.walks[rid] = _WalkState(w, t, self.top)
            self.occupancy[rid] = {}
            return None
        dwell = self.occupancy[rid]
        dwell[st.last_w] = dwell.get(st.last_w, 0.0) + (t - st.last_t)
        st.last_w = w
        st.last_t = t
        if self.top == 0:
            return None  # degenerate one-window ladder: no walk to label
        completed: Optional[float] = None
        if w == 0:
            if st.label == "down" and st.trip_start is not None:
                completed = t - st.trip_start
                self.rtts.append(completed)
            if st.label != "up":
                st.trip_start = t
            st.label = "up"
        elif w == self.top:
            st.label = "down"
        return completed

    def finalize(self, t_end: float) -> None:
        """Accrue each replica's final dwell up to ``t_end``."""
        for rid, st in self.walks.items():
            dwell = self.occupancy[rid]
            dwell[st.last_w] = dwell.get(st.last_w, 0.0) + (t_end - st.last_t)
            st.last_t = t_end

    def mean_rtt(self) -> float:
        return sum(self.rtts) / len(self.rtts) if self.rtts else 0.0

    def walker_counts(self) -> Dict[str, int]:
        counts = {"up": 0, "down": 0, "unlabeled": 0}
        for st in self.walks.values():
            counts[st.label or "unlabeled"] += 1
        return counts

    def window_occupancy(self) -> Dict[int, float]:
        """Total virtual seconds spent in each window, over all replicas."""
        totals: Dict[int, float] = {}
        for dwell in self.occupancy.values():
            for w, secs in dwell.items():
                totals[w] = totals.get(w, 0.0) + secs
        return totals


class LadderTracker:
    """Tracks every dimension's ladder dynamics for one run.

    ``registry`` (optional) receives live instruments as trips complete:
    counter ``exchange.round_trips{dim=...}`` and histogram
    ``exchange.round_trip_seconds{dim=...}``; :meth:`finalize` adds
    ``exchange.ladder_occupancy_s{dim=...,window=...}`` gauges.  The
    instruments live in the registry (and so round-trip through its own
    checkpoint state); the tracker's walk state rides the checkpoint obs
    blob separately via :meth:`state_dict`.
    """

    def __init__(self, dims: Dict[str, int], registry=None):
        self._dims = {
            name: _DimTracker(name, n) for name, n in dims.items()
        }
        self._registry = registry
        self._finalized_at: Optional[float] = None
        if registry is not None:
            self._trip_counters = {
                name: registry.counter(f"exchange.round_trips{{dim={name}}}")
                for name in dims
            }
            self._trip_hists = {
                name: registry.histogram(
                    f"exchange.round_trip_seconds{{dim={name}}}"
                )
                for name in dims
            }
        else:
            self._trip_counters = {}
            self._trip_hists = {}

    @property
    def dimensions(self) -> List[str]:
        return list(self._dims)

    def round_trips(self, dim: str) -> List[float]:
        """Completed round-trip durations (virtual s) for ``dim``."""
        return list(self._dims[dim].rtts)

    # -- observation ---------------------------------------------------------

    def observe(self, t: float, rid: int, windows: Dict[str, int]) -> None:
        """Record one replica's window positions at virtual time ``t``."""
        for name, tracker in self._dims.items():
            w = windows.get(name)
            if w is None:
                continue
            completed = tracker.observe(t, rid, w)
            if completed is not None and self._registry is not None:
                self._trip_counters[name].inc()
                self._trip_hists[name].observe(completed)

    def observe_all(self, t: float, replicas: Sequence) -> None:
        """Record every replica's positions (``param_indices``) at ``t``."""
        for rep in replicas:
            self.observe(t, rep.rid, rep.param_indices)

    def finalize(self, t_end: float) -> None:
        """Close occupancy accounting at ``t_end`` and set final gauges.

        Idempotent per time point (re-finalizing at the same ``t_end``
        accrues zero extra dwell), so a framework teardown path calling
        it defensively is safe.
        """
        for tracker in self._dims.values():
            tracker.finalize(t_end)
        self._finalized_at = t_end
        if self._registry is not None:
            for name, tracker in self._dims.items():
                for w, secs in sorted(tracker.window_occupancy().items()):
                    self._registry.gauge(
                        f"exchange.ladder_occupancy_s{{dim={name},window={w}}}"
                    ).set(round(secs, 6))

    # -- manifest records ----------------------------------------------------

    def records(self) -> List[Dict]:
        """One JSON-safe ``ladder`` record per dimension (schema v3)."""
        out = []
        for name, tracker in self._dims.items():
            walkers = tracker.walker_counts()
            out.append(
                {
                    "dimension": name,
                    "n_windows": tracker.n_windows,
                    "round_trips": len(tracker.rtts),
                    "mean_rtt_s": round(tracker.mean_rtt(), 6),
                    "rtt_s": [round(v, 6) for v in tracker.rtts],
                    "walkers": walkers,
                    "occupancy": {
                        str(w): round(secs, 6)
                        for w, secs in sorted(
                            tracker.window_occupancy().items()
                        )
                    },
                }
            )
        return out

    # -- checkpoint round-trip -----------------------------------------------

    def state_dict(self) -> Dict:
        """Exact JSON-safe walk/occupancy state for checkpoints."""
        return {
            "dims": {
                name: {
                    "walks": {
                        str(rid): st.to_dict()
                        for rid, st in sorted(tracker.walks.items())
                    },
                    "occupancy": {
                        str(rid): {
                            str(w): secs for w, secs in sorted(dwell.items())
                        }
                        for rid, dwell in sorted(tracker.occupancy.items())
                    },
                    "rtts": list(tracker.rtts),
                }
                for name, tracker in self._dims.items()
            }
        }

    def load_state(self, state: Dict) -> None:
        """Restore :meth:`state_dict` output; unknown dimensions ignored."""
        for name, data in state.get("dims", {}).items():
            tracker = self._dims.get(name)
            if tracker is None:
                continue
            tracker.walks = {
                int(rid): _WalkState.from_dict(d)
                for rid, d in data.get("walks", {}).items()
            }
            tracker.occupancy = {
                int(rid): {int(w): float(s) for w, s in dwell.items()}
                for rid, dwell in data.get("occupancy", {}).items()
            }
            tracker.rtts = [float(v) for v in data.get("rtts", [])]
