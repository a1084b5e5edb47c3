"""Declarative alert rules evaluated on the virtual clock.

An operator watching a long campaign cares about a handful of
conditions: acceptance collapsing below its floor, stragglers piling up,
the scheduler queue growing without bound, checkpoints going stale.
This module lets those be written as data — JSON rules against metric
names in the active registry — and evaluated *deterministically on the
virtual clock* at cycle/sweep boundaries, so the same seeded run always
produces the same firing/resolved transitions.

Each transition is recorded as a manifest ``alert`` record (schema v3)
and mirrored as a labelled gauge ``alerts.firing{rule=...}`` (1 while
firing) so an OpenMetrics export shows alert state without parsing the
alert records.

Rule semantics (``kind``):

``above`` / ``below``
    Compare the metric's current value against ``threshold``.
``ratio_above`` / ``ratio_below``
    Compare ``metric / divisor`` (both metric names); the condition is
    off while the divisor is below ``min_samples`` so a run's first
    cycles don't flap.
``rate_above``
    Compare the metric's increase per virtual second since the previous
    evaluation against ``threshold``.
``stale_for``
    Fires when the metric's value has not *changed* for more than
    ``threshold`` virtual seconds (checkpoint staleness, wedged queues).

``for_s`` adds hysteresis: the raw condition must hold continuously for
that many virtual seconds before the rule fires, and clears it the
moment the condition breaks.  Everything defaults off — no rules, no
evaluation, no gauges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = ["AlertError", "AlertManager", "AlertRule", "default_rules", "load_rules"]

_KINDS = frozenset(
    {"above", "below", "ratio_above", "ratio_below", "rate_above", "stale_for"}
)
_RULE_KEYS = frozenset(
    {
        "name",
        "kind",
        "metric",
        "threshold",
        "divisor",
        "for_s",
        "min_samples",
        "severity",
    }
)


class AlertError(ValueError):
    """Raised for malformed rule files."""


@dataclass(frozen=True)
class AlertRule:
    """One declarative threshold rule."""

    name: str
    kind: str
    metric: str
    threshold: float
    divisor: Optional[str] = None
    for_s: float = 0.0
    min_samples: float = 0.0
    severity: str = "warning"

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise AlertError(
                f"rule {self.name!r}: unknown kind {self.kind!r} "
                f"(expected one of {sorted(_KINDS)})"
            )
        if self.kind in ("ratio_above", "ratio_below") and not self.divisor:
            raise AlertError(
                f"rule {self.name!r}: kind {self.kind!r} requires 'divisor'"
            )

    def to_dict(self) -> Dict:
        """JSON-safe rule dict (the ``--alerts`` file's entry shape)."""
        d = {
            "name": self.name,
            "kind": self.kind,
            "metric": self.metric,
            "threshold": self.threshold,
            "severity": self.severity,
        }
        if self.divisor:
            d["divisor"] = self.divisor
        if self.for_s:
            d["for_s"] = self.for_s
        if self.min_samples:
            d["min_samples"] = self.min_samples
        return d


def load_rules(text: str) -> List[AlertRule]:
    """Parse a JSON rule file: ``{"rules": [{...}, ...]}`` or a bare list.

    Unknown keys are rejected (typos in a threshold name should fail
    loudly, not silently disable the alert).
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlertError(f"invalid JSON in alert rules: {exc}") from None
    if isinstance(data, dict):
        items = data.get("rules")
        if items is None:
            raise AlertError("alert rule file must have a top-level 'rules' list")
    elif isinstance(data, list):
        items = data
    else:
        raise AlertError("alert rule file must be a list or {'rules': [...]}")
    rules = []
    seen = set()
    for i, item in enumerate(items):
        if not isinstance(item, dict):
            raise AlertError(f"rule #{i}: expected an object, got {type(item).__name__}")
        unknown = set(item) - _RULE_KEYS
        if unknown:
            raise AlertError(f"rule #{i}: unknown keys {sorted(unknown)}")
        missing = {"name", "kind", "metric", "threshold"} - set(item)
        if missing:
            raise AlertError(f"rule #{i}: missing keys {sorted(missing)}")
        rule = AlertRule(**item)
        if rule.name in seen:
            raise AlertError(f"duplicate rule name {rule.name!r}")
        seen.add(rule.name)
        rules.append(rule)
    return rules


def default_rules() -> List[AlertRule]:
    """The stock rule set ``--alerts default`` enables.

    Thresholds are deliberately loose — these are service-health
    defaults, not experiment tuning.
    """
    return [
        AlertRule(
            name="acceptance_low",
            kind="ratio_below",
            metric="exchange.accepted",
            divisor="exchange.attempted",
            threshold=0.05,
            min_samples=20,
            severity="warning",
        ),
        AlertRule(
            name="straggler_rate_high",
            kind="ratio_above",
            metric="emm.stragglers_detected",
            divisor="emm.cycles",
            threshold=0.5,
            min_samples=5,
            severity="warning",
        ),
        AlertRule(
            name="queue_depth_high",
            kind="above",
            metric="scheduler.queue_depth",
            threshold=256,
            for_s=300.0,
            severity="warning",
        ),
        AlertRule(
            name="checkpoint_stale",
            kind="stale_for",
            metric="checkpoint.saved",
            threshold=3600.0,
            severity="critical",
        ),
    ]


class _RuleState:
    """Evaluation state for one rule."""

    __slots__ = (
        "firing",
        "pending_since",
        "prev_value",
        "prev_t",
        "last_change_t",
        "last_value",
    )

    def __init__(self):
        self.firing = False
        self.pending_since: Optional[float] = None
        self.prev_value: Optional[float] = None
        self.prev_t: Optional[float] = None
        self.last_change_t: Optional[float] = None
        self.last_value: Optional[float] = None


class AlertManager:
    """Evaluates a rule set against a registry on demand.

    The EMM calls :meth:`evaluate` at cycle ends (synchronous pattern)
    and sweep completions (asynchronous pattern) — deterministic points
    on the virtual clock.  Transitions accumulate in :attr:`transitions`
    (the manifest's ``alert`` records) and are pushed to every sink
    registered with :meth:`add_sink`.
    """

    def __init__(self, rules: List[AlertRule], registry):
        self.rules = list(rules)
        self.registry = registry
        self.transitions: List[Dict] = []
        self._state = {r.name: _RuleState() for r in self.rules}
        self._sinks: List[Callable[[Dict], None]] = []
        # Pre-create the labelled gauges so an export shows 0 (healthy)
        # rather than omitting the series until the first firing.
        self._gauges = {
            r.name: registry.gauge(f"alerts.firing{{rule={r.name}}}")
            for r in self.rules
        }

    def add_sink(self, sink: Callable[[Dict], None]) -> None:
        """Register a callback invoked with each transition record."""
        self._sinks.append(sink)

    def firing(self) -> List[str]:
        """Names of rules currently firing."""
        return [r.name for r in self.rules if self._state[r.name].firing]

    # -- value resolution ----------------------------------------------------

    @staticmethod
    def _value(snapshot: Dict, metric: str) -> Optional[float]:
        for store in ("counters", "gauges"):
            if metric in snapshot.get(store, {}):
                return float(snapshot[store][metric])
        hist = snapshot.get("histograms", {}).get(metric)
        if hist is not None:
            return float(hist.get("count", 0))
        return None

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, now: float) -> List[Dict]:
        """Evaluate every rule at virtual time ``now``; returns new
        transition records (also appended to :attr:`transitions`)."""
        snapshot = self.registry.snapshot()
        new: List[Dict] = []
        for rule in self.rules:
            st = self._state[rule.name]
            condition, value = self._condition(rule, st, snapshot, now)
            if condition and not st.firing:
                if st.pending_since is None:
                    st.pending_since = now
                if now - st.pending_since >= rule.for_s:
                    st.firing = True
                    new.append(self._transition(rule, "firing", now, value))
            elif not condition:
                st.pending_since = None
                if st.firing:
                    st.firing = False
                    new.append(self._transition(rule, "resolved", now, value))
        for record in new:
            self.transitions.append(record)
            for sink in self._sinks:
                sink(record)
        return new

    def _condition(self, rule, st, snapshot, now):
        value = self._value(snapshot, rule.metric)
        # rate/staleness bookkeeping needs the raw value even when the
        # condition can't be judged yet
        if rule.kind == "rate_above":
            raw = value if value is not None else 0.0
            rate = None
            if st.prev_value is not None and now > st.prev_t:
                rate = (raw - st.prev_value) / (now - st.prev_t)
            st.prev_value, st.prev_t = raw, now
            if rate is None:
                return False, 0.0
            return rate > rule.threshold, rate
        if rule.kind == "stale_for":
            raw = value if value is not None else 0.0
            if st.last_value is None or raw != st.last_value:
                st.last_value = raw
                st.last_change_t = now
                return False, 0.0
            age = now - st.last_change_t
            return age > rule.threshold, age
        if value is None:
            return False, 0.0
        if rule.kind == "above":
            return value > rule.threshold, value
        if rule.kind == "below":
            return value < rule.threshold, value
        # ratio kinds
        divisor = self._value(snapshot, rule.divisor)
        if divisor is None or divisor <= 0 or divisor < rule.min_samples:
            return False, 0.0
        ratio = value / divisor
        if rule.kind == "ratio_above":
            return ratio > rule.threshold, ratio
        return ratio < rule.threshold, ratio

    def _transition(self, rule, state, now, value):
        self._gauges[rule.name].set(1.0 if state == "firing" else 0.0)
        return {
            "t": round(now, 6),
            "rule": rule.name,
            "state": state,
            "value": round(float(value), 6),
            "severity": rule.severity,
            "metric": rule.metric,
            "threshold": rule.threshold,
        }
