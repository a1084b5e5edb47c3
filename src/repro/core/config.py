"""Simulation configuration.

The paper's usability requirement: an REMD run "must be fully specified by
configuration files" whose definition "should be intuitive and should
include a minimal set of parameters".  :class:`SimulationConfig` is that
file — a nested dataclass with a JSON round-trip, validation with
actionable errors, and builders that turn declarative dimension specs into
live :class:`~repro.core.exchange.base.ExchangeDimension` objects.
"""

from __future__ import annotations

import functools
import json
import numbers
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Optional, Tuple

from repro.core.adaptive import AdaptiveSpec
from repro.core.exchange.base import ExchangeDimension
from repro.core.exchange.pairing import get_pair_selector
from repro.core.exchange.ph import PHDimension
from repro.core.exchange.salt import SaltDimension
from repro.core.exchange.temperature import TemperatureDimension
from repro.core.exchange.umbrella import UmbrellaDimension
from repro.md.engine import adapter_class
from repro.md.system import get_system
from repro.pilot.cluster import get_cluster


class ConfigError(ValueError):
    """Raised for invalid or inconsistent configuration."""


#: numeric field annotations -> (accepted number type, None allowed)
_NUMERIC_ANNOTATIONS = {
    "int": (numbers.Integral, False),
    "Optional[int]": (numbers.Integral, True),
    "float": (numbers.Real, False),
    "Optional[float]": (numbers.Real, True),
}


def _is_number(value, kind: type = numbers.Real) -> bool:
    # bool is an Integral to Python, never a number in a config; plain
    # JSON numbers skip the (slow) ABC instance check
    t = type(value)
    if t is int or (t is float and kind is numbers.Real):
        return True
    return t is not bool and isinstance(value, kind)


@functools.lru_cache(maxsize=None)
def _numeric_fields(cls: type) -> Tuple[Tuple[str, str, type, bool], ...]:
    return tuple(
        (f.name, f.type, *_NUMERIC_ANNOTATIONS[f.type])
        for f in fields(cls)
        if f.type in _NUMERIC_ANNOTATIONS
    )


def _check_numbers(spec, prefix: str = "") -> None:
    """Raise :class:`ConfigError` for a numeric field holding a non-number.

    JSON configs arrive untyped: ``"n_cycles": "3"`` or ``"n_windows": 2.5``
    must fail validation, not a comparison inside it or a run later on.
    """
    for name, annotation, kind, optional in _numeric_fields(type(spec)):
        value = getattr(spec, name)
        if value is None and optional:
            continue
        if not _is_number(value, kind):
            raise ConfigError(
                f"{prefix}{name} must be {annotation}, got {value!r}"
            )


@dataclass
class DimensionSpec:
    """Declarative description of one exchange dimension.

    ``kind`` selects the exchange type; ``min_value``/``max_value`` bound
    the ladder; spacing defaults to the conventional choice per kind
    (geometric for temperature, uniform-periodic for umbrella windows,
    linear for salt and pH).
    """

    kind: str  # "temperature" | "umbrella" | "salt" | "ph"
    n_windows: int
    min_value: float
    max_value: float
    #: umbrella only: which torsion the windows restrain
    angle: str = "phi"
    #: umbrella only: harmonic force constant, kcal/mol/deg^2
    force_constant: float = 0.02
    #: ph only: the titratable site's pKa
    pka: float = 6.5
    #: salt only: compute single-point energies inside the exchange task
    #: instead of spawning extra Amber group tasks (the paper's proposed
    #: future-work optimization; see the salt-internal ablation benchmark).
    #: Required unless pair_selector is "neighbor": the group tasks
    #: evaluate each replica only at its own and neighbouring windows
    internal_sp: bool = False
    #: override the auto-generated dimension name
    name: Optional[str] = None

    _KINDS = ("temperature", "umbrella", "salt", "ph")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ConfigError(
                f"dimension kind must be one of {self._KINDS}, got {self.kind!r}"
            )
        _check_numbers(self, prefix=f"{self.kind}: ")
        if self.n_windows < 1:
            raise ConfigError(
                f"{self.kind}: n_windows must be >= 1, got {self.n_windows}"
            )
        if self.max_value < self.min_value:
            raise ConfigError(
                f"{self.kind}: max_value ({self.max_value}) < "
                f"min_value ({self.min_value})"
            )
        if self.kind == "temperature" and self.min_value <= 0:
            raise ConfigError(
                f"temperature: min_value must be > 0 K, got {self.min_value}"
            )
        if self.kind == "salt" and self.min_value < 0:
            raise ConfigError(
                f"salt: min_value must be >= 0 M, got {self.min_value}"
            )
        if self.kind == "umbrella":
            if self.angle not in ("phi", "psi"):
                raise ConfigError(
                    f"umbrella: angle must be 'phi' or 'psi', "
                    f"got {self.angle!r}"
                )
            if self.force_constant < 0:
                raise ConfigError(
                    f"umbrella: force_constant must be >= 0, "
                    f"got {self.force_constant}"
                )

    def build(self) -> ExchangeDimension:
        """Instantiate the live exchange dimension."""
        if self.kind == "temperature":
            return TemperatureDimension.geometric(
                self.min_value,
                self.max_value,
                self.n_windows,
                name=self.name or "temperature",
            )
        if self.kind == "umbrella":
            return UmbrellaDimension.uniform(
                self.n_windows,
                lo=self.min_value,
                hi=self.max_value,
                angle=self.angle,
                force_constant=self.force_constant,
                name=self.name,
            )
        if self.kind == "salt":
            return SaltDimension.linear(
                self.min_value,
                self.max_value,
                self.n_windows,
                name=self.name or "salt",
                internal=self.internal_sp,
            )
        if self.kind == "ph":
            dim = PHDimension.linear(
                self.min_value, self.max_value, self.n_windows, pka=self.pka
            )
            if self.name:
                dim.name = self.name
            return dim
        raise ConfigError(f"unhandled dimension kind {self.kind!r}")


@dataclass
class EngineSpec:
    """Which MD engine (adapter) runs the replicas."""

    name: str = "amber"
    #: executable override; None picks serial/parallel by cores_per_replica
    executable: Optional[str] = None
    system: str = "ala2"


@dataclass
class ResourceSpec:
    """Target cluster and pilot size."""

    name: str = "supermic"
    cores: int = 64
    #: GPUs requested with the pilot (for pmemd.cuda replicas)
    gpus: int = 0

    def __post_init__(self):
        _check_numbers(self)
        if self.cores <= 0:
            raise ConfigError(f"resource cores must be > 0, got {self.cores}")
        if self.gpus < 0:
            raise ConfigError(f"resource gpus must be >= 0, got {self.gpus}")


@dataclass
class PatternSpec:
    """RE pattern: synchronous barrier or asynchronous criterion."""

    kind: str = "synchronous"  # or "asynchronous"
    #: async only: virtual-time window between exchange sweeps (seconds)
    window_seconds: float = 60.0
    #: async only: alternatively trigger when this many replicas are ready
    fifo_count: Optional[int] = None
    #: sync only: bound the MD barrier — when this many virtual seconds
    #: pass after the cycle's MD submission, the exchange sweep proceeds
    #: over the replicas that have arrived and late arrivals skip that
    #: exchange window (bounded staleness; None = rigid global barrier)
    barrier_deadline_s: Optional[float] = None

    def __post_init__(self):
        if self.kind not in ("synchronous", "asynchronous"):
            raise ConfigError(
                "pattern kind must be 'synchronous' or 'asynchronous', "
                f"got {self.kind!r}"
            )
        _check_numbers(self)
        if self.window_seconds <= 0:
            raise ConfigError(
                f"window_seconds must be > 0, got {self.window_seconds}"
            )
        if self.fifo_count is not None and self.fifo_count < 2:
            raise ConfigError(
                f"fifo_count must be >= 2, got {self.fifo_count}"
            )
        if self.barrier_deadline_s is not None:
            if self.barrier_deadline_s <= 0:
                raise ConfigError(
                    f"barrier_deadline_s must be > 0, "
                    f"got {self.barrier_deadline_s}"
                )
            if self.kind != "synchronous":
                raise ConfigError(
                    "barrier_deadline_s applies to the synchronous barrier "
                    "only (the asynchronous pattern has no global barrier)"
                )


@dataclass
class FailureSpec:
    """Failure injection and the RepEx recovery policy.

    ``probability``/``policy``/``max_relaunches`` configure the original
    per-unit Bernoulli injector; the remaining fields configure the
    correlated fault domains of docs/FAULTS.md (node crashes, pilot
    preemption, transient staging faults).
    """

    probability: float = 0.0
    policy: str = "continue"  # "continue" | "relaunch" | "retire"
    max_relaunches: int = 3
    #: retire policy: relaunches granted before the replica is retired
    retire_after: int = 3
    #: expected node crashes per node-hour (Poisson arrivals); 0 = off
    node_crash_rate: float = 0.0
    #: explicit crashes as [seconds_after_pilot_activation, node_index]
    node_crashes: List[List[float]] = field(default_factory=list)
    #: preempt the pilot this long after activation (None = never)
    preempt_after_s: Optional[float] = None
    #: preempted pilots re-enter the batch queue instead of failing
    requeue_on_preempt: bool = True
    #: warn the run this many seconds before the preemption: the async
    #: pattern quiesces and checkpoints on the warning (0 = no warning)
    preempt_warning_s: float = 0.0
    #: chance each staging operation fails transiently; 0 = off
    staging_fault_probability: float = 0.0
    #: staging retries after the first attempt before the unit fails
    staging_max_retries: int = 4
    #: base of the exponential staging backoff (seconds)
    staging_backoff_s: float = 0.5
    #: gray failures — explicit slow nodes as [node_index, factor] pairs:
    #: every execution and staging operation placed on that node runs
    #: ``factor`` times longer (factor > 1), silently
    slow_nodes: List[List[float]] = field(default_factory=list)
    #: chance each MD execution hangs forever (never completes on its
    #: own); detection/recovery requires the watchdog
    hang_probability: float = 0.0

    def __post_init__(self):
        _check_numbers(self)
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigError(
                f"failure probability must be in [0,1], got {self.probability}"
            )
        if self.policy not in ("continue", "relaunch", "retire"):
            raise ConfigError(
                f"failure policy must be 'continue', 'relaunch' or "
                f"'retire', got {self.policy!r}"
            )
        if self.max_relaunches < 0:
            raise ConfigError(
                f"max_relaunches must be >= 0, got {self.max_relaunches}"
            )
        if self.retire_after < 0:
            raise ConfigError(
                f"retire_after must be >= 0, got {self.retire_after}"
            )
        if self.node_crash_rate < 0:
            raise ConfigError(
                f"node_crash_rate must be >= 0, got {self.node_crash_rate}"
            )
        for entry in self.node_crashes:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not all(map(_is_number, entry))
                or entry[0] < 0
                or entry[1] < 0
            ):
                raise ConfigError(
                    "node_crashes entries must be [t >= 0, node >= 0], "
                    f"got {entry!r}"
                )
        if self.preempt_after_s is not None and self.preempt_after_s <= 0:
            raise ConfigError(
                f"preempt_after_s must be > 0, got {self.preempt_after_s}"
            )
        if self.preempt_warning_s < 0:
            raise ConfigError(
                f"preempt_warning_s must be >= 0, got {self.preempt_warning_s}"
            )
        if self.preempt_warning_s > 0 and self.preempt_after_s is None:
            raise ConfigError(
                "preempt_warning_s requires preempt_after_s to be set"
            )
        if not (0.0 <= self.staging_fault_probability <= 1.0):
            raise ConfigError(
                "staging_fault_probability must be in [0,1], got "
                f"{self.staging_fault_probability}"
            )
        if self.staging_max_retries < 0:
            raise ConfigError(
                f"staging_max_retries must be >= 0, "
                f"got {self.staging_max_retries}"
            )
        if self.staging_backoff_s <= 0:
            raise ConfigError(
                f"staging_backoff_s must be > 0, got {self.staging_backoff_s}"
            )
        for entry in self.slow_nodes:
            if (
                not isinstance(entry, (list, tuple))
                or len(entry) != 2
                or not all(map(_is_number, entry))
                or entry[0] < 0
                or entry[1] <= 1
            ):
                raise ConfigError(
                    "slow_nodes entries must be [node >= 0, factor > 1], "
                    f"got {entry!r}"
                )
        if not (0.0 <= self.hang_probability <= 1.0):
            raise ConfigError(
                f"hang_probability must be in [0,1], got "
                f"{self.hang_probability}"
            )

    @property
    def wants_gray_faults(self) -> bool:
        """True when any slowdown or hang injection is enabled."""
        return bool(self.slow_nodes) or self.hang_probability > 0

    @property
    def wants_fault_domain(self) -> bool:
        """True when any correlated fault domain is enabled."""
        return (
            self.node_crash_rate > 0
            or bool(self.node_crashes)
            or self.preempt_after_s is not None
            or self.staging_fault_probability > 0
            or self.wants_gray_faults
        )


@dataclass
class WatchdogSpec:
    """The gray-failure watchdog: virtual-time supervision of executions.

    The watchdog runs on the DES clock inside the agent scheduler.  It
    arms a per-unit deadline at ``deadline_factor`` times the perf
    model's expected runtime (hung or pathologically slow attempts are
    killed and relaunched with exponential backoff, bounded by
    ``max_retries``), and on a ``check_interval_s`` heartbeat scores
    still-running units against the cohort's running median of completed
    execution times — tail stragglers optionally get a *speculative*
    duplicate launch whose first finisher wins (exactly-once completion;
    the loser is cancelled).  Everything it does is observable as
    ``watchdog.*`` counters and fault-domain events.
    """

    enabled: bool = False
    #: deadline = deadline_factor x expected runtime (perf model)
    deadline_factor: float = 3.0
    #: heartbeat cadence of the straggler scan (virtual seconds)
    check_interval_s: float = 30.0
    #: deadline-triggered kill-and-relaunch attempts per unit before the
    #: unit fails for good (and the EMM failure policy takes over)
    max_retries: int = 2
    #: exponential relaunch backoff: base, cap and jitter fraction
    backoff_base_s: float = 5.0
    backoff_cap_s: float = 120.0
    backoff_jitter: float = 0.25
    #: launch a speculative duplicate for detected stragglers
    speculative: bool = False

    def __post_init__(self):
        _check_numbers(self)
        if self.deadline_factor <= 1:
            raise ConfigError(
                f"deadline_factor must be > 1, got {self.deadline_factor}"
            )
        if self.check_interval_s <= 0:
            raise ConfigError(
                f"check_interval_s must be > 0, got {self.check_interval_s}"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base_s <= 0:
            raise ConfigError(
                f"backoff_base_s must be > 0, got {self.backoff_base_s}"
            )
        if self.backoff_cap_s < self.backoff_base_s:
            raise ConfigError(
                f"backoff_cap_s must be >= backoff_base_s, "
                f"got {self.backoff_cap_s}"
            )
        if not (0.0 <= self.backoff_jitter <= 1.0):
            raise ConfigError(
                f"backoff_jitter must be in [0,1], got {self.backoff_jitter}"
            )
        if self.speculative and not self.enabled:
            raise ConfigError(
                "watchdog speculative launches require enabled=true"
            )


@dataclass
class SimulationConfig:
    """Complete specification of one REMD simulation."""

    title: str = "remd"
    engine: EngineSpec = field(default_factory=EngineSpec)
    resource: ResourceSpec = field(default_factory=ResourceSpec)
    dimensions: List[DimensionSpec] = field(default_factory=list)
    pattern: PatternSpec = field(default_factory=PatternSpec)
    failure: FailureSpec = field(default_factory=FailureSpec)
    watchdog: WatchdogSpec = field(default_factory=WatchdogSpec)
    adaptive: AdaptiveSpec = field(default_factory=AdaptiveSpec)
    #: MD steps *billed* per cycle (what the paper's timings are based on)
    steps_per_cycle: int = 6000
    #: MD steps actually *integrated* per cycle; None = steps_per_cycle.
    #: Scaling benchmarks reduce this to keep wallclock sane while the
    #: virtual clock still charges steps_per_cycle (DESIGN.md decision 1).
    numeric_steps: Optional[int] = None
    n_cycles: int = 4
    cores_per_replica: int = 1
    #: GPUs per replica (0 = CPU only); with the Amber engine this selects
    #: the pmemd.cuda executable unless one is set explicitly
    gpus_per_replica: int = 0
    #: "I", "II" or "auto" (pick by comparing workload to pilot size)
    execution_mode: str = "auto"
    #: "neighbor" (DEO), "random" or "gibbs"; the latter two need
    #: internal_sp on a salt dimension
    pair_selector: str = "neighbor"
    sample_stride: int = 50
    seed: int = 2016
    #: skip the exchange phase entirely (the paper's "No exchange" baseline)
    exchange_enabled: bool = True
    #: sigma of a log-normal speed multiplier, drawn afresh for every MD
    #: task from its replica's own stream (relaunches included), modeling
    #: heterogeneous ensembles ("quantum mechanics calculations usually
    #: are slower than classical molecular dynamics", paper Sec. 2.1);
    #: 0 disables heterogeneity
    replica_heterogeneity: float = 0.0
    #: pre-production equilibration: minimization + this many MD steps per
    #: replica before cycle 0 (the paper equilibrates every replica >1 ns)
    equilibration_steps: int = 0

    def __post_init__(self):
        if not self.dimensions:
            raise ConfigError("at least one exchange dimension is required")
        _check_numbers(self)
        _check_numbers(self.adaptive)
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.steps_per_cycle < 1:
            raise ConfigError(
                f"steps_per_cycle must be >= 1, got {self.steps_per_cycle}"
            )
        if self.numeric_steps is not None and self.numeric_steps < 1:
            raise ConfigError(
                f"numeric_steps must be >= 1, got {self.numeric_steps}"
            )
        if self.n_cycles < 1:
            raise ConfigError(f"n_cycles must be >= 1, got {self.n_cycles}")
        if self.cores_per_replica < 1:
            raise ConfigError(
                f"cores_per_replica must be >= 1, got {self.cores_per_replica}"
            )
        if self.gpus_per_replica < 0:
            raise ConfigError(
                f"gpus_per_replica must be >= 0, got {self.gpus_per_replica}"
            )
        if self.cores_per_replica > self.resource.cores:
            raise ConfigError(
                f"cores_per_replica ({self.cores_per_replica}) exceeds the "
                f"pilot's {self.resource.cores} cores; no replica could ever "
                "be placed"
            )
        if self.replica_heterogeneity < 0:
            raise ConfigError(
                "replica_heterogeneity must be >= 0, got "
                f"{self.replica_heterogeneity}"
            )
        if self.equilibration_steps < 0:
            raise ConfigError(
                "equilibration_steps must be >= 0, got "
                f"{self.equilibration_steps}"
            )
        if (
            self.gpus_per_replica > 0
            and self.resource.gpus < self.gpus_per_replica
        ):
            raise ConfigError(
                f"replicas need {self.gpus_per_replica} GPU(s) but the "
                f"pilot requests only {self.resource.gpus}"
            )
        if self.execution_mode not in ("I", "II", "auto"):
            raise ConfigError(
                f"execution_mode must be 'I', 'II' or 'auto', "
                f"got {self.execution_mode!r}"
            )
        if self.sample_stride < 0:
            raise ConfigError(
                f"sample_stride must be >= 0, got {self.sample_stride}"
            )
        if self.failure.hang_probability > 0 and not self.watchdog.enabled:
            raise ConfigError(
                "hang_probability > 0 requires watchdog.enabled: a hung "
                "unit never completes on its own, so without the watchdog "
                "the run would deadlock"
            )
        if (
            self.pattern.barrier_deadline_s is not None
            and self.effective_mode != "I"
        ):
            raise ConfigError(
                "barrier_deadline_s requires execution mode I (mode II "
                "already serializes the cycle into waves with their own "
                "internal barriers)"
            )
        if self.pattern.kind == "asynchronous" and any(
            d.kind == "salt" and not d.internal_sp for d in self.dimensions
        ):
            raise ConfigError(
                "the asynchronous pattern runs no salt single-point tasks; "
                "use internal_sp or the synchronous pattern"
            )
        if self.pair_selector != "neighbor" and any(
            d.kind == "salt" and not d.internal_sp for d in self.dimensions
        ):
            raise ConfigError(
                "salt single-point tasks evaluate each replica only at its "
                "own and neighbouring windows, so pair_selector "
                f"{self.pair_selector!r} would pair replicas they leave "
                "without energies; use internal_sp or pair_selector 'neighbor'"
            )
        if self.adaptive.enabled and self.pattern.kind != "asynchronous":
            raise ConfigError(
                "adaptive sampling requires the asynchronous pattern "
                "(paper Sec. 2.1: 'obviously asynchronous algorithms are "
                "needed in such cases')"
            )
        # Mode I requires the pilot to actually fit all replicas at once.
        if self.execution_mode == "I" and (
            self.n_replicas * self.cores_per_replica > self.resource.cores
        ):
            raise ConfigError(
                f"execution mode I needs {self.n_replicas} x "
                f"{self.cores_per_replica} = "
                f"{self.n_replicas * self.cores_per_replica} cores but the "
                f"pilot has only {self.resource.cores}; use mode II or "
                "'auto'"
            )

    # -- derived -------------------------------------------------------------

    @property
    def n_replicas(self) -> int:
        """Full-lattice replica count (product of window counts)."""
        n = 1
        for d in self.dimensions:
            n *= d.n_windows
        return n

    @property
    def effective_numeric_steps(self) -> int:
        """Steps actually integrated per MD phase."""
        return (
            self.numeric_steps
            if self.numeric_steps is not None
            else self.steps_per_cycle
        )

    @property
    def effective_mode(self) -> str:
        """Resolve 'auto' to 'I' or 'II' by workload vs pilot size."""
        if self.execution_mode != "auto":
            return self.execution_mode
        workload = self.n_replicas * self.cores_per_replica
        return "I" if workload <= self.resource.cores else "II"

    @property
    def type_string(self) -> str:
        """Exchange-order code string, e.g. "TSU"."""
        codes = {"temperature": "T", "umbrella": "U", "salt": "S", "ph": "H"}
        return "".join(codes[d.kind] for d in self.dimensions)

    # -- serialization ---------------------------------------------------------

    def to_dict(self) -> Dict:
        """Plain-dict form (JSON-serializable)."""
        return asdict(self)

    def to_json(self, **kwargs) -> str:
        """JSON text form."""
        return json.dumps(self.to_dict(), indent=2, **kwargs)

    @classmethod
    def from_dict(cls, data: Dict) -> "SimulationConfig":
        """Build and validate a config from a plain dict.

        Unknown keys raise :class:`ConfigError` (typos should not silently
        disappear).
        """
        data = dict(data)

        def pop_sub(key, sub_cls, default):
            raw = data.pop(key, None)
            if raw is None:
                return default()
            if not isinstance(raw, dict):
                raise ConfigError(f"{key!r} must be a mapping")
            try:
                return sub_cls(**raw)
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad {key!r} section: {exc}") from None

        engine = pop_sub("engine", EngineSpec, EngineSpec)
        resource = pop_sub("resource", ResourceSpec, ResourceSpec)
        pattern = pop_sub("pattern", PatternSpec, PatternSpec)
        failure = pop_sub("failure", FailureSpec, FailureSpec)
        watchdog = pop_sub("watchdog", WatchdogSpec, WatchdogSpec)
        adaptive = pop_sub("adaptive", AdaptiveSpec, AdaptiveSpec)

        raw_dims = data.pop("dimensions", [])
        if not isinstance(raw_dims, list):
            raise ConfigError("'dimensions' must be a list")
        dims = []
        for raw in raw_dims:
            if not isinstance(raw, dict):
                raise ConfigError("each dimension must be a mapping")
            try:
                dims.append(DimensionSpec(**raw))
            except TypeError as exc:
                raise ConfigError(f"bad dimension: {exc}") from None

        known = {
            "title",
            "steps_per_cycle",
            "numeric_steps",
            "n_cycles",
            "cores_per_replica",
            "gpus_per_replica",
            "execution_mode",
            "pair_selector",
            "sample_stride",
            "seed",
            "exchange_enabled",
            "replica_heterogeneity",
            "equilibration_steps",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")

        config = cls(
            engine=engine,
            resource=resource,
            pattern=pattern,
            failure=failure,
            watchdog=watchdog,
            adaptive=adaptive,
            dimensions=dims,
            **{k: v for k, v in data.items() if k in known},
        )
        _check_launchable(config)
        return config

    @classmethod
    def from_json(cls, text: str) -> "SimulationConfig":
        """Parse a JSON configuration file's contents."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise ConfigError("top-level JSON value must be an object")
        return cls.from_dict(data)

    def build_dimensions(self) -> List[ExchangeDimension]:
        """Instantiate all exchange dimensions, ensuring unique names."""
        dims = [d.build() for d in self.dimensions]
        seen: Dict[str, int] = {}
        for i, dim in enumerate(dims):
            if dim.name in seen:
                # auto-disambiguate, e.g. two umbrella dims on one angle
                dim.name = f"{dim.name}_{i}"
            seen[dim.name] = i
        return dims


def _check_launchable(config: SimulationConfig) -> None:
    """Parse-time checks of what a run otherwise resolves only at launch.

    Registry names (engine, system, cluster, pair selector), what the
    engine's formats can express and the pilot's fit on the named cluster
    would surface as a ``KeyError``, ``EngineError`` or ``ValueError`` deep
    inside ``repro run`` after ``repro check`` passed.  Programmatic
    construction keeps deferring them to
    :class:`~repro.core.framework.RepEx`, which raises the lookup errors.
    """
    try:
        engine = adapter_class(config.engine.name)
        get_system(config.engine.system)
        get_pair_selector(config.pair_selector)
        cluster = get_cluster(config.resource.name)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None
    if not engine.supports_salt and any(
        d.kind == "salt" for d in config.dimensions
    ):
        raise ConfigError(
            f"MD engine {engine.name!r} has no salt-concentration input"
        )
    resource = config.resource
    if resource.cores > cluster.total_cores:
        raise ConfigError(
            f"resource: {resource.cores} cores requested but {cluster.name} "
            f"only has {cluster.total_cores}"
        )
    if resource.gpus > cluster.total_gpus:
        raise ConfigError(
            f"resource: {resource.gpus} GPUs requested but {cluster.name} "
            f"only has {cluster.total_gpus}"
        )
