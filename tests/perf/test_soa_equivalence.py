"""Differential harness: the SoA fast path is byte-identical to the reference.

The structure-of-arrays timeline shortcut (``repro.pilot.soa``) and the
batched MD integration (``repro.md.batch``, run once per submission group)
are pure optimizations.  Running every phase on the reference submit/wait
path (``try_fast_phase`` declined), or integrating every MD unit on the
scalar path (read one task -> ``ToyMD.run`` -> write its outputs, defined
here as the oracle, since ``run_md`` itself is a batch of one), must
produce the *same simulation*, bit for bit: replica trajectories and
energies at full float precision, exchange decisions, manifests
(timelines, metrics, spans), virtual-clock counters, and checkpoints.
This suite is the gate: every hot-path change must keep it green on both
engines.

Coverage matrix: {synchronous, asynchronous} x {clean, unit faults,
staging faults, straggler + watchdog speculation, checkpoint/resume},
a T x S x U Mode II run, Amber and NAMD, plus hypothesis-driven random
ladders, the same scenarios with scalar MD instead of the batch, and
unit-level differential properties for the vectorized kernels (batched
Brownian integration with per-row salt and restraint columns vs the
scalar path, for both adapters' file formats; the entries writes prime
in the adapter base's parse store vs the regex reference, both
engines).  Call counts pin that an MD phase integrates as one batch —
also when the SoA path declines it — that an asynchronous launch group
does too, and a T x S x U phase as one group.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.emm as emm
import repro.core.execution_modes as execution_modes
import repro.md.batch as batch
from repro.core import RepEx
from repro.core.amm import ApplicationManager
from repro.core.config import (
    DimensionSpec,
    EngineSpec,
    FailureSpec,
    PatternSpec,
    ResourceSpec,
    SimulationConfig,
    WatchdogSpec,
)
from repro.md.amber import AmberAdapter
from repro.md.batch import MDWork, run_md_batch
from repro.md.forcefield import UmbrellaRestraint
from repro.md.namd import NAMDAdapter
from repro.md.sandbox import Sandbox
from repro.md.toymd import (
    IntegratorParams,
    MDParams,
    MDResult,
    ThermodynamicState,
)
from repro.obs.metrics import MetricsRegistry

#: the two phase engines every scenario runs on
ENGINES = ("reference", "soa")


def make_config(**over) -> SimulationConfig:
    defaults = dict(
        title="diff-soa",
        dimensions=[DimensionSpec("temperature", 4, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=4),
        n_cycles=2,
        steps_per_cycle=6000,
        numeric_steps=8,
        sample_stride=4,
        seed=7,
    )
    defaults.update(over)
    return SimulationConfig(**defaults)


def decline_fast_phase(*_args):
    """``try_fast_phase`` stand-in: every phase takes the reference path."""
    return None


def run_on(engine: str, config: SimulationConfig, **kwargs):
    """Build and run ``config`` on one phase engine; returns (repex, result).

    The reference engine is picked by patching the fast path to decline
    every phase (a context, not a fixture, so hypothesis tests and tests
    comparing both engines can switch per run).
    """
    with pytest.MonkeyPatch.context() as mp:
        if engine == "reference":
            mp.setattr(execution_modes, "try_fast_phase", decline_fast_phase)
        repex = RepEx(config, **kwargs)
        return repex, repex.run()


def fingerprint(result) -> str:
    """Full-precision JSON of everything a run computed."""
    return json.dumps(
        {
            "t_end": result.t_end,
            "replicas": [
                {
                    "rid": rep.rid,
                    "coords": [float(c) for c in rep.coords],
                    "param_indices": rep.param_indices,
                    "status": rep.status.value,
                    "n_failures": rep.n_failures,
                    "history": [
                        {
                            "cycle": rec.cycle,
                            "param_indices": rec.param_indices,
                            "potential_energy": rec.potential_energy,
                            "partner": rec.partner,
                            "accepted": rec.accepted,
                            "failed": rec.failed,
                            "trajectory": (
                                rec.trajectory.tolist()
                                if rec.trajectory is not None
                                else None
                            ),
                        }
                        for rec in rep.history
                    ],
                }
                for rep in result.replicas
            ],
            "exchange": {
                name: [stats.attempted, stats.accepted]
                for name, stats in result.exchange_stats.items()
            },
            "accounting": [
                result.md_core_seconds,
                result.exchange_core_seconds,
                result.n_failures,
                result.n_relaunches,
            ],
        },
        sort_keys=True,
    )


def run_both(**over):
    """One reference run, one SoA run, instrumented; returns the pair."""
    return [
        run_on(engine, make_config(**over), registry=MetricsRegistry())
        for engine in ENGINES
    ]


def assert_equivalent(pair) -> None:
    (ref_rx, ref), (soa_rx, soa) = pair
    assert fingerprint(soa) == fingerprint(ref)
    # the manifest carries timeline, metrics, spans, units, ladder —
    # JSONL equality covers the golden-trace surface in one shot
    assert soa.manifest.to_jsonl() == ref.manifest.to_jsonl()
    assert soa_rx.session.clock.n_fired == ref_rx.session.clock.n_fired
    assert soa_rx.session.clock.peak_heap == ref_rx.session.clock.peak_heap


TSU_DIMENSIONS = [
    DimensionSpec("temperature", 2, 300.0, 340.0),
    DimensionSpec("salt", 2, 0.0, 1.0),
    DimensionSpec(
        "umbrella", 4, 0.0, 360.0, angle="phi", force_constant=0.0005
    ),
]

SCENARIOS = {
    "sync-clean": {},
    "sync-mode2": {"execution_mode": "II"},
    "sync-unit-faults": {
        "failure": FailureSpec(probability=0.4, policy="relaunch"),
        "n_cycles": 3,
    },
    "sync-staging-faults": {
        "failure": FailureSpec(
            policy="continue",
            staging_fault_probability=0.3,
            staging_max_retries=6,
        ),
    },
    "sync-straggler-watchdog": {
        "pattern": PatternSpec(kind="synchronous", barrier_deadline_s=300.0),
        "failure": FailureSpec(policy="continue", slow_nodes=[[0, 4.0]]),
        "watchdog": WatchdogSpec(
            enabled=True, deadline_factor=6.0, speculative=True
        ),
    },
    "async-clean": {
        "pattern": PatternSpec(kind="asynchronous", window_seconds=60.0),
        "n_cycles": 3,
    },
    "async-fifo": {
        "pattern": PatternSpec(kind="asynchronous", fifo_count=2),
        "resource": ResourceSpec("supermic", cores=2),
        "n_cycles": 3,
    },
    "async-unit-faults": {
        "pattern": PatternSpec(kind="asynchronous", window_seconds=60.0),
        "failure": FailureSpec(probability=0.3, policy="relaunch"),
        "n_cycles": 3,
    },
    "multidim-umbrella": {
        "dimensions": [
            DimensionSpec("temperature", 2, 290.0, 330.0),
            DimensionSpec(
                "umbrella", 3, 0.0, 360.0, angle="phi"
            ),
        ],
        "resource": ResourceSpec("supermic", cores=6),
        "n_cycles": 2,
    },
    # T x S x U in Mode II waves (fewer cores than replicas): every wave
    # mixes temperatures, salts and umbrella centres in one stacked batch
    "tsu-mode2": {
        "dimensions": TSU_DIMENSIONS,
        "resource": ResourceSpec("stampede", cores=4),
        "execution_mode": "II",
        "n_cycles": 3,
    },
    # NAMD's conf/colvars/log formats through the same batches
    "sync-namd-umbrella": {
        "engine": EngineSpec(name="namd"),
        "dimensions": [
            DimensionSpec("temperature", 2, 290.0, 330.0),
            DimensionSpec("umbrella", 2, 0.0, 360.0, angle="psi"),
        ],
    },
    "async-namd-unit-faults": {
        "engine": EngineSpec(name="namd"),
        "pattern": PatternSpec(kind="asynchronous", window_seconds=60.0),
        "failure": FailureSpec(probability=0.3, policy="relaunch"),
        "n_cycles": 3,
    },
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_soa_matches_reference(name):
    assert_equivalent(run_both(**SCENARIOS[name]))


def scalar_md(adapter, sandbox, tag):
    """The oracle: one task read, integrated by ``ToyMD.run`` with its own
    ``default_rng(seed)``, and written, exactly as a per-unit engine would."""
    [(params, state, seed, coords)] = adapter.read_tasks(sandbox, [tag])
    result = adapter.toymd.run(
        coords, state, params, np.random.default_rng(seed)
    )
    adapter.write_outputs(sandbox, [tag], [result])
    return result


def per_unit_md(items):
    """``run_md_batch`` stand-in: the scalar path, one task at a time."""
    return [scalar_md(item.adapter, item.sandbox, item.tag) for item in items]


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_phase_batch_matches_per_unit_md(name, monkeypatch):
    """Every MD submission group integrates as one batch.  A whole run must
    not differ by a byte from one whose batches integrate unit by unit on
    the scalar path, nor from one with no group batch at all (every unit
    runs its own ``work`` at its launch event)."""
    config = make_config(**SCENARIOS[name])

    def run():
        repex = RepEx(config, registry=MetricsRegistry())
        return repex, repex.run()

    batched = run()
    monkeypatch.setattr(batch, "run_md_batch", per_unit_md)
    assert_equivalent([run(), batched])
    for module in (execution_modes, emm):
        monkeypatch.setattr(module, "precompute_md", lambda _descs: None)
    assert_equivalent([run(), batched])


def test_declined_phases_still_batch_md(monkeypatch):
    """Unit faults make the SoA path decline every phase; each MD phase of
    two or more units (relaunch phases included) still integrates as one
    batch."""
    md_phases, batches, fast_hits = [], [], []
    original_run_phase = execution_modes.ModeI.run_phase
    original_batch = batch.run_md_batch
    original_fast = execution_modes.try_fast_phase

    def run_phase(mode, session, pilot, descriptions):
        n_md = sum(isinstance(d.batch, MDWork) for d in descriptions)
        if n_md:
            md_phases.append(n_md)
        return original_run_phase(mode, session, pilot, descriptions)

    def counted_batch(items):
        batches.append(len(items))
        return original_batch(items)

    def spied_fast(*args):
        units = original_fast(*args)
        fast_hits.append(units is not None)
        return units

    monkeypatch.setattr(execution_modes.ModeI, "run_phase", run_phase)
    monkeypatch.setattr(batch, "run_md_batch", counted_batch)
    monkeypatch.setattr(execution_modes, "try_fast_phase", spied_fast)
    config = make_config(
        dimensions=[DimensionSpec("temperature", 8, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=8),
        failure=FailureSpec(probability=0.4, policy="relaunch"),
        n_cycles=3,
    )
    result = RepEx(config).run()
    assert fast_hits and not any(fast_hits)
    assert result.n_relaunches > 0
    # groups of one integrate in their unit's own ``run_md``
    assert [n for n in batches if n >= 2] == [n for n in md_phases if n >= 2]
    assert len(batches) > config.n_cycles  # relaunch phases batch too


@pytest.mark.parametrize(
    "name", ["async-clean", "async-fifo", "async-namd-unit-faults"]
)
def test_async_launch_groups_integrate_as_one_batch(name, monkeypatch):
    """The asynchronous pattern integrates its initial launch, and the
    group it relaunches after each exchange sweep, in one ``run_md_batch``
    call each, in launch order."""
    batches, sweeps = [], []
    original_batch = batch.run_md_batch
    original_exchange = ApplicationManager.exchange_task

    def counted_batch(items):
        batches.append([item.tag for item in items])
        return original_batch(items)

    def spied_exchange(amm, replicas, *args, **kwargs):
        sweeps.append([(rep.rid, rep.cycle) for rep in replicas])
        return original_exchange(amm, replicas, *args, **kwargs)

    monkeypatch.setattr(batch, "run_md_batch", counted_batch)
    monkeypatch.setattr(ApplicationManager, "exchange_task", spied_exchange)
    config = make_config(**SCENARIOS[name])
    result = RepEx(config).run()
    n_replicas = len(result.replicas)
    assert batches[0] == [f"md_r{rid:05d}_c0000" for rid in range(n_replicas)]
    groups = [
        [f"md_r{rid:05d}_c{c:04d}" for rid, c in sweep if c < config.n_cycles]
        for sweep in sweeps
    ]
    assert any(len(group) >= 2 for group in groups)
    for group in groups:
        if len(group) >= 2:
            assert group in batches


@settings(max_examples=8, deadline=None)
@given(
    n_windows=st.integers(min_value=2, max_value=5),
    n_cycles=st.integers(min_value=1, max_value=3),
    numeric_steps=st.integers(min_value=1, max_value=10),
    sample_stride=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    mode=st.sampled_from(["I", "II"]),
    synchronous=st.booleans(),
)
def test_soa_matches_reference_on_random_ladders(
    n_windows, n_cycles, numeric_steps, sample_stride, seed, mode, synchronous
):
    over = dict(
        dimensions=[DimensionSpec("temperature", n_windows, 280.0, 380.0)],
        resource=ResourceSpec("supermic", cores=n_windows),
        n_cycles=n_cycles,
        numeric_steps=numeric_steps,
        sample_stride=sample_stride,
        seed=seed,
        execution_mode=mode,
    )
    if not synchronous:
        over["pattern"] = PatternSpec(kind="asynchronous", window_seconds=60.0)
    assert_equivalent(run_both(**over))


class TestCrashResume:
    """Checkpoint/resume crosses engines without a trace."""

    def test_soa_resume_matches_reference_baseline(self, tmp_path):
        _, baseline = run_on("reference", make_config(n_cycles=4))
        _, first = run_on(
            "soa",
            make_config(n_cycles=4),
            checkpoint_every=2,
            checkpoint_dir=tmp_path,
            stop_after_cycle=2,
        )
        assert first.interrupted
        _, resumed = run_on(
            "soa",
            make_config(n_cycles=4),
            resume_from=tmp_path / "latest.json",
        )
        assert fingerprint(resumed) == fingerprint(baseline)

    def test_resume_can_switch_engines_mid_run(self, tmp_path):
        """A checkpoint written under one engine resumes under the other."""
        _, baseline = run_on("soa", make_config(n_cycles=4))
        run_on(
            "soa",
            make_config(n_cycles=4),
            checkpoint_every=2,
            checkpoint_dir=tmp_path,
            stop_after_cycle=2,
        )
        _, resumed = run_on(
            "reference",
            make_config(n_cycles=4),
            resume_from=tmp_path / "latest.json",
        )
        assert fingerprint(resumed) == fingerprint(baseline)

    def test_checkpoint_files_are_identical_across_engines(self, tmp_path):
        trees = {}
        for engine in ENGINES:
            out = tmp_path / engine
            run_on(
                engine,
                make_config(n_cycles=4),
                checkpoint_every=2,
                checkpoint_dir=out,
            )
            # snapshots and the journal beside them
            trees[engine] = {
                p.name: p.read_bytes() for p in sorted(out.iterdir())
            }
        assert trees["soa"] == trees["reference"]


class TestGoldenTraces:
    """The committed golden fixtures hold on BOTH engines."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_sync_golden_timeline(self, engine):
        from pathlib import Path

        from tests.conftest import small_tremd_config

        fixture = (
            Path(__file__).resolve().parent.parent
            / "fixtures"
            / "golden_sync_timeline.json"
        )
        _, result = run_on(engine, small_tremd_config())
        got = json.dumps(result.manifest.timeline, separators=(",", ":"))
        assert got == fixture.read_text()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_async_golden_timeline(self, engine):
        from pathlib import Path

        from tests.conftest import small_tremd_config

        fixture = (
            Path(__file__).resolve().parent.parent
            / "fixtures"
            / "golden_async_timeline.json"
        )
        _, result = run_on(
            engine,
            small_tremd_config(
                pattern=PatternSpec(kind="asynchronous", window_seconds=60.0),
                n_cycles=3,
            ),
        )
        got = json.dumps(result.manifest.timeline, separators=(",", ":"))
        assert got == fixture.read_text()


# -- unit-level kernels -------------------------------------------------------


def _write_units(adapter, sandbox, specs):
    """Write one task's input files per spec; returns the tags."""
    tags = []
    for i, (temp, salt, n_steps, stride, seed, restraints) in enumerate(specs):
        tag = f"u{i:03d}"
        state = ThermodynamicState(
            temperature=temp, salt_molar=salt, restraints=tuple(restraints)
        )
        params = MDParams(
            n_steps=n_steps,
            sample_stride=stride,
            integrator_params=IntegratorParams(),
        )
        coords = np.array([-1.1 + 0.13 * i, -0.7 + 0.21 * i])
        adapter.write_inputs(sandbox, [tag], [coords], [state], params, [seed])
        tags.append(tag)
    return tags


temperatures = st.floats(min_value=250.0, max_value=450.0)
salts = st.floats(min_value=0.0, max_value=2.0)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


def restraints_on(angles):
    """Restraints on ``angles`` (in order) with drawn centres and ``k``."""
    return st.tuples(
        *(
            st.builds(
                UmbrellaRestraint,
                angle=st.just(angle),
                center_deg=st.floats(min_value=-180.0, max_value=180.0),
                k=st.floats(min_value=0.1, max_value=20.0),
            )
            for angle in angles
        )
    )


#: restraint signatures a batch can mix: none, phi, psi, phi+psi
SIGNATURES = [(), ("phi",), ("psi",), ("phi", "psi")]

unit_spec = st.tuples(
    temperatures,
    salts,
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0, max_value=3),
    seeds,
    st.lists(
        st.builds(
            UmbrellaRestraint,
            angle=st.sampled_from(["phi", "psi"]),
            center_deg=st.floats(min_value=-180.0, max_value=180.0),
            k=st.floats(min_value=0.1, max_value=20.0),
        ),
        max_size=2,
    ),
)


@st.composite
def shared_schedule_specs(draw):
    """Units with one ``n_steps``/stride, so they stack into few groups
    that mix salts, umbrella centres and force constants."""
    n_steps = draw(st.integers(min_value=1, max_value=12))
    stride = draw(st.integers(min_value=0, max_value=3))
    return [
        (t, c, n_steps, stride, seed, restraints)
        for t, c, seed, restraints in draw(
            st.lists(
                st.tuples(
                    temperatures,
                    salts,
                    seeds,
                    st.sampled_from(SIGNATURES).flatmap(restraints_on),
                ),
                min_size=1,
                max_size=8,
            )
        )
    ]


#: every output file each adapter writes per task
OUTPUT_SUFFIXES = {
    AmberAdapter: ("mdinfo", "rst", "mdcrd"),
    NAMDAdapter: ("log", "restart.coor", "dcd.txt"),
}


def _assert_batch_matches_per_unit(specs, adapter_cls=AmberAdapter):
    """run_md_batch == N scalar integrations: results AND output files."""
    ref_adapter, soa_adapter = adapter_cls(), adapter_cls()
    ref_box, soa_box = Sandbox(), Sandbox()
    tags = _write_units(ref_adapter, ref_box, specs)
    _write_units(soa_adapter, soa_box, specs)

    ref_results = [scalar_md(ref_adapter, ref_box, tag) for tag in tags]
    soa_results = run_md_batch(
        [MDWork(adapter=soa_adapter, sandbox=soa_box, tag=tag) for tag in tags]
    )

    for ref, soa in zip(ref_results, soa_results):
        assert soa.final_coords.tolist() == ref.final_coords.tolist()
        assert soa.trajectory.tolist() == ref.trajectory.tolist()
        assert soa.potential_energy == ref.potential_energy
        assert soa.torsional_energy == ref.torsional_energy
        assert soa.restraint_energy == ref.restraint_energy
        assert soa.bath_energy == ref.bath_energy
    for tag in tags:
        for suffix in OUTPUT_SUFFIXES[adapter_cls]:
            name = f"{tag}.{suffix}"
            assert soa_box.read_text(name) == ref_box.read_text(name)
    assert soa_box.listdir() == ref_box.listdir()


@settings(max_examples=20, deadline=None)
@given(specs=st.lists(unit_spec, min_size=1, max_size=6))
def test_batched_md_is_bit_identical_to_per_unit(specs):
    _assert_batch_matches_per_unit(specs)


@settings(max_examples=20, deadline=None)
@given(specs=shared_schedule_specs())
def test_stacked_hamiltonian_columns_are_bit_identical(specs):
    """Units differing only in temperature, salt, umbrella centres and
    force constants integrate as one group per restraint signature."""
    _assert_batch_matches_per_unit(specs)


@settings(max_examples=20, deadline=None)
@given(
    specs=st.one_of(st.lists(unit_spec, min_size=1, max_size=6),
                    shared_schedule_specs())
)
def test_namd_batched_md_is_bit_identical_to_per_unit(specs):
    """NAMD's conf/colvars/coor inputs and log/restart/dcd outputs go
    through the same batch (NAMD carries no salt)."""
    unsalted = [(t, 0.0, *rest) for t, _salt, *rest in specs]
    _assert_batch_matches_per_unit(unsalted, NAMDAdapter)


class _CountingRamaGradient:
    """Patches ``ForceField.rama_gradient`` to count its calls."""

    def __init__(self, monkeypatch):
        from repro.md.forcefield import ForceField

        self.calls = 0
        original = ForceField.rama_gradient

        def counted(ff, phi, psi):
            self.calls += 1
            return original(ff, phi, psi)

        monkeypatch.setattr(ForceField, "rama_gradient", counted)


def test_mixed_signatures_stack_into_one_group_each(monkeypatch):
    """Two units of each signature (none, phi, psi, phi+psi) at different
    salts, centres and ``k``: four groups, one gradient call per step each."""
    n_steps = 7
    specs = [
        (
            280.0 + 10 * i,
            0.25 * i,
            n_steps,
            2,
            1000 + i,
            [
                UmbrellaRestraint(angle, center_deg=-150.0 + 40 * i + 15 * j,
                                  k=0.5 + 0.1 * i)
                for j, angle in enumerate(SIGNATURES[i % 4])
            ],
        )
        for i in range(8)
    ]
    _assert_batch_matches_per_unit(specs)
    counter = _CountingRamaGradient(monkeypatch)
    adapter, box = AmberAdapter(), Sandbox()
    tags = _write_units(adapter, box, specs)
    run_md_batch([MDWork(adapter=adapter, sandbox=box, tag=t) for t in tags])
    assert counter.calls == len(SIGNATURES) * n_steps


def test_tsu_wave_is_one_gradient_call_per_step(monkeypatch):
    """A T x S x U Mode II run calls the force field once per MD step per
    phase: all waves of a phase share one batch, and the batch never
    re-fragments by salt or umbrella centre."""
    counter = _CountingRamaGradient(monkeypatch)
    phases = []
    original = batch.run_md_batch

    def counted_batch(items):
        phases.append(len(items))
        return original(items)

    monkeypatch.setattr(batch, "run_md_batch", counted_batch)
    numeric_steps = 5
    config = make_config(
        **{**SCENARIOS["tsu-mode2"], "numeric_steps": numeric_steps}
    )
    result = RepEx(config).run()
    assert config.resource.cores < len(result.replicas)  # several waves
    assert phases == [len(result.replicas)] * config.n_cycles
    assert counter.calls == len(phases) * numeric_steps


def _names_in_store(adapter):
    return sorted(name for _sid, name in adapter._parsed)


def _assert_same_task(cached, reference):
    c_params, c_state, c_seed, c_coords = cached
    r_params, r_state, r_seed, r_coords = reference
    assert c_seed == r_seed
    assert c_state == r_state
    assert (c_params.n_steps, c_params.sample_stride) == (
        r_params.n_steps,
        r_params.sample_stride,
    )
    assert c_params.integrator_params == r_params.integrator_params
    assert c_coords.tolist() == r_coords.tolist()


@settings(max_examples=25, deadline=None)
@given(
    temp=st.floats(min_value=200.0, max_value=500.0),
    salt=st.floats(min_value=0.0, max_value=2.0),
    n_steps=st.integers(min_value=1, max_value=50_000),
    stride=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    restraints=st.lists(
        st.builds(
            UmbrellaRestraint,
            angle=st.sampled_from(["phi", "psi"]),
            center_deg=st.floats(min_value=-360.0, max_value=360.0),
            k=st.floats(min_value=0.0001, max_value=500.0),
        ),
        max_size=3,
    ),
)
def test_mdin_write_cache_matches_regex_parse(
    temp, salt, n_steps, stride, seed, restraints
):
    """The entries an mdin write primes return exactly what the regex
    reference extracts from the same bytes, and the read that uses an
    entry removes it."""
    adapter = AmberAdapter()
    sandbox = Sandbox()
    state = ThermodynamicState(
        temperature=temp, salt_molar=salt, restraints=tuple(restraints)
    )
    params = MDParams(
        n_steps=n_steps,
        sample_stride=stride,
        integrator_params=IntegratorParams(),
    )
    adapter.write_inputs(
        sandbox, ["t"], [np.array([0.3, -0.4])], [state], params, [seed]
    )
    assert _names_in_store(adapter) == ["t.inpcrd", "t.mdin"]
    [cached] = adapter.read_tasks(sandbox, ["t"])
    assert not adapter._parsed  # so the second read is the regex path
    [reference] = adapter.read_tasks(sandbox, ["t"])
    _assert_same_task(cached, reference)


def test_mdin_cache_rejects_foreign_bytes():
    """Editing the file after it was written must void the cache, not
    serve stale values."""
    adapter = AmberAdapter()
    sandbox = Sandbox()
    params = MDParams(n_steps=10, sample_stride=0)
    adapter.write_inputs(
        sandbox,
        ["t"],
        [np.array([0.1, 0.2])],
        [ThermodynamicState(temperature=300.0)],
        params,
        [1],
    )
    text = sandbox.read_text("t.mdin")
    edited = text.replace("temp0 = 300.000000", "temp0 = 355.000000")
    assert edited != text
    sandbox.write_text("t.mdin", edited)
    [(_params, state, _seed, _coords)] = adapter.read_tasks(sandbox, ["t"])
    assert state.temperature == 355.0


@settings(max_examples=25, deadline=None)
@given(
    temp=st.floats(min_value=200.0, max_value=500.0),
    friction=st.floats(min_value=0.001, max_value=100.0),
    dt=st.floats(min_value=1e-5, max_value=0.05),
    n_steps=st.integers(min_value=1, max_value=50_000),
    stride=st.integers(min_value=0, max_value=9),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    restraints=st.lists(
        st.builds(
            UmbrellaRestraint,
            angle=st.sampled_from(["phi", "psi"]),
            center_deg=st.floats(min_value=-360.0, max_value=360.0),
            k=st.floats(min_value=0.0001, max_value=500.0),
        ),
        max_size=3,
    ),
    coords=st.lists(
        st.floats(min_value=-np.pi, max_value=np.pi), min_size=4, max_size=4
    ),
    energies=st.lists(
        st.floats(min_value=-1e6, max_value=1e6), min_size=3, max_size=3
    ),
)
def test_conf_write_cache_matches_regex_parse(
    temp, friction, dt, n_steps, stride, seed, restraints, coords, energies
):
    """NAMD's twin: the entries a conf (with its colvars), coor, log and
    restart write prime return exactly what the regex reference extracts
    from the same bytes, and each read pops what it uses."""
    adapter = NAMDAdapter()
    sandbox = Sandbox()
    state = ThermodynamicState(temperature=temp, restraints=tuple(restraints))
    params = MDParams(
        n_steps=n_steps,
        sample_stride=stride,
        integrator_params=IntegratorParams(dt=dt, friction=friction),
    )
    adapter.write_inputs(
        sandbox, ["t"], [np.array(coords[:2])], [state], params, [seed]
    )
    assert _names_in_store(adapter) == ["t.conf", "t.coor"]
    [cached] = adapter.read_tasks(sandbox, ["t"])
    assert not adapter._parsed  # so the second read is the regex path
    [reference] = adapter.read_tasks(sandbox, ["t"])
    _assert_same_task(cached, reference)

    pe, re_, be = energies
    result = MDResult(
        final_coords=np.array(coords[2:]),
        trajectory=np.empty((0, 2)),
        potential_energy=pe,
        torsional_energy=pe - re_ - be,
        restraint_energy=re_,
        bath_energy=be,
        temperature=temp,
        n_steps=n_steps,
    )
    adapter.write_outputs(sandbox, ["t"], [result])
    assert _names_in_store(adapter) == ["t.log", "t.restart.coor"]
    [(c_energies, c_coords)] = adapter.read_outputs(sandbox, ["t"])
    assert not adapter._parsed
    [(r_energies, r_coords)] = adapter.read_outputs(sandbox, ["t"])
    assert c_energies == r_energies
    assert c_coords.tolist() == r_coords.tolist()


def _namd_task(adapter, sandbox, restraints=()):
    adapter.write_inputs(
        sandbox,
        ["t"],
        [np.array([0.1, 0.2])],
        [ThermodynamicState(temperature=300.0, restraints=restraints)],
        MDParams(n_steps=10, sample_stride=0),
        [1],
    )


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("t.conf", "langevinTemp       300.000000", "langevinTemp       355.0"),
        ("t.colvars", "centers 30.00", "centers 45.00"),
        ("t.coor", "   0.1000000", "   0.7000000"),
    ],
)
def test_conf_cache_rejects_foreign_bytes(name, old, new):
    """A foreign edit of a conf, of the colvars file its parse also reads,
    or of a coordinate file voids the entry: the read parses the file."""
    adapter = NAMDAdapter()
    sandbox = Sandbox()
    _namd_task(adapter, sandbox, (UmbrellaRestraint("phi", 30.0, 0.02),))
    text = sandbox.read_text(name)
    assert old in text
    sandbox.write_text(name, text.replace(old, new))
    [(_params, state, _seed, coords)] = adapter.read_tasks(sandbox, ["t"])
    assert not adapter._parsed
    assert (state.temperature, state.restraints[0].center_deg) == {
        "t.conf": (355.0, 30.0),
        "t.colvars": (300.0, 45.0),
        "t.coor": (300.0, 30.0),
    }[name]
    assert coords[0] == (0.7 if name == "t.coor" else 0.1)


@pytest.mark.parametrize("adapter_cls", [AmberAdapter, NAMDAdapter])
def test_output_cache_rejects_foreign_bytes(adapter_cls):
    """An edited info file or restart file is parsed, not served from the
    entry its write primed."""
    adapter = adapter_cls()
    sandbox = Sandbox()
    result = MDResult(
        final_coords=np.array([0.5, -0.5]),
        trajectory=np.empty((0, 2)),
        potential_energy=-12.5,
        torsional_energy=-12.5,
        restraint_energy=0.0,
        bath_energy=0.0,
        temperature=300.0,
        n_steps=10,
    )
    adapter.write_outputs(sandbox, ["t"], [result])
    info, restart = adapter.info_file("t"), adapter.restart_file("t")
    for name, old, new in (
        (info, "-12.5000", "-99.2500"),
        (restart, "-0.5000000", "-0.2500000"),
    ):
        text = sandbox.read_text(name)
        assert old in text
        sandbox.write_text(name, text.replace(old, new))
    [(energies, coords)] = adapter.read_outputs(sandbox, ["t"])
    assert not adapter._parsed
    assert energies["potential_energy"] == -99.25
    assert coords.tolist() == [0.5, -0.25]


@pytest.mark.parametrize("adapter_cls", [AmberAdapter, NAMDAdapter])
def test_values_the_parser_would_not_recover_are_not_cached(adapter_cls):
    """Non-finite energies, and a coordinate line whose fields run
    together, prime no entry: the read takes the real parser."""
    adapter = adapter_cls()
    sandbox = Sandbox()
    result = MDResult(
        final_coords=np.array([0.5, -0.5]),
        trajectory=np.empty((0, 2)),
        potential_energy=float("nan"),
        torsional_energy=0.0,
        restraint_energy=0.0,
        bath_energy=0.0,
        temperature=300.0,
        n_steps=10,
    )
    adapter.write_outputs(sandbox, ["t"], [result])
    assert _names_in_store(adapter) == [adapter.restart_file("t")]
    adapter._write_coords(sandbox, "joined", (1.0, -123.0))
    assert (id(sandbox), "joined") not in adapter._parsed
    with pytest.raises(ValueError):
        adapter._read_coords(sandbox, "joined")


@pytest.mark.parametrize("adapter_cls", [AmberAdapter, NAMDAdapter])
def test_cached_coordinates_are_fresh_arrays(adapter_cls):
    """A hit hands out a new array, sharing memory with nothing the write
    was given: the fold stores it on the replica."""
    adapter = adapter_cls()
    sandbox = Sandbox()
    start = np.array([0.1, 0.2])
    adapter.write_inputs(
        sandbox, ["t"], [start], [ThermodynamicState()], MDParams(), [1]
    )
    [(_p, _s, _seed, coords)] = adapter.read_tasks(sandbox, ["t"])
    assert coords.tolist() == [0.1, 0.2]
    assert coords.dtype == np.float64
    assert not np.shares_memory(coords, start)
    coords[0] = 9.0
    assert start.tolist() == [0.1, 0.2]
