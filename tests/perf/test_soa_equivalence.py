"""Differential harness: the SoA fast path is byte-identical to the reference.

The structure-of-arrays engine (``repro.pilot.soa`` + ``repro.md.batch``)
is pure optimization — ``soa=True`` and ``soa=False`` must produce the
*same simulation*, bit for bit: replica trajectories and energies at full
float precision, exchange decisions, manifests (timelines, metrics,
spans), virtual-clock counters, and checkpoints.  This suite is the gate:
every hot-path change must keep it green on both engines.

Coverage matrix: {synchronous, asynchronous} x {clean, unit faults,
staging faults, straggler + watchdog speculation, checkpoint/resume},
a T x S x U Mode II run, plus hypothesis-driven random ladders, and
unit-level differential properties for the vectorized kernels (batched
Brownian integration with per-row salt and restraint columns vs
per-unit ``run_md``; the write-side mdin/mdinfo parse caches vs the
regex reference).  Call
counts pin that a T x S x U wave integrates as one group.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RepEx
from repro.core.config import (
    DimensionSpec,
    FailureSpec,
    PatternSpec,
    ResourceSpec,
    SimulationConfig,
    WatchdogSpec,
)
from repro.md.amber import AmberAdapter
from repro.md.batch import MDWork, run_md_batch
from repro.md.forcefield import UmbrellaRestraint
from repro.md.sandbox import Sandbox
from repro.md.toymd import IntegratorParams, MDParams, ThermodynamicState
from repro.obs.metrics import MetricsRegistry


def make_config(soa: bool, **over) -> SimulationConfig:
    defaults = dict(
        title="diff-soa",
        dimensions=[DimensionSpec("temperature", 4, 273.0, 373.0)],
        resource=ResourceSpec("supermic", cores=4),
        n_cycles=2,
        steps_per_cycle=6000,
        numeric_steps=8,
        sample_stride=4,
        seed=7,
        soa=soa,
    )
    defaults.update(over)
    return SimulationConfig(**defaults)


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
    results = []
    for soa in (False, True):
        repex = RepEx(make_config(soa, **over), registry=MetricsRegistry())
        result = repex.run()
        results.append((repex, result))
    return results


def assert_equivalent(pair) -> None:
    (ref_rx, ref), (soa_rx, soa) = pair
    assert fingerprint(soa) == fingerprint(ref)
    # the manifest carries timeline, metrics, spans, units, ladder —
    # JSONL equality covers the golden-trace surface in one shot
    # (config_hash excludes the soa knob by design)
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
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_soa_matches_reference(name):
    assert_equivalent(run_both(**SCENARIOS[name]))


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
        baseline = RepEx(make_config(False, n_cycles=4)).run()
        first = RepEx(
            make_config(True, n_cycles=4),
            checkpoint_every=2,
            checkpoint_dir=tmp_path,
            stop_after_cycle=2,
        )
        assert first.run().interrupted
        resumed = RepEx(
            make_config(True, n_cycles=4),
            resume_from=tmp_path / "latest.json",
        ).run()
        assert fingerprint(resumed) == fingerprint(baseline)

    def test_resume_can_switch_engines_mid_run(self, tmp_path):
        """A checkpoint written under one engine resumes under the other —
        the soa knob is excluded from the config hash for exactly this."""
        baseline = RepEx(make_config(True, n_cycles=4)).run()
        RepEx(
            make_config(True, n_cycles=4),
            checkpoint_every=2,
            checkpoint_dir=tmp_path,
            stop_after_cycle=2,
        ).run()
        resumed = RepEx(
            make_config(False, n_cycles=4),
            resume_from=tmp_path / "latest.json",
        ).run()
        assert fingerprint(resumed) == fingerprint(baseline)

    def test_checkpoint_files_are_identical_across_engines(self, tmp_path):
        trees = {}
        for soa in (False, True):
            out = tmp_path / ("soa" if soa else "ref")
            RepEx(
                make_config(soa, n_cycles=4),
                checkpoint_every=2,
                checkpoint_dir=out,
            ).run()
            trees[soa] = {
                p.name: p.read_bytes() for p in sorted(out.glob("*.json"))
            }
        assert trees[True] == trees[False]


class TestGoldenTraces:
    """The committed golden fixtures hold on BOTH engines."""

    @pytest.mark.parametrize("soa", [False, True], ids=["reference", "soa"])
    def test_sync_golden_timeline(self, soa):
        from pathlib import Path

        from tests.conftest import small_tremd_config

        fixture = (
            Path(__file__).resolve().parent.parent
            / "fixtures"
            / "golden_sync_timeline.json"
        )
        result = RepEx(small_tremd_config(soa=soa)).run()
        got = json.dumps(result.manifest.timeline, separators=(",", ":"))
        assert got == fixture.read_text()

    @pytest.mark.parametrize("soa", [False, True], ids=["reference", "soa"])
    def test_async_golden_timeline(self, soa):
        from pathlib import Path

        from tests.conftest import small_tremd_config

        fixture = (
            Path(__file__).resolve().parent.parent
            / "fixtures"
            / "golden_async_timeline.json"
        )
        result = RepEx(
            small_tremd_config(
                pattern=PatternSpec(kind="asynchronous", window_seconds=60.0),
                n_cycles=3,
                soa=soa,
            )
        ).run()
        got = json.dumps(result.manifest.timeline, separators=(",", ":"))
        assert got == fixture.read_text()


# -- unit-level kernels -------------------------------------------------------


def _write_units(adapter, sandbox, specs):
    """Write one mdin/inpcrd(/RST) trio per spec; returns the tags."""
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
        adapter.write_input(sandbox, tag, coords, state, params, seed)
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


def _assert_batch_matches_per_unit(specs):
    """run_md_batch == N sequential run_md calls: results AND output files."""
    ref_adapter, soa_adapter = AmberAdapter(), AmberAdapter()
    ref_box, soa_box = Sandbox(), Sandbox()
    tags = _write_units(ref_adapter, ref_box, specs)
    _write_units(soa_adapter, soa_box, specs)

    ref_results = [ref_adapter.run_md(ref_box, tag) for tag in tags]
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
        for suffix in ("mdinfo", "rst", "mdcrd"):
            name = f"{tag}.{suffix}"
            try:
                ref_text = ref_box.read_text(name)
            except Exception:
                continue
            assert soa_box.read_text(name) == ref_text


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
    wave: the batch must never re-fragment by salt or umbrella centre."""
    import repro.md.batch as batch

    counter = _CountingRamaGradient(monkeypatch)
    waves = []
    original = batch.run_md_batch

    def counted_batch(items):
        waves.append(len(items))
        return original(items)

    monkeypatch.setattr(batch, "run_md_batch", counted_batch)
    numeric_steps = 5
    config = make_config(
        True, **{**SCENARIOS["tsu-mode2"], "numeric_steps": numeric_steps}
    )
    result = RepEx(config).run()
    n_replicas = len(result.replicas)
    cores = config.resource.cores
    assert waves == [cores] * (config.n_cycles * n_replicas // cores)
    assert counter.calls == len(waves) * numeric_steps


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
    """The write-side parse cache returns exactly what the regex reference
    extracts from the same bytes."""
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
    adapter.write_input(
        sandbox, "t", np.array([0.3, -0.4]), state, params, seed
    )
    cached = adapter._parse_mdin(sandbox, "t")
    adapter.__dict__.pop("_mdin_cache", None)  # force the regex path
    reference = adapter._parse_mdin(sandbox, "t")
    c_params, c_state, c_seed = cached
    r_params, r_state, r_seed = reference
    assert c_seed == r_seed
    assert c_state == r_state
    assert (c_params.n_steps, c_params.sample_stride) == (
        r_params.n_steps,
        r_params.sample_stride,
    )
    assert c_params.integrator_params == r_params.integrator_params


def test_mdin_cache_rejects_foreign_bytes():
    """Editing the file after write_input must void the cache, not serve
    stale values."""
    adapter = AmberAdapter()
    sandbox = Sandbox()
    params = MDParams(n_steps=10, sample_stride=0)
    adapter.write_input(
        sandbox,
        "t",
        np.array([0.1, 0.2]),
        ThermodynamicState(temperature=300.0),
        params,
        seed=1,
    )
    text = sandbox.read_text("t.mdin")
    edited = text.replace("temp0 = 300.000000", "temp0 = 355.000000")
    assert edited != text
    sandbox.write_text("t.mdin", edited)
    _params, state, _seed = adapter._parse_mdin(sandbox, "t")
    assert state.temperature == 355.0
