"""Property-based tests across smaller components."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.adaptive import EnergyPlateauCriterion
from repro.core.replica import CycleRecord, Replica
from repro.md.perfmodel import deterministic_model
from repro.md.system import alanine_dipeptide


def replica_with_energies(energies):
    rep = Replica(rid=0, coords=np.zeros(2), param_indices={"t": 0})
    for c, e in enumerate(energies):
        rep.history.append(
            CycleRecord(c, "t", {"t": 0}, float(e), 0.0)
        )
    return rep


energy_lists = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
    min_size=4,
    max_size=20,
)


@given(
    energies=energy_lists,
    tol_lo=st.floats(min_value=0.01, max_value=10.0),
    factor=st.floats(min_value=1.0, max_value=10.0),
)
@settings(max_examples=150)
def test_plateau_criterion_monotone_in_tolerance(energies, tol_lo, factor):
    """If a replica terminates at tolerance t, it terminates at t' >= t."""
    rep = replica_with_energies(energies)
    lo = EnergyPlateauCriterion(window=3, tolerance=tol_lo)
    hi = EnergyPlateauCriterion(window=3, tolerance=tol_lo * factor)
    if lo.should_terminate(rep):
        assert hi.should_terminate(rep)


@given(
    energies=energy_lists,
    window=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=100)
def test_plateau_criterion_never_crashes(energies, window):
    rep = replica_with_energies(energies)
    crit = EnergyPlateauCriterion(window=window, tolerance=1.0)
    assert crit.should_terminate(rep) in (True, False)


@given(
    steps_a=st.integers(min_value=1, max_value=50000),
    steps_b=st.integers(min_value=1, max_value=50000),
    executable=st.sampled_from(["sander", "namd2", "pmemd.cuda"]),
)
@settings(max_examples=150)
def test_md_duration_monotone_in_steps(steps_a, steps_b, executable):
    perf = deterministic_model()
    system = alanine_dipeptide()
    lo, hi = sorted((steps_a, steps_b))
    t_lo = perf.md_duration(executable, system, lo, cores=1)
    t_hi = perf.md_duration(executable, system, hi, cores=1)
    assert t_lo > 0
    assert t_hi >= t_lo


@given(
    cores_a=st.integers(min_value=2, max_value=128),
    cores_b=st.integers(min_value=2, max_value=128),
)
@settings(max_examples=100)
def test_pmemd_duration_monotone_in_cores_within_scaling_regime(
    cores_a, cores_b
):
    """For the large (64366-atom) system, more cores helps up to ~128
    (its turnover point sits near 180 cores).  Beyond the turnover the
    model realistically gets slower — over-decomposition — which Fig. 12's
    'difficult to gain significant performance improvements' captures."""
    from repro.md.system import alanine_dipeptide_large

    perf = deterministic_model()
    system = alanine_dipeptide_large()
    lo, hi = sorted((cores_a, cores_b))
    t_lo = perf.md_duration("pmemd.MPI", system, 20000, cores=lo)
    t_hi = perf.md_duration("pmemd.MPI", system, 20000, cores=hi)
    assert t_hi <= t_lo + 1e-9
