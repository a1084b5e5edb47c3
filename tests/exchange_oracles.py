"""Scalar exchange formulas and the sequential exchange loop.

The package decides an exchange pass by pass: each dimension evaluates a
pass's Metropolis exponents as one stacked numpy expression
(``ExchangeDimension.batch_exchange_deltas``).  These are the per-pair
formulas and the pair-by-pair loop that the batched code must reproduce,
kept as the oracle it is compared against.  Comparisons are exact, not
approximate: the golden traces compare Metropolis decisions, and a 1-ulp
drift flips marginal ones.
"""

import math

from repro.core.exchange import (
    PHDimension,
    SaltDimension,
    TemperatureDimension,
    UmbrellaDimension,
    metropolis_accept,
)
from repro.utils.units import beta_from_temperature


def temperature_delta(dim, rep_i, rep_j, window_i, window_j, states, matrix):
    """``(beta_i - beta_j)(U_j - U_i)`` from the MD phase energies."""
    beta_i = beta_from_temperature(float(dim.value(window_i)))
    beta_j = beta_from_temperature(float(dim.value(window_j)))
    u_i = rep_i.last_energies["potential_energy"]
    u_j = rep_j.last_energies["potential_energy"]
    return (beta_i - beta_j) * (u_j - u_i)


def umbrella_delta(dim, rep_i, rep_j, window_i, window_j, states, matrix):
    """Cross restraint energies, one scalar restraint call each."""
    beta_i = beta_from_temperature(states[rep_i.rid].temperature)
    beta_j = beta_from_temperature(states[rep_j.rid].temperature)
    w_i = dim.restraint(window_i)
    w_j = dim.restraint(window_j)
    phi_i, psi_i = rep_i.coords
    phi_j, psi_j = rep_j.coords
    e_i_xi = float(w_i.energy(phi_i, psi_i))
    e_i_xj = float(w_i.energy(phi_j, psi_j))
    e_j_xi = float(w_j.energy(phi_i, psi_i))
    e_j_xj = float(w_j.energy(phi_j, psi_j))
    return beta_i * (e_i_xj - e_i_xi) + beta_j * (e_j_xi - e_j_xj)


def salt_delta(dim, rep_i, rep_j, window_i, window_j, states, matrix):
    """Cross single-point energies from the matrix, else four evaluator
    calls."""
    beta_i = beta_from_temperature(states[rep_i.rid].temperature)
    beta_j = beta_from_temperature(states[rep_j.rid].temperature)
    if matrix is not None:
        e_i_xi = float(matrix[rep_i.rid][window_i])
        e_i_xj = float(matrix[rep_j.rid][window_i])
        e_j_xi = float(matrix[rep_i.rid][window_j])
        e_j_xj = float(matrix[rep_j.rid][window_j])
    elif dim.internal and dim.evaluator is not None:
        c_i, c_j = float(dim.value(window_i)), float(dim.value(window_j))
        e_i_xi = dim.evaluator(rep_i.coords, c_i)
        e_i_xj = dim.evaluator(rep_j.coords, c_i)
        e_j_xi = dim.evaluator(rep_i.coords, c_j)
        e_j_xj = dim.evaluator(rep_j.coords, c_j)
    else:
        raise ValueError("salt exchange needs a matrix or an evaluator")
    return beta_i * (e_i_xj - e_i_xi) + beta_j * (e_j_xi - e_j_xj)


def ph_delta(dim, rep_i, rep_j, window_i, window_j, states, matrix):
    """``ln(10) (n_i - n_j) (pH_j - pH_i)`` from protonation occupancies."""
    ph_i = float(dim.value(window_i))
    ph_j = float(dim.value(window_j))
    n_i = rep_i.last_energies.get("protonation", 0.0)
    n_j = rep_j.last_energies.get("protonation", 0.0)
    return math.log(10.0) * (n_i - n_j) * (ph_j - ph_i)


FORMULAS = {
    TemperatureDimension: temperature_delta,
    UmbrellaDimension: umbrella_delta,
    SaltDimension: salt_delta,
    PHDimension: ph_delta,
}


def exchange_delta(
    dim, rep_i, rep_j, *, window_i, window_j, states, energy_matrix=None
):
    """The scalar exponent for swapping ``rep_i`` (at ``window_i``) and
    ``rep_j`` (at ``window_j``) along ``dim``."""
    return FORMULAS[type(dim)](
        dim, rep_i, rep_j, window_i, window_j, states, energy_matrix
    )


def reference_pairs(selector, group, cycle, rng):
    """The selector's pairs as one flat list, in the order they are
    decided."""
    if selector.name == "random":
        idx = rng.permutation(len(group))
        return [
            (group[idx[k]], group[idx[k + 1]])
            for k in range(0, len(group) - 1, 2)
        ]
    sweeps = selector.n_sweeps if selector.name == "gibbs" else 1
    return [
        (group[k], group[k + 1])
        for sweep in range(sweeps)
        for k in range((cycle + sweep) % 2, len(group) - 1, 2)
    ]


def reference_exchange(
    dim, group, states, selector, cycle, rng, energy_matrix=None
):
    """Decide every pair in turn against the evolving windows; returns one
    ``(rid_i, rid_j, dimension, delta, accepted)`` tuple per pair."""
    window_of = {rep.rid: rep.window(dim.name) for rep in group}
    out = []
    for rep_i, rep_j in reference_pairs(selector, list(group), cycle, rng):
        delta = exchange_delta(
            dim,
            rep_i,
            rep_j,
            window_i=window_of[rep_i.rid],
            window_j=window_of[rep_j.rid],
            states=states,
            energy_matrix=energy_matrix,
        )
        accepted = metropolis_accept(delta, rng)
        if accepted:
            window_of[rep_i.rid], window_of[rep_j.rid] = (
                window_of[rep_j.rid],
                window_of[rep_i.rid],
            )
        out.append((rep_i.rid, rep_j.rid, dim.name, delta, accepted))
    return out
