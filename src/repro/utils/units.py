"""Physical constants and unit helpers.

All energies in the package are expressed in kcal/mol, temperatures in
Kelvin, angles in degrees unless a function name says otherwise.  These are
the conventions of the Amber ecosystem that the paper's experiments use
(e.g. the umbrella force constant of 0.02 kcal/mol/degree^2).
"""

from __future__ import annotations

from typing import List

#: Boltzmann constant in kcal / (mol K), the value used by Amber.
KB_KCAL_PER_MOL_K: float = 0.0019872041

#: kcal <-> kJ conversion factor.
_KCAL_TO_KJ: float = 4.184


def beta_from_temperature(temperature: float) -> float:
    """Return ``1 / (kB T)`` in mol/kcal for a temperature in Kelvin.

    Raises
    ------
    ValueError
        If ``temperature`` is not strictly positive.
    """
    if temperature <= 0.0:
        raise ValueError(f"temperature must be > 0 K, got {temperature!r}")
    return 1.0 / (KB_KCAL_PER_MOL_K * temperature)


def temperature_from_beta(beta: float) -> float:
    """Inverse of :func:`beta_from_temperature`."""
    if beta <= 0.0:
        raise ValueError(f"beta must be > 0, got {beta!r}")
    return 1.0 / (KB_KCAL_PER_MOL_K * beta)


def kcal_to_kj(value: float) -> float:
    """Convert kcal/mol to kJ/mol."""
    return value * _KCAL_TO_KJ


def kj_to_kcal(value: float) -> float:
    """Convert kJ/mol to kcal/mol."""
    return value / _KCAL_TO_KJ


def geometric_temperature_ladder(
    t_min: float, t_max: float, n_windows: int
) -> List[float]:
    """Temperatures spaced by geometric progression between two bounds.

    This is the standard T-REMD ladder (constant exchange-acceptance design
    under the ideal-gas heat-capacity assumption) and the one the paper's
    validation run uses: "6 windows were chosen from 273K to 373K by
    geometrical progression".

    Parameters
    ----------
    t_min, t_max:
        Inclusive endpoint temperatures in Kelvin.
    n_windows:
        Number of ladder rungs; must be >= 1.  With ``n_windows == 1`` the
        single rung is ``t_min``.
    """
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    if t_min <= 0 or t_max <= 0:
        raise ValueError("temperatures must be positive")
    if t_max < t_min:
        raise ValueError(f"t_max ({t_max}) < t_min ({t_min})")
    if n_windows == 1:
        return [t_min]
    ratio = (t_max / t_min) ** (1.0 / (n_windows - 1))
    return [t_min * ratio**i for i in range(n_windows)]


def uniform_ladder(lo: float, hi: float, n_windows: int, *, periodic: bool = False) -> List[float]:
    """Uniformly spaced parameter ladder between two bounds.

    With ``periodic=True`` the interval is treated as a circle (used for the
    umbrella windows on torsion angles, "8 windows were chosen uniformly
    between 0 and 360 degrees"): endpoints are not duplicated, so the windows
    are ``lo, lo + w, ...`` with ``w = (hi - lo) / n_windows``.
    """
    if n_windows < 1:
        raise ValueError(f"n_windows must be >= 1, got {n_windows}")
    if hi < lo:
        raise ValueError(f"hi ({hi}) < lo ({lo})")
    if n_windows == 1:
        return [lo]
    if periodic:
        width = (hi - lo) / n_windows
        return [lo + width * i for i in range(n_windows)]
    width = (hi - lo) / (n_windows - 1)
    return [lo + width * i for i in range(n_windows)]


def wrap_degrees(angle: float) -> float:
    """Wrap an angle in degrees into ``[-180, 180)``."""
    return (angle + 180.0) % 360.0 - 180.0


def angular_distance_degrees(a: float, b: float) -> float:
    """Smallest absolute separation of two angles in degrees (<= 180)."""
    return abs(wrap_degrees(a - b))
