"""Force field for the toy alanine-dipeptide engine.

The potential over the backbone torsions x = (phi, psi), both in radians,
has three physical parts plus a statistical solvent bath:

``V(x; c) = V_rama(x) + s(c) * V_elec(x) + V_umbrella(x)``

* ``V_rama`` — a Ramachandran-like surface built from Gaussian wells on the
  torus, with basins at the alpha-R, beta/PPII and alpha-L regions.  Energy
  range ~0-16 kcal/mol, matching the contour range of the paper's Fig. 4.
* ``V_elec`` — an intramolecular electrostatic term screened by dissolved
  salt through a Debye-Hueckel factor ``s(c) = exp(-kappa(c) * r0)``; this
  is the term the S-REMD dimension exchanges.
* ``V_umbrella`` — harmonic restraints on phi and/or psi in *degrees*
  (force constant 0.02 kcal/mol/deg^2 in the paper's validation run).
* :class:`SolventBath` — the solvent contributes an equilibrated
  potential-energy sample from the exact Gamma distribution of ``n``
  quadratic DOF.  Resampling it each cycle is a valid Gibbs move on the
  joint (torsion, bath) space, so REMD sampling of the torsions remains
  exact while acceptance ratios acquire the realistic magnitude set by
  sigma_U = kT sqrt(n/2).

All functions are vectorized over a trailing sample axis where noted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.utils.units import KB_KCAL_PER_MOL_K

TWO_PI = 2.0 * math.pi


def wrap_angle(x: np.ndarray) -> np.ndarray:
    """Wrap radians into [-pi, pi)."""
    return (np.asarray(x) + math.pi) % TWO_PI - math.pi


@dataclass(frozen=True)
class GaussianWell:
    """One attractive Gaussian basin on the (phi, psi) torus.

    ``center`` in radians; ``depth`` kcal/mol (positive = attractive);
    ``sigma`` radians.
    """

    center: Tuple[float, float]
    depth: float
    sigma: float

    def __post_init__(self):
        if self.depth <= 0:
            raise ValueError(f"depth must be > 0, got {self.depth}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


def _deg(x: float) -> float:
    return x * math.pi / 180.0


#: Default Ramachandran basins: (phi, psi) centers in degrees -> radians.
DEFAULT_WELLS: Tuple[GaussianWell, ...] = (
    # alpha-R helix basin: deepest
    GaussianWell(center=(_deg(-63.0), _deg(-42.0)), depth=8.0, sigma=_deg(35.0)),
    # beta / PPII basin: broad, slightly shallower
    GaussianWell(center=(_deg(-120.0), _deg(135.0)), depth=7.2, sigma=_deg(45.0)),
    # alpha-L basin: high-energy minority state
    GaussianWell(center=(_deg(57.0), _deg(47.0)), depth=4.2, sigma=_deg(28.0)),
)

#: Baseline so the surface spans ~[0, 16] kcal/mol like the paper's Fig. 4.
DEFAULT_OFFSET: float = 16.0


@dataclass(frozen=True)
class UmbrellaRestraint:
    """Harmonic restraint on one torsion angle, in degrees.

    ``V = k * d(theta, center)^2`` with d the wrapped angular difference in
    degrees and ``k`` in kcal/mol/deg^2 (Amber's rk2 convention, matching
    the paper's 0.02 kcal mol^-1 degree^-2).
    """

    angle: str  # "phi" or "psi"
    center_deg: float
    k: float = 0.02

    def __post_init__(self):
        if self.angle not in ("phi", "psi"):
            raise ValueError(f"angle must be 'phi' or 'psi', got {self.angle!r}")
        if self.k < 0:
            raise ValueError(f"k must be >= 0, got {self.k}")

    def energy(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Restraint energy in kcal/mol (vectorized)."""
        theta = phi if self.angle == "phi" else psi
        d_deg = np.degrees(wrap_angle(theta - _deg(self.center_deg)))
        return self.k * d_deg**2

    @property
    def gradient_terms(self) -> Tuple[str, float, float]:
        """``(angle, center in radians, 2 k)``: this restraint's operands
        of :func:`restraint_gradient`."""
        return self.angle, _deg(self.center_deg), 2.0 * self.k

    def gradient(
        self, phi: np.ndarray, psi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(dV/dphi, dV/dpsi) in kcal/mol/radian (vectorized)."""
        return restraint_gradient(phi, psi, *self.gradient_terms)


def restraint_gradient(
    phi: np.ndarray, psi: np.ndarray, angle: str, center_rad, two_k
) -> Tuple[np.ndarray, np.ndarray]:
    """(dV/dphi, dV/dpsi) of a harmonic restraint, in kcal/mol/radian.

    ``center_rad`` and ``two_k`` are scalars for one restraint, or one
    value per walker row for replicas whose restraints share ``angle``.
    """
    theta = phi if angle == "phi" else psi
    d_deg = np.degrees(wrap_angle(theta - center_rad))
    # dV/dtheta[rad] = 2 k d_deg * (180/pi)
    g = two_k * d_deg * (180.0 / math.pi)
    zero = np.zeros_like(g)
    return (g, zero) if angle == "phi" else (zero, g)


def debye_screening_factor(salt_molar: float, r0_angstrom: float = 4.0) -> float:
    """Debye-Hueckel screening ``exp(-kappa r0)`` for an ionic strength in M.

    ``kappa = 0.329 sqrt(I) 1/Angstrom`` (water, 298 K).  Zero salt means no
    screening (factor 1).
    """
    if salt_molar < 0:
        raise ValueError(f"salt_molar must be >= 0, got {salt_molar}")
    kappa = 0.329 * math.sqrt(salt_molar)
    return math.exp(-kappa * r0_angstrom)


@dataclass(frozen=True)
class ForceField:
    """The torsional force field: Ramachandran wells + screened electrostatics."""

    wells: Tuple[GaussianWell, ...] = DEFAULT_WELLS
    offset: float = DEFAULT_OFFSET
    #: amplitude of the intramolecular electrostatic term, kcal/mol
    elec_amplitude: float = 2.5
    #: effective charge separation for Debye screening, Angstrom
    elec_r0: float = 4.0

    # -- Ramachandran part ---------------------------------------------------

    def _well_arrays(self) -> Tuple[np.ndarray, ...]:
        """Stacked per-well parameters (centers, depths, 1/width terms).

        The scalar terms are computed with exactly the Python arithmetic
        the per-well loop used (``2.0 * w.sigma**2`` etc.), so evaluating
        all wells as one trailing array axis changes the number of ufunc
        dispatches but not a single bit of any element.  Cached on the
        (frozen) instance; the wells tuple is immutable.
        """
        cached = getattr(self, "_well_cache", None)
        if cached is None:
            cached = (
                np.array([w.center[0] for w in self.wells], dtype=float),
                np.array([w.center[1] for w in self.wells], dtype=float),
                np.array([w.depth for w in self.wells], dtype=float),
                np.array([2.0 * w.sigma**2 for w in self.wells], dtype=float),
                np.array([w.sigma**2 for w in self.wells], dtype=float),
            )
            object.__setattr__(self, "_well_cache", cached)
        return cached

    def rama_energy(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Torsional surface energy in kcal/mol (vectorized)."""
        phi = np.asarray(phi, dtype=float)
        psi = np.asarray(psi, dtype=float)
        c_phi, c_psi, depth, two_sig2, _ = self._well_arrays()
        # One stacked evaluation over a trailing well axis; the well terms
        # are then subtracted in declaration order, mirroring the original
        # per-well accumulation exactly.
        dphi = wrap_angle(phi[..., None] - c_phi)
        dpsi = wrap_angle(psi[..., None] - c_psi)
        terms = depth * np.exp(-(dphi**2 + dpsi**2) / two_sig2)
        v = np.full(np.broadcast(phi, psi).shape, self.offset, dtype=float)
        for k in range(len(self.wells)):
            v = v - terms[..., k]
        return v

    def rama_gradient(
        self, phi: np.ndarray, psi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(dV/dphi, dV/dpsi) of the Ramachandran part (vectorized)."""
        phi = np.asarray(phi, dtype=float)
        psi = np.asarray(psi, dtype=float)
        c_phi, c_psi, depth, two_sig2, sig2 = self._well_arrays()
        dphi = wrap_angle(phi[..., None] - c_phi)
        dpsi = wrap_angle(psi[..., None] - c_psi)
        e = depth * np.exp(-(dphi**2 + dpsi**2) / two_sig2)
        t_phi = e * dphi / sig2
        t_psi = e * dpsi / sig2
        shape = np.broadcast(phi, psi).shape
        gphi = np.zeros(shape, dtype=float)
        gpsi = np.zeros(shape, dtype=float)
        for k in range(len(self.wells)):
            gphi = gphi + t_phi[..., k]
            gpsi = gpsi + t_psi[..., k]
        return gphi, gpsi

    # -- electrostatic part ----------------------------------------------------

    def elec_energy(self, phi: np.ndarray, psi: np.ndarray) -> np.ndarray:
        """Unscreened electrostatic term in kcal/mol (vectorized).

        Modeled as a dipole-dipole interaction that stabilizes the compact
        (helical) region: ``-A cos(phi + psi)`` is most negative when
        phi + psi ~ 0 (alpha region with our basin choice is ~ -105 deg,
        partially stabilized; extended beta ~ +15 deg...).  The exact shape
        only matters in that it makes salt exchange a genuine Hamiltonian
        exchange with non-trivial acceptance.
        """
        phi = np.asarray(phi, dtype=float)
        psi = np.asarray(psi, dtype=float)
        return -self.elec_amplitude * np.cos(phi + psi)

    def elec_gradient(
        self, phi: np.ndarray, psi: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(d/dphi, d/dpsi) of the unscreened electrostatic term."""
        phi = np.asarray(phi, dtype=float)
        psi = np.asarray(psi, dtype=float)
        g = self.elec_amplitude * np.sin(phi + psi)
        return g, g

    # -- assembled potential -----------------------------------------------------

    def energy(
        self,
        phi: np.ndarray,
        psi: np.ndarray,
        *,
        salt_molar: float = 0.0,
        restraints: Sequence[UmbrellaRestraint] = (),
    ) -> np.ndarray:
        """Full potential energy (kcal/mol) at the given thermodynamic state."""
        s = debye_screening_factor(salt_molar, self.elec_r0)
        v = self.screened_energy(phi, psi, s)
        for r in restraints:
            v = v + r.energy(phi, psi)
        return v

    def gradient(
        self,
        phi: np.ndarray,
        psi: np.ndarray,
        *,
        salt_molar: float = 0.0,
        restraints: Sequence[UmbrellaRestraint] = (),
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradient of :meth:`energy` wrt (phi, psi) in kcal/mol/rad."""
        s = debye_screening_factor(salt_molar, self.elec_r0)
        return self.screened_gradient(
            phi, psi, s, [r.gradient_terms for r in restraints]
        )

    # -- shared formulas -------------------------------------------------------
    # ``s`` is the Debye screening factor; ``restraint_terms`` are
    # ``UmbrellaRestraint.gradient_terms`` triples.  The methods above pass
    # scalars, ``repro.md.batch`` one value per walker row: every element
    # sees the same IEEE operations either way.

    def screened_energy(
        self, phi: np.ndarray, psi: np.ndarray, s
    ) -> np.ndarray:
        """Torsional energy (kcal/mol) at screening factor ``s``."""
        return self.rama_energy(phi, psi) + s * self.elec_energy(phi, psi)

    def screened_gradient(
        self,
        phi: np.ndarray,
        psi: np.ndarray,
        s,
        restraint_terms: Sequence[tuple] = (),
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Gradient at screening factor ``s`` plus the given restraints."""
        gphi, gpsi = self.rama_gradient(phi, psi)
        ephi, epsi = self.elec_gradient(phi, psi)
        gphi = gphi + s * ephi
        gpsi = gpsi + s * epsi
        for terms in restraint_terms:
            rphi, rpsi = restraint_gradient(phi, psi, *terms)
            gphi = gphi + rphi
            gpsi = gpsi + rpsi
        return gphi, gpsi


class SolventBath:
    """Equilibrated harmonic solvent bath.

    The potential energy of ``n`` quadratic degrees of freedom in canonical
    equilibrium at temperature T is Gamma-distributed with shape ``n/2`` and
    scale ``kB T``:  mean ``(n/2) kB T``, std ``sqrt(n/2) kB T``.  Sampling
    it fresh each MD phase is a Gibbs move from the exact conditional
    distribution, so adding the sample to the reported potential energy
    leaves REMD sampling of the torsions unbiased (DESIGN.md, section 2).
    """

    def __init__(self, n_dof: int):
        if n_dof < 0:
            raise ValueError(f"n_dof must be >= 0, got {n_dof}")
        self.n_dof = n_dof

    def sample_energy(self, temperature: float, rng: np.random.Generator) -> float:
        """Draw one equilibrium bath potential energy (kcal/mol)."""
        if self.n_dof == 0:
            return 0.0
        kt = KB_KCAL_PER_MOL_K * temperature
        return float(rng.gamma(shape=self.n_dof / 2.0, scale=kt))

    def mean_energy(self, temperature: float) -> float:
        """Expected bath potential energy (kcal/mol)."""
        return 0.5 * self.n_dof * KB_KCAL_PER_MOL_K * temperature

    def std_energy(self, temperature: float) -> float:
        """Standard deviation of the bath potential energy (kcal/mol)."""
        return math.sqrt(self.n_dof / 2.0) * KB_KCAL_PER_MOL_K * temperature
