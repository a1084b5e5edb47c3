"""Tests for the four exchange dimensions."""

import math

import numpy as np
import pytest

from repro.core.exchange.ph import PHDimension
from repro.core.exchange.salt import SaltDimension
from repro.core.exchange.temperature import TemperatureDimension
from repro.core.exchange.umbrella import UmbrellaDimension
from repro.core.replica import Replica
from repro.md.toymd import ThermodynamicState
from repro.utils.units import beta_from_temperature


def make_rep(rid, coords=(0.0, 0.0), energies=None, **indices):
    r = Replica(
        rid=rid, coords=np.asarray(coords, dtype=float),
        param_indices=dict(indices),
    )
    r.last_energies = energies or {}
    return r


def pair_delta(dim, ri, rj, *, window_i, window_j, states, energy_matrix=None):
    """The exponent of one pair, as a one-pair pass."""
    [delta] = dim.batch_exchange_deltas(
        [(ri, rj)],
        window_of={ri.rid: window_i, rj.rid: window_j},
        states=states,
        energy_matrix=energy_matrix,
    )
    return float(delta)


class TestTemperatureDimension:
    def test_geometric_factory(self):
        d = TemperatureDimension.geometric(273.0, 373.0, 6)
        assert d.n_windows == 6
        assert d.code == "T"
        assert d.value(0) == pytest.approx(273.0)
        assert d.value(5) == pytest.approx(373.0)

    def test_apply_sets_temperature(self):
        d = TemperatureDimension.geometric(273.0, 373.0, 4)
        s = d.apply(ThermodynamicState(), 3)
        assert s.temperature == pytest.approx(373.0)

    def test_index_out_of_range(self):
        d = TemperatureDimension([300.0])
        with pytest.raises(IndexError):
            d.value(1)

    def test_rejects_bad_temperatures(self):
        with pytest.raises(ValueError):
            TemperatureDimension([300.0, -10.0])
        with pytest.raises(ValueError):
            TemperatureDimension([])

    def test_exchange_delta_formula(self):
        d = TemperatureDimension([300.0, 330.0])
        ri = make_rep(0, energies={"potential_energy": -100.0}, temperature=0)
        rj = make_rep(1, energies={"potential_energy": -80.0}, temperature=1)
        states = {0: ThermodynamicState(300.0), 1: ThermodynamicState(330.0)}
        delta = pair_delta(
            d, ri, rj, window_i=0, window_j=1, states=states
        )
        bi, bj = beta_from_temperature(300.0), beta_from_temperature(330.0)
        assert delta == pytest.approx((bi - bj) * (-80.0 - (-100.0)))

    def test_no_single_point_needed(self):
        assert TemperatureDimension([300.0]).requires_single_point is False


class TestUmbrellaDimension:
    def test_uniform_factory(self):
        d = UmbrellaDimension.uniform(8, angle="phi")
        assert d.n_windows == 8
        assert d.values == [0.0, 45.0, 90.0, 135.0, 180.0, 225.0, 270.0, 315.0]
        assert d.code == "U"

    def test_name_includes_angle(self):
        assert UmbrellaDimension.uniform(4, angle="psi").name == "umbrella_psi"

    def test_apply_replaces_own_angle_only(self):
        d_phi = UmbrellaDimension.uniform(8, angle="phi")
        d_psi = UmbrellaDimension.uniform(8, angle="psi")
        s = ThermodynamicState()
        s = d_phi.apply(s, 2)
        s = d_psi.apply(s, 3)
        assert len(s.restraints) == 2
        s = d_phi.apply(s, 5)  # re-apply phi: psi restraint preserved
        assert len(s.restraints) == 2
        angles = {r.angle for r in s.restraints}
        assert angles == {"phi", "psi"}

    def test_exchange_delta_cross_terms(self):
        d = UmbrellaDimension([0.0, 45.0], angle="phi", force_constant=0.01)
        # replica i at its center, replica j at i's center too (i.e. far
        # from its own window): swap is favourable
        ri = make_rep(0, coords=np.radians([0.0, 0.0]), umbrella_phi=0)
        rj = make_rep(1, coords=np.radians([0.0, 0.0]), umbrella_phi=1)
        states = {
            0: ThermodynamicState(300.0),
            1: ThermodynamicState(300.0),
        }
        delta = pair_delta(
            d, ri, rj, window_i=0, window_j=1, states=states
        )
        beta = beta_from_temperature(300.0)
        # W_i(x_j)=0, W_i(x_i)=0, W_j(x_i)=k*45^2, W_j(x_j)=k*45^2
        assert delta == pytest.approx(0.0, abs=1e-9)

        # now j actually sits at its own center
        rj2 = make_rep(1, coords=np.radians([45.0, 0.0]), umbrella_phi=1)
        delta2 = pair_delta(
            d, ri, rj2, window_i=0, window_j=1, states=states
        )
        # W_i(x_j) = k 45^2, W_i(x_i) = 0, W_j(x_i) = k 45^2, W_j(x_j) = 0
        assert delta2 == pytest.approx(beta * 2 * 0.01 * 45.0**2)

    def test_validation(self):
        with pytest.raises(ValueError):
            UmbrellaDimension([0.0], angle="chi")
        with pytest.raises(ValueError):
            UmbrellaDimension([0.0], angle="phi", force_constant=-1.0)


class TestSaltDimension:
    def test_linear_factory(self):
        d = SaltDimension.linear(0.0, 1.0, 5)
        assert d.values == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert d.code == "S"
        assert d.requires_single_point is True

    def test_apply_sets_salt(self):
        d = SaltDimension.linear(0.0, 1.0, 3)
        s = d.apply(ThermodynamicState(), 2)
        assert s.salt_molar == pytest.approx(1.0)

    def test_requires_matrix(self):
        d = SaltDimension.linear(0.0, 1.0, 2)
        ri = make_rep(0, salt=0)
        rj = make_rep(1, salt=1)
        states = {0: ThermodynamicState(), 1: ThermodynamicState()}
        with pytest.raises(ValueError, match="single-point"):
            pair_delta(d, ri, rj, window_i=0, window_j=1, states=states)

    def test_exchange_delta_from_matrix(self):
        d = SaltDimension.linear(0.0, 1.0, 2)
        ri = make_rep(0, salt=0)
        rj = make_rep(1, salt=1)
        states = {0: ThermodynamicState(300.0), 1: ThermodynamicState(300.0)}
        matrix = {
            0: {0: -10.0, 1: -9.0},  # x_i's energy at windows 0, 1
            1: {0: -8.0, 1: -12.0},  # x_j's energy at windows 0, 1
        }
        delta = pair_delta(
            d, ri, rj, window_i=0, window_j=1, states=states,
            energy_matrix=matrix,
        )
        beta = beta_from_temperature(300.0)
        # beta_i (E_0(x_j) - E_0(x_i)) + beta_j (E_1(x_i) - E_1(x_j))
        expected = beta * ((-8.0) - (-10.0)) + beta * ((-9.0) - (-12.0))
        assert delta == pytest.approx(expected)

    def test_rejects_negative_concentration(self):
        with pytest.raises(ValueError):
            SaltDimension([0.5, -0.1])


class TestPHDimension:
    def test_linear_factory(self):
        d = PHDimension.linear(4.0, 9.0, 6)
        assert d.n_windows == 6
        assert d.code == "H"

    def test_apply_is_identity(self):
        d = PHDimension.linear(4.0, 9.0, 3)
        s = ThermodynamicState()
        assert d.apply(s, 1) is s

    def test_apply_validates_index(self):
        d = PHDimension.linear(4.0, 9.0, 3)
        with pytest.raises(IndexError):
            d.apply(ThermodynamicState(), 7)

    def test_protonation_follows_henderson_hasselbalch(self):
        d = PHDimension.linear(2.0, 11.0, 2, pka=6.5)
        rng = np.random.default_rng(0)
        # far below pKa: almost always protonated
        low = np.mean([d.protonation_occupancy(2.0, rng) for _ in range(500)])
        high = np.mean([d.protonation_occupancy(11.0, rng) for _ in range(500)])
        assert low > 0.95
        assert high < 0.05

    def test_exchange_delta_sign(self):
        d = PHDimension([5.0, 8.0], pka=6.5)
        ri = make_rep(0, energies={"protonation": 1.0}, ph=0)
        rj = make_rep(1, energies={"protonation": 0.0}, ph=1)
        states = {0: ThermodynamicState(), 1: ThermodynamicState()}
        delta = pair_delta(
            d, ri, rj, window_i=0, window_j=1, states=states
        )
        # moving protonated site to higher pH costs ln10 * (8-5)
        assert delta == pytest.approx(math.log(10.0) * 3.0)
