"""Exchange algorithms: dimensions, Metropolis criterion, pairing, M-REMD."""

from repro.core.exchange.base import (
    ExchangeDimension,
    SwapProposal,
    metropolis_accept,
    metropolis_delta,
)
from repro.core.exchange.multidim import (
    DimensionSchedule,
    exchange_groups,
    lattice_size,
)
from repro.core.exchange.pairing import (
    GibbsPairing,
    NeighborPairing,
    PairSelector,
    RandomPairing,
    get_pair_selector,
)
from repro.core.exchange.ph import PHDimension
from repro.core.exchange.salt import SaltDimension
from repro.core.exchange.temperature import TemperatureDimension
from repro.core.exchange.umbrella import UmbrellaDimension

__all__ = [
    "DimensionSchedule",
    "ExchangeDimension",
    "GibbsPairing",
    "NeighborPairing",
    "PHDimension",
    "PairSelector",
    "RandomPairing",
    "SaltDimension",
    "SwapProposal",
    "TemperatureDimension",
    "UmbrellaDimension",
    "exchange_groups",
    "get_pair_selector",
    "lattice_size",
    "metropolis_accept",
    "metropolis_delta",
]
