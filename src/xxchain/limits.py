"""Thermodynamic-limit ground-energy density and the finite-size density compared with it."""

from __future__ import annotations

import math

from .params import ChainParams
from .spectrum import ground_energy, ground_sector

_EDGE_ATOL = 1e-12


def thermo_energy_density(b: float) -> float:
    """Infinite-chain ground energy per spin (coupling = 1 energy unit).

    Inside the critical window |b| < 1 this is
    (2/pi) * [b*(arccos b - pi/2) - sqrt(1 - b^2)]; outside it the chain is
    fully polarized at -|b|, and the two branches join continuously at +-1
    (fields within 1e-12 of the edge are routed to the polarized branch).
    """
    magnitude = abs(b)
    if magnitude >= 1.0 - _EDGE_ATOL:
        return -magnitude
    return (2.0 / math.pi) * (b * (math.acos(b) - math.pi / 2) - math.sqrt(1.0 - b * b))


def finite_size_energy_density(n: int, b: float, j: float = 1.0) -> float:
    """Ground energy per spin of the n-site chain."""
    params = ChainParams(n=n, j=j, b=b)
    sector = ground_sector(params)
    if isinstance(sector, tuple):
        sector = sector[0]  # degenerate pair: both energies coincide
    return ground_energy(params, sector) / n
