"""Closed-form free-fermion spectrum of the open XX chain.

Conventions used everywhere downstream: modes are 1-based, k = 1..n, with
mode energy lam_k = 2*b - 2*j*cos(pi*k/(n+1)); the all-spins-up product state
is the mode vacuum at energy -n*b, and occupying mode k adds lam_k.  The
fields where lam_k changes sign, b_k = j*cos(pi*k/(n+1)), are where the
ground state hops between adjacent magnetization sectors.  The full spectrum,
:func:`enumerate_levels`, is one array of all 2^n energies in bitmask order
(:func:`level_runs` streams it): entry v is the level whose occupied modes are the set bits of v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .params import CHUNK_ENTRIES, LEVEL_CAP, ChainParams, check_cap, check_index, check_real

DEGENERACY_ATOL = 1e-12
_EDGE_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class CrossingSet:
    """Ground-state crossing fields b_k = j*cos(pi*k/(n+1)), descending in k."""

    fields_b: np.ndarray

    def __post_init__(self):
        self.fields_b.setflags(write=False)


def mode_energies(params: ChainParams) -> np.ndarray:
    """Mode energies lam_k = 2*b - 2*j*cos(pi*k/(n+1)), k = 1..n (read-only; entry 0 = mode 1)."""
    k = np.arange(1, params.n + 1, dtype=float)
    lam = 2.0 * params.b - 2.0 * params.j * np.cos(np.pi * k / (params.n + 1))
    lam.setflags(write=False)
    return lam


def crossing_fields(n: int, j: float = 1.0) -> CrossingSet:
    """The n fields where mode k changes sign, j*cos(pi*k/(n+1)), descending."""
    ChainParams(n=n, j=j)  # the one rule for n and j
    k = np.arange(1, n + 1, dtype=float)
    return CrossingSet(j * np.cos(np.pi * k / (n + 1)))


def mode_signs(params: ChainParams) -> np.ndarray:
    """Sign -1, 0 or +1 of each mode energy, with |lam_k| <= DEGENERACY_ATOL * j read as 0.

    This is the one degeneracy rule: a zero mode may be empty or occupied at
    no cost, so the ground state is degenerate exactly where a sign is 0.
    """
    lam = mode_energies(params)
    return np.where(np.abs(lam) <= DEGENERACY_ATOL * params.j, 0, np.sign(lam)).astype(np.int64)


def ground_sector(params: ChainParams) -> int | tuple[int, int]:
    """Number of negative-energy modes, i.e. flipped spins in the ground state.

    At a field on a crossing value (a zero mode, see :func:`mode_signs`) the
    two adjacent sectors are degenerate and the pair ``(k, k + 1)`` is
    returned instead of tie-breaking.
    """
    signs = mode_signs(params)
    below = int(np.count_nonzero(signs < 0))
    if np.any(signs == 0):
        return (below, below + 1)
    return below


def ground_energy(params: ChainParams, k: int) -> float:
    """Energy of the sector-k ground state (modes 1..k occupied)."""
    check_index(k, 0, params.n, "sector k")
    l = np.arange(1, k + 1, dtype=float)
    csum = float(np.sum(np.cos(np.pi * l / (params.n + 1))))
    return -(params.n - 2 * k) * params.b - 2.0 * params.j * csum


def finite_size_energy_density(n: int, b: float, j: float = 1.0) -> float:
    """Ground energy per spin of the n-site chain (at a crossing both sectors share it)."""
    params = ChainParams(n=n, j=j, b=b)
    return ground_energy(params, int(np.count_nonzero(mode_signs(params) < 0))) / n


def thermo_energy_density(b: float) -> float:
    """Infinite-chain ground energy per spin (coupling = 1 energy unit).

    Inside the critical window |b| < 1 this is
    (2/pi) * [b*(arccos b - pi/2) - sqrt(1 - b^2)]; outside it the chain is
    fully polarized at -|b|, and the two branches join continuously at +-1
    (fields within 1e-12 of the edge are routed to the polarized branch).
    """
    magnitude = abs(check_real(b, "field b/J"))
    if magnitude >= 1.0 - _EDGE_ATOL:
        return -magnitude
    return (2.0 / math.pi) * (b * (math.acos(b) - math.pi / 2) - math.sqrt(1.0 - b * b))


def energies_for_occupation_values(params: ChainParams, values: np.ndarray) -> np.ndarray:
    """Vectorized eigenenergies for occupation bitmasks given as integers.

    The rows go through ``bits @ lam`` in steps of a power of two with at most
    CHUNK_ENTRIES bits each; such steps give the bits of one whole-array product.
    """
    lam = mode_energies(params)
    out = np.empty(values.size, dtype=float)
    step = 1 << max(0, (CHUNK_ENTRIES // params.n).bit_length() - 1)
    for start in range(0, values.size, step):
        chunk = values[start : start + step]
        bits = ((chunk[:, None] >> np.arange(params.n)) & 1).astype(float)
        out[start : start + chunk.size] = bits @ lam
    out -= params.n * params.b
    return out


def level_runs(params: ChainParams) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(occupations, energies) of all 2^n levels in bitmask order, CHUNK_ENTRIES at a time; checks the cap now."""
    check_cap(params.n, LEVEL_CAP, "level enumeration")
    size = 1 << params.n  # runs start at multiples of the power of two CHUNK_ENTRIES: whole-array product bits
    runs = (np.arange(v, min(v + CHUNK_ENTRIES, size), dtype=np.int64) for v in range(0, size, CHUNK_ENTRIES))
    return ((values, energies_for_occupation_values(params, values)) for values in runs)


def enumerate_levels(params: ChainParams) -> np.ndarray:
    """All 2^n level energies (read-only), entry v = occupation bitmask v (bit k-1 = mode k), filled run by run."""
    runs = level_runs(params)  # checks the level cap before the output is allocated
    energies = np.empty(1 << params.n)
    for occupations, run in runs:
        energies[occupations[0] : occupations[0] + run.size] = run
    energies.setflags(write=False)
    return energies


def log_partition_function(params: ChainParams, beta: float) -> float:
    """log Z = beta*n*b + sum_k log(1 + exp(-beta*lam_k)), overflow-safe.

    Where that form overflows, as it can from beta ~ 1e308, log Z is taken as
    -beta*E_0 + sum_k log(1 + exp(-beta*|lam_k|)), E_0 the ground energy.
    beta must be finite, and a log Z beyond the float range is a ValueError.
    """
    if not 0 <= beta < math.inf:
        raise ValueError(f"inverse temperature must be finite and >= 0, got {beta!r}")
    lam = mode_energies(params)
    with np.errstate(over="ignore", invalid="ignore"):
        log_z = float(beta * params.n * params.b + np.sum(np.logaddexp(0.0, -beta * lam)))
        if not math.isfinite(log_z):
            ground = ground_energy(params, int(np.count_nonzero(lam < 0)))
            log_z = float(-beta * ground + np.sum(np.log1p(np.exp(-beta * np.abs(lam)))))
    if not math.isfinite(log_z):
        raise ValueError(f"log Z overflows a float at beta = {beta!r}")
    return log_z
