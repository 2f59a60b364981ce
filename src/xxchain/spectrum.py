"""Closed-form free-fermion spectrum of the open XX chain.

Conventions used everywhere downstream: modes are 1-based, k = 1..n, with
mode energy lam_k = 2*b - 2*j*cos(pi*k/(n+1)); the all-spins-up product state
is the mode vacuum at energy -n*b, and occupying mode k adds lam_k.  The
fields where lam_k changes sign, b_k = j*cos(pi*k/(n+1)), are where the
ground state hops between adjacent magnetization sectors.  The full spectrum,
:func:`enumerate_levels`, is one array of all 2^n energies in bitmask order:
entry v is the level whose occupied modes are the set bits of v.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import LEVEL_CAP, ChainParams, check_cap

_CHUNK = 1 << 14
DEGENERACY_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class ModeSpectrum:
    """Single-fermion energies, ascending in the mode index (entry 0 = mode 1)."""

    lambdas: np.ndarray

    def __post_init__(self):
        self.lambdas.setflags(write=False)

    @property
    def n(self) -> int:
        return self.lambdas.size


@dataclass(frozen=True, eq=False)
class CrossingSet:
    """Ground-state crossing fields b_k = j*cos(pi*k/(n+1)), descending in k."""

    fields_b: np.ndarray

    def __post_init__(self):
        self.fields_b.setflags(write=False)

    @property
    def n(self) -> int:
        return self.fields_b.size


def mode_energies(params: ChainParams) -> ModeSpectrum:
    """Mode energies lam_k = 2*b - 2*j*cos(pi*k/(n+1)), k = 1..n."""
    k = np.arange(1, params.n + 1, dtype=float)
    return ModeSpectrum(2.0 * params.b - 2.0 * params.j * np.cos(np.pi * k / (params.n + 1)))


def crossing_fields(n: int, j: float = 1.0) -> CrossingSet:
    """The n fields where mode k changes sign, j*cos(pi*k/(n+1)), descending."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not j > 0:
        raise ValueError(f"coupling must be positive, got {j!r}")
    k = np.arange(1, n + 1, dtype=float)
    return CrossingSet(j * np.cos(np.pi * k / (n + 1)))


def mode_signs(params: ChainParams) -> np.ndarray:
    """Sign -1, 0 or +1 of each mode energy, with |lam_k| <= DEGENERACY_ATOL read as 0.

    This is the one degeneracy rule: a zero mode may be empty or occupied at
    no cost, so the ground state is degenerate exactly where a sign is 0.
    """
    lam = mode_energies(params).lambdas
    return np.where(np.abs(lam) <= DEGENERACY_ATOL, 0, np.sign(lam)).astype(np.int64)


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
    if not 0 <= k <= params.n:
        raise ValueError(f"sector must satisfy 0 <= k <= {params.n}, got {k}")
    l = np.arange(1, k + 1, dtype=float)
    csum = float(np.sum(np.cos(np.pi * l / (params.n + 1))))
    return -(params.n - 2 * k) * params.b - 2.0 * params.j * csum


def energies_for_occupation_values(params: ChainParams, values: np.ndarray) -> np.ndarray:
    """Vectorized eigenenergies for occupation bitmasks given as integers."""
    lam = mode_energies(params).lambdas
    out = np.empty(values.size, dtype=float)
    for start in range(0, values.size, _CHUNK):
        chunk = values[start : start + _CHUNK]
        bits = ((chunk[:, None] >> np.arange(params.n)) & 1).astype(float)
        out[start : start + chunk.size] = bits @ lam
    return out - params.n * params.b


def enumerate_levels(params: ChainParams) -> np.ndarray:
    """All 2^n level energies (read-only), entry v = occupation bitmask v (bit k-1 = mode k)."""
    check_cap(params.n, LEVEL_CAP, "level enumeration")
    energies = energies_for_occupation_values(params, np.arange(1 << params.n, dtype=np.int64))
    energies.setflags(write=False)
    return energies


def log_partition_function(params: ChainParams, beta: float) -> float:
    """log Z = beta*n*b + sum_k log(1 + exp(-beta*lam_k)), overflow-safe."""
    if beta < 0:
        raise ValueError(f"inverse temperature must be >= 0, got {beta!r}")
    lam = mode_energies(params).lambdas
    return float(beta * params.n * params.b + np.sum(np.logaddexp(0.0, -beta * lam)))
