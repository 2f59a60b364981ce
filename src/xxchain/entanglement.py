"""Partial transpose, negativity, and the two-qubit separability threshold."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import syevd
from .params import CHUNK_ENTRIES, ChainParams, DomainError, NumericalError, check_index
from .thermal import DensityMatrix, _gibbs_blocks, label_energies

PPT_ATOL = 1e-12

# bisection for kT_c / J: initial bracket and the interval width it stops at
_KT_BRACKET = (1e-6, 1e3)
_KT_TOL = 1e-9


@dataclass(frozen=True)
class BipartiteSplit:
    """A cut of the sites {1..n}: side A, stored sorted, and side B, the rest; neither side is empty."""

    n: int
    sites_a: tuple[int, ...]

    def __post_init__(self):
        ChainParams(n=self.n)  # the one rule for n
        if not hasattr(self.sites_a, "__iter__"):  # an int, a float or None
            raise DomainError(f"split side A must be a collection of sites of 1..{self.n}, got {self.sites_a!r}")
        sites_a = tuple(sorted(check_index(s, 1, self.n, "site") for s in self.sites_a))
        if not 0 < len(set(sites_a)) == len(sites_a) < self.n:
            raise DomainError(f"split side A must be distinct sites of 1..{self.n}, at least one and not all, "
                              f"got {sites_a}")
        object.__setattr__(self, "sites_a", sites_a)

    @property
    def sites_b(self) -> tuple[int, ...]:
        return tuple(s for s in range(1, self.n + 1) if s not in self.sites_a)

    def __str__(self) -> str:
        return ",".join(map(str, self.sites_a)) + "|" + ",".join(map(str, self.sites_b))


def partial_transpose(rho: DensityMatrix, split: BipartiteSplit) -> np.ndarray:
    """Transpose the indices on ``split.sites_b``; Hermitian, trace-preserving; a Fortran-ordered array.

    Scattered from ``rho.blocks`` by the loop :func:`negativities` runs over each
    Gibbs state's blocks, so the full matrix of ``rho`` is never built: the entry at spin-basis row r,
    column c moves to row (r & ~mask) | (c & mask), column (c & ~mask) | (r & mask),
    where mask has the bits of the sites in B.  Each entry is copied once, unchanged.
    Fortran order is the layout the eigensolver overwrites in place.
    """
    if rho.dim != 1 << split.n:
        raise DomainError(f"matrix dimension {rho.dim} does not match a {split.n}-site split")
    return _scatter(np.zeros((rho.dim, rho.dim)), split, rho.blocks).T


def negativity(rho: DensityMatrix, split: BipartiteSplit) -> float:
    """Sum of |negative eigenvalues| of the partial transpose; 0 iff PPT; :func:`negativities` for Gibbs states."""
    return _negative_sum(partial_transpose(rho, split))


def negativities(params: ChainParams, betas: np.ndarray, split: BipartiteSplit) -> np.ndarray:
    """negativity(thermal_density_matrix(params, beta), split), bit for bit, at each beta of a 1-D array."""
    stream = _gibbs_blocks(params, betas)  # checks the cap first
    if params.n != split.n:
        raise DomainError(f"matrix dimension {1 << params.n} does not match a {split.n}-site split")
    result = np.zeros((1 << split.n, 1 << split.n))  # one partial transpose, which each solve overwrites

    def solve(blocks) -> float:
        result.fill(0.0)
        return _negative_sum(_scatter(result, split, blocks).T)

    return np.fromiter(map(solve, stream), float, len(betas))


def _scatter(result: np.ndarray, split: BipartiteSplit, blocks) -> np.ndarray:
    """Write the transpose of the partial transpose into the C-ordered ``result``: ``result.T`` is the partial
    transpose, in Fortran order."""
    mask = sum(1 << (site - 1) for site in split.sites_b)
    for indices, block in blocks:  # each block scattered before the next is drawn
        kept, swapped = indices & ~mask, indices & mask
        # kept and swapped bits are disjoint, so the flat target index is a sum of a row and a column term
        row_term, column_term = swapped * len(result) + kept, kept * len(result) + swapped
        step = max(1, CHUNK_ENTRIES // len(indices))
        for start in range(0, len(indices), step):
            result.reshape(-1)[row_term[start : start + step, None] + column_term] = block[start : start + step]
    return result


def _negative_sum(matrix: np.ndarray) -> float:
    """Sum of |negative eigenvalues| of the symmetric ``matrix``; a Fortran-ordered ``matrix`` is destroyed."""
    eigenvalues = syevd(matrix, vectors=False)
    return float(np.abs(eigenvalues[eigenvalues < 0]).sum())


def critical_temperature_two_qubit(params: ChainParams) -> float:
    """Temperature where the two-site thermal state crosses the PPT boundary.

    The two-site Gibbs state has four populations: p1 and p4 on the fully
    aligned product states, p2 and p3 on the symmetric and antisymmetric
    one-flip states.  It is separable iff 4*p1*p4 >= (p2 - p3)^2.  Bisection
    runs on log(4*p1*p4) - log((p2 - p3)^2), which stays finite where the raw
    populations underflow, over the bracket ``_KT_BRACKET`` until the interval
    is narrower than ``_KT_TOL`` (well inside the 1e-8 contract); both are in
    units of J, as kT_c is proportional to J.  The result is independent of
    the field, so the margin is evaluated on the field-free levels: at |b| >> J
    the two one-flip energies would cancel to 0.  They are taken at J = 1, so
    t is kT / J and beta = 1/t cannot overflow however small J is.
    """
    if params.n != 2:
        raise DomainError(f"defined for chains of two spins, got n = {params.n}")
    energies = label_energies(ChainParams(n=2))

    def margin(t: float) -> float:
        beta = 1.0 / t
        lw = -beta * energies
        aligned = math.log(4.0) + lw[0] + lw[3]
        hi, lo = (lw[1], lw[2]) if lw[1] >= lw[2] else (lw[2], lw[1])
        exchange = 2.0 * (hi + math.log1p(-math.exp(lo - hi)))
        return aligned - exchange

    t_lo, t_hi = _KT_BRACKET
    if not (margin(t_lo) < 0.0 < margin(t_hi)):
        raise NumericalError(f"separability boundary not bracketed in {_KT_BRACKET}")
    while t_hi - t_lo > _KT_TOL:
        mid = 0.5 * (t_lo + t_hi)
        if margin(mid) < 0.0:
            t_lo = mid
        else:
            t_hi = mid
    return params.j * (0.5 * (t_lo + t_hi))
