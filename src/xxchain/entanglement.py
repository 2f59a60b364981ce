"""Partial transpose, negativity, and the two-qubit separability threshold."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import CHUNK_ENTRIES, ChainParams, NumericalError, check_index
from .thermal import DensityMatrix, label_energies

PPT_ATOL = 1e-12

# bisection for kT_c / J: initial bracket and the interval width it stops at
_KT_BRACKET = (1e-6, 1e3)
_KT_TOL = 1e-9


@dataclass(frozen=True)
class BipartiteSplit:
    """A disjoint, covering split of the sites {1..n} into two non-empty halves."""

    sites_a: tuple[int, ...]
    sites_b: tuple[int, ...]

    def __post_init__(self):
        sites = sorted(check_index(s, 1, self.n, "site") for s in (*self.sites_a, *self.sites_b))
        if not self.sites_a or not self.sites_b:
            raise ValueError("both sides of the split must be non-empty")
        if sites != list(range(1, self.n + 1)):  # n sites in 1..n cover 1..n unless one repeats
            raise ValueError(f"split sides must be disjoint and duplicate-free: {self}")

    @classmethod
    def of(cls, n: int, sites_a) -> "BipartiteSplit":
        ChainParams(n=n)  # the one rule for n
        sites_a = tuple(sorted(check_index(s, 1, n, "site") for s in sites_a))
        sites_b = tuple(s for s in range(1, n + 1) if s not in set(sites_a))
        return cls(sites_a, sites_b)

    @property
    def n(self) -> int:
        return len(self.sites_a) + len(self.sites_b)

    def __str__(self) -> str:
        return ",".join(map(str, self.sites_a)) + "|" + ",".join(map(str, self.sites_b))


def partial_transpose(rho: DensityMatrix, split: BipartiteSplit) -> np.ndarray:
    """Transpose the indices on ``split.sites_b``; Hermitian, trace-preserving.

    Scattered from ``rho.blocks``, so the full matrix of ``rho`` is never
    built: the entry at spin-basis row r, column c moves to row
    (r & ~mask) | (c & mask), column (c & ~mask) | (r & mask), where mask has
    the bits of the sites in B.  Each entry is copied once, unchanged.
    """
    n = split.n
    if rho.dim != 1 << n:
        raise ValueError(f"matrix dimension {rho.dim} does not match a {n}-site split")
    mask = sum(1 << (site - 1) for site in split.sites_b)
    result = np.zeros((rho.dim, rho.dim))
    flat = result.reshape(-1)
    for indices, block in rho.blocks:
        kept, swapped = indices & ~mask, indices & mask
        # kept and swapped bits are disjoint, so the flat target index is a sum of a row and a column term
        row_term, column_term = kept * rho.dim + swapped, swapped * rho.dim + kept
        step = max(1, CHUNK_ENTRIES // len(indices))
        for start in range(0, len(indices), step):
            rows = slice(start, start + step)
            flat[row_term[rows, None] + column_term] = block[rows]
    return result


def negativity(rho: DensityMatrix, split: BipartiteSplit) -> float:
    """Sum of |negative eigenvalues| of the partial transpose; 0 iff PPT."""
    eigenvalues = np.linalg.eigvalsh(partial_transpose(rho, split))
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
        raise ValueError(f"defined for chains of two spins, got n = {params.n}")
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
