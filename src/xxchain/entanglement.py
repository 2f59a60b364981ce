"""Partial transpose, negativity, and the two-qubit separability threshold."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ChainParams, NumericalError
from .thermal import DensityMatrix, label_energies

PPT_ATOL = 1e-12


@dataclass(frozen=True)
class BipartiteSplit:
    """A disjoint, covering split of the sites {1..n} into two non-empty halves."""

    sites_a: tuple[int, ...]
    sites_b: tuple[int, ...]

    def __post_init__(self):
        a, b = set(self.sites_a), set(self.sites_b)
        if not a or not b:
            raise ValueError("both sides of the split must be non-empty")
        if len(a) != len(self.sites_a) or len(b) != len(self.sites_b) or a & b:
            raise ValueError(f"split sides must be disjoint and duplicate-free: {self}")
        if a | b != set(range(1, self.n + 1)):
            raise ValueError(f"split must cover sites 1..{self.n}: {self}")

    @classmethod
    def of(cls, n: int, sites_a) -> "BipartiteSplit":
        sites_a = tuple(sorted(int(s) for s in sites_a))
        sites_b = tuple(s for s in range(1, n + 1) if s not in set(sites_a))
        return cls(sites_a, sites_b)

    @property
    def n(self) -> int:
        return len(self.sites_a) + len(self.sites_b)

    def __str__(self) -> str:
        return ",".join(map(str, self.sites_a)) + "|" + ",".join(map(str, self.sites_b))


def partial_transpose(rho: DensityMatrix, split: BipartiteSplit) -> np.ndarray:
    """Transpose the indices on ``split.sites_b``; Hermitian, trace-preserving."""
    n = split.n
    if rho.dim != 1 << n:
        raise ValueError(f"matrix dimension {rho.dim} does not match a {n}-site split")
    tensor = rho.entries.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for site in split.sites_b:
        # C-order reshape puts site n first: site s is row axis n - s, column axis 2n - s
        axes[n - site], axes[2 * n - site] = axes[2 * n - site], axes[n - site]
    return np.ascontiguousarray(tensor.transpose(axes).reshape(rho.dim, rho.dim))


def negativity(rho: DensityMatrix, split: BipartiteSplit) -> float:
    """Sum of |negative eigenvalues| of the partial transpose; 0 iff PPT."""
    eigenvalues = np.linalg.eigvalsh(partial_transpose(rho, split))
    return float(np.abs(eigenvalues[eigenvalues < 0]).sum())


def two_qubit_separable(p1: float, p2: float, p3: float, p4: float) -> bool:
    """Separability of the two-site Gibbs-form state with these four populations.

    p1 and p4 weight the fully aligned product states, p2 and p3 the symmetric
    and antisymmetric one-flip states (either order).  The boundary
    4*p1*p4 = (p2 - p3)^2 counts as separable.
    """
    probs = (p1, p2, p3, p4)
    if any(p < -PPT_ATOL for p in probs) or abs(sum(probs) - 1.0) > 1e-8:
        raise ValueError(f"populations must be non-negative and sum to 1, got {probs}")
    return 4.0 * p1 * p4 >= (p2 - p3) ** 2


def critical_temperature_two_qubit(
    params: ChainParams, tol: float = 1e-9, bracket: tuple[float, float] = (1e-6, 1e3)
) -> float:
    """Temperature where the two-site thermal state crosses the PPT boundary.

    Bisection on log(4*p1*p4) - log((p2 - p3)^2), which stays finite where the
    raw populations underflow; the interval is narrowed below ``tol`` (well
    inside the 1e-8 contract) and the result is independent of the field.
    ``bracket`` and ``tol`` are in units of J, as kT_c is proportional to J.
    """
    if params.n != 2:
        raise ValueError(f"defined for chains of two spins, got n = {params.n}")
    energies = label_energies(params)

    def margin(t: float) -> float:
        beta = 1.0 / (params.j * t)
        lw = -beta * energies
        aligned = math.log(4.0) + lw[0] + lw[3]
        hi, lo = (lw[1], lw[2]) if lw[1] >= lw[2] else (lw[2], lw[1])
        exchange = 2.0 * (hi + math.log1p(-math.exp(lo - hi)))
        return aligned - exchange

    t_lo, t_hi = bracket
    if not (margin(t_lo) < 0.0 < margin(t_hi)):
        raise NumericalError(f"separability boundary not bracketed in {bracket}")
    while t_hi - t_lo > tol:
        mid = 0.5 * (t_lo + t_hi)
        if margin(mid) < 0.0:
            t_lo = mid
        else:
            t_hi = mid
    return params.j * (0.5 * (t_lo + t_hi))
