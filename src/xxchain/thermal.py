"""Gibbs states of the chain: weights, dense density matrices, purity.

The API takes the inverse temperature beta; beta = 0 is the complete
mixture and beta = math.inf the zero-temperature limit, where a field
sitting exactly on a crossing yields the equal two-state mixture of the
degenerate sector ground states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import ENUMERATION_CAP, ChainParams, check_cap, resolve_dense_cap
from .spectrum import energies_for_occupation_values, mode_energies
from .states import ground_state, label_occupations, sector_amplitude_matrix, sector_basis_indices

_DEGENERACY_ATOL = 1e-12


@dataclass(frozen=True, eq=False)
class ThermalEnsemble:
    """Boltzmann weights over all 2^n eigenstates, in global label order."""

    params: ChainParams
    beta: float
    probabilities: np.ndarray
    log_z: float

    def __post_init__(self):
        self.probabilities.setflags(write=False)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Dense Hermitian matrix in the spin basis (bit l-1 of the index = site l flipped)."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)

    @classmethod
    def from_state(cls, vector: np.ndarray) -> "DensityMatrix":
        vector = np.asarray(vector, dtype=float)
        return cls(vector.size, np.outer(vector, vector))

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityMatrix":
        dim = 1 << n
        return cls(dim, np.eye(dim) / dim)


def label_energies(params: ChainParams) -> np.ndarray:
    """Eigenenergies of all 2^n states in global label order."""
    return energies_for_occupation_values(params, label_occupations(params.n))


def boltzmann_weights(params: ChainParams, beta: float, cap: int | None = None) -> ThermalEnsemble:
    """Normalized Boltzmann distribution p_l in label order, log-domain safe."""
    check_cap(params.n, ENUMERATION_CAP if cap is None else cap, "Boltzmann weight table")
    if beta < 0:
        raise ValueError(f"inverse temperature must be >= 0, got {beta!r}")
    n = params.n
    if beta == 0.0:
        # exact complete mixture (0.5**n is representable; exp/log would wobble ulps)
        probs = np.full(1 << n, 0.5**n)
        log_z = n * math.log(2.0)
    elif math.isinf(beta):
        energies = label_energies(params)
        lowest = energies.min()
        mask = energies <= lowest + _DEGENERACY_ATOL
        probs = mask / np.count_nonzero(mask)
        if lowest < -_DEGENERACY_ATOL:
            log_z = math.inf
        elif lowest > _DEGENERACY_ATOL:
            log_z = -math.inf
        else:
            log_z = math.log(np.count_nonzero(mask))
    else:
        energies = label_energies(params)
        lowest = energies.min()
        weights = np.exp(-beta * (energies - lowest))
        total = float(weights.sum())
        probs = weights / total
        log_z = -beta * lowest + math.log(total)
    return ThermalEnsemble(params, beta, probs, float(log_z))


def thermal_density_matrix(params: ChainParams, beta: float, cap: int | None = None) -> DensityMatrix:
    """Dense Gibbs state, assembled sector by sector (it is block diagonal in m)."""
    n = params.n
    check_cap(n, resolve_dense_cap(cap), "dense thermal state")
    ensemble = boltzmann_weights(params, beta)
    rho = np.zeros((1 << n, 1 << n))
    offset = 0
    for m in range(n + 1):
        count = math.comb(n, m)
        weights = ensemble.probabilities[offset : offset + count]
        vectors = sector_amplitude_matrix(n, m)
        block = (vectors * weights[:, None]).T @ vectors
        indices = sector_basis_indices(n, m)
        rho[np.ix_(indices, indices)] = block
        offset += count
    return DensityMatrix(1 << n, rho)


def purity_analytic(params: ChainParams, beta: float) -> float:
    """Closed-form purity: product over modes of 1 - 1/(1 + cosh(beta*lam_k)).

    O(n) and overflow-free (the factor is evaluated as 1 - sech^2(x/2)/2 with
    decaying exponentials only).  beta = math.inf returns the limit: each
    exactly-zero mode contributes 1/2, every other mode 1.
    """
    if beta < 0:
        raise ValueError(f"inverse temperature must be >= 0, got {beta!r}")
    lam = mode_energies(params).lambdas
    if math.isinf(beta):
        return float(np.prod(np.where(lam == 0.0, 0.5, 1.0)))
    x = np.abs(beta * lam)
    decay = np.exp(-x)
    sech_sq_half = 4.0 * decay / (1.0 + decay) ** 2
    return float(np.prod(1.0 - 0.5 * sech_sq_half))


def purity_dense(rho: DensityMatrix) -> float:
    """Tr(rho^2) by direct contraction of the dense matrix."""
    return float(np.einsum("ij,ji->", rho.entries, rho.entries))


def crossing_mixture(n: int, k: int, cap: int | None = None) -> DensityMatrix:
    """Equal mixture of the sector-k and sector-(k+1) ground states.

    This is the zero-temperature state at the field where those two sectors
    are degenerate, i.e. crossing_fields(n, j).fields_b[k]; its purity is 1/2.
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n - 1 = {n - 1}, got {k}")
    limit = resolve_dense_cap(cap)
    check_cap(n, limit, "crossing mixture")
    lower = ground_state(n, k, limit).to_dense()
    upper = ground_state(n, k + 1, limit).to_dense()
    return DensityMatrix(1 << n, 0.5 * (np.outer(lower, lower) + np.outer(upper, upper)))
