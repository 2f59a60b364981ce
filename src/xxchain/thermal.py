"""Gibbs states of the chain: weights, dense density matrices, purity.

The API takes the inverse temperature beta; beta = 0 is the complete
mixture and beta = math.inf the zero-temperature limit, where a field
sitting exactly on a crossing yields the equal two-state mixture of the
degenerate sector ground states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .params import LEVEL_CAP, MATRIX_CAP, ChainParams, check_cap
from .spectrum import DEGENERACY_ATOL, energies_for_occupation_values, mode_energies, mode_signs
from .states import ground_state, label_occupations, sector_amplitude_matrix, sector_basis_indices


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
    """Hermitian matrix in the spin basis (bit l-1 of the index = site l flipped), stored as blocks.

    ``blocks`` holds ``(indices, block)`` pairs: ``block[r, c]`` is the entry at
    spin-basis row ``indices[r]`` and column ``indices[c]``; the index sets are
    disjoint and every other entry is zero.
    """

    dim: int
    blocks: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        for indices, block in self.blocks:
            indices.setflags(write=False)
            block.setflags(write=False)

    @cached_property
    def entries(self) -> np.ndarray:
        """The full dim x dim matrix (read-only), built from the blocks on first access."""
        full = np.zeros((self.dim, self.dim))
        for indices, block in self.blocks:
            full[np.ix_(indices, indices)] = block
        full.setflags(write=False)
        return full

    @classmethod
    def from_matrix(cls, entries: np.ndarray) -> "DensityMatrix":
        """One block over all spin-basis indices."""
        entries = np.array(entries, dtype=float)
        return cls(entries.shape[0], ((np.arange(entries.shape[0]), entries),))

    @classmethod
    def from_state(cls, vector: np.ndarray) -> "DensityMatrix":
        vector = np.asarray(vector, dtype=float)
        return cls.from_matrix(np.outer(vector, vector))

    @classmethod
    def maximally_mixed(cls, n: int) -> "DensityMatrix":
        dim = 1 << n
        return cls.from_matrix(np.eye(dim) / dim)


def label_energies(params: ChainParams) -> np.ndarray:
    """Eigenenergies of all 2^n states in global label order."""
    return energies_for_occupation_values(params, label_occupations(params.n))


def boltzmann_weights(params: ChainParams, beta: float) -> ThermalEnsemble:
    """Normalized Boltzmann distribution p_l in label order, log-domain safe."""
    check_cap(params.n, LEVEL_CAP, "Boltzmann weight table")
    if beta < 0:
        raise ValueError(f"inverse temperature must be >= 0, got {beta!r}")
    n = params.n
    if beta == 0.0:
        # exact complete mixture (0.5**n is representable; exp/log would wobble ulps)
        probs = np.full(1 << n, 0.5**n)
        log_z = n * math.log(2.0)
    elif math.isinf(beta):
        # ground states: every negative mode occupied, every positive one empty
        signs = mode_signs(params)
        bits = np.int64(1) << np.arange(n, dtype=np.int64)
        free = int(np.sum(bits[signs == 0]))
        mask = (label_occupations(n) & ~free) == int(np.sum(bits[signs < 0]))
        probs = mask / np.count_nonzero(mask)
        lowest = label_energies(params).min()
        if lowest < -DEGENERACY_ATOL:
            log_z = math.inf
        elif lowest > DEGENERACY_ATOL:
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


def thermal_density_matrix(params: ChainParams, beta: float) -> DensityMatrix:
    """Gibbs state as its magnetization-sector blocks V_m^T diag(p_m) V_m, m = 0..n."""
    n = params.n
    check_cap(n, MATRIX_CAP, "dense thermal state")
    ensemble = boltzmann_weights(params, beta)
    blocks = []
    offset = 0
    for m in range(n + 1):
        count = math.comb(n, m)
        weights = ensemble.probabilities[offset : offset + count]
        vectors = sector_amplitude_matrix(n, m)
        blocks.append((sector_basis_indices(n, m), (vectors * weights[:, None]).T @ vectors))
        offset += count
    return DensityMatrix(1 << n, tuple(blocks))


def purity_analytic(params: ChainParams, beta: float) -> float:
    """Closed-form purity: product over modes of 1 - 1/(1 + cosh(beta*lam_k)).

    O(n) and overflow-free (the factor is evaluated as 1 - sech^2(x/2)/2 with
    decaying exponentials only).  beta = math.inf returns the limit: each
    zero mode (see :func:`mode_signs`) contributes 1/2, every other mode 1.
    """
    if beta < 0:
        raise ValueError(f"inverse temperature must be >= 0, got {beta!r}")
    if math.isinf(beta):
        return float(np.prod(np.where(mode_signs(params) == 0, 0.5, 1.0)))
    lam = mode_energies(params).lambdas
    x = np.abs(beta * lam)
    decay = np.exp(-x)
    sech_sq_half = 4.0 * decay / (1.0 + decay) ** 2
    return float(np.prod(1.0 - 0.5 * sech_sq_half))


def purity_dense(rho: DensityMatrix) -> float:
    """Tr(rho^2) = sum_ij rho_ij rho_ji, contracted block by block.

    The order is that of a full-matrix contraction, so the value does not
    depend on how the state is blocked: each spin-basis row is summed over
    ascending columns, then the row sums over ascending rows.  ``np.cumsum``
    adds sequentially (``np.sum`` would add pairwise and move the last bits).
    """
    row_sums = np.zeros(rho.dim)
    for indices, block in rho.blocks:
        products = (block * block.T)[:, np.argsort(indices)]
        row_sums[indices] = np.cumsum(products, axis=1, out=products)[:, -1]
    return float(np.cumsum(row_sums)[-1])


def crossing_mixture(n: int, k: int) -> DensityMatrix:
    """Equal mixture of the sector-k and sector-(k+1) ground states.

    This is the zero-temperature state at the field where those two sectors
    are degenerate, i.e. crossing_fields(n, j).fields_b[k]; its purity is 1/2.
    """
    if not 0 <= k <= n - 1:
        raise ValueError(f"need 0 <= k <= n - 1 = {n - 1}, got {k}")
    check_cap(n, MATRIX_CAP, "crossing mixture")
    blocks = []
    for sector in (k, k + 1):
        amplitudes = ground_state(n, sector).amplitudes
        blocks.append((sector_basis_indices(n, sector), 0.5 * np.outer(amplitudes, amplitudes)))
    return DensityMatrix(1 << n, tuple(blocks))
