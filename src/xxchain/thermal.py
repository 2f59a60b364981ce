"""Gibbs states of the chain: weights, dense density matrices, purity.

The API takes the inverse temperature beta; beta = 0 is the complete
mixture and beta = math.inf the zero-temperature limit, where a field
sitting exactly on a crossing yields the equal two-state mixture of the
degenerate sector ground states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .params import CHUNK_ENTRIES, LEVEL_CAP, MATRIX_CAP, ChainParams, check_cap
from .spectrum import energies_for_occupation_values, mode_energies, mode_signs
from .states import ground_state, label_occupations, sector_amplitude_matrix, sector_basis_indices, sector_starts


@dataclass(frozen=True, eq=False)
class ThermalEnsemble:
    """Boltzmann weights over all 2^n eigenstates, in global label order (read-only).

    log Z is not kept here: :func:`~xxchain.spectrum.log_partition_function` computes it.
    """

    probabilities: np.ndarray

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
        """The full dim x dim matrix (read-only), built from the blocks on first access.

        No function of the package reads it: purity and the partial transpose
        work from ``blocks``.  It is there for callers that want the dense form.
        """
        full = np.zeros((self.dim, self.dim))
        for indices, block in self.blocks:
            full[np.ix_(indices, indices)] = block
        full.setflags(write=False)
        return full


@lru_cache(maxsize=1)
def label_energies(params: ChainParams) -> np.ndarray:
    """Eigenenergies of all 2^n states in global label order (read-only; the last chain's are kept)."""
    energies = energies_for_occupation_values(params, label_occupations(params.n))
    energies.setflags(write=False)
    return energies


def boltzmann_weights(params: ChainParams, beta: float) -> ThermalEnsemble:
    """Normalized Boltzmann distribution p_l in label order, log-domain safe."""
    check_cap(params.n, LEVEL_CAP, "Boltzmann weight table")
    if not beta >= 0:
        raise ValueError(f"inverse temperature must be >= 0, got {beta!r}")
    n = params.n
    if math.isinf(beta):
        # ground states: every negative mode occupied, every positive one empty
        signs = mode_signs(params)
        bits = np.int64(1) << np.arange(n, dtype=np.int64)
        free = int(np.sum(bits[signs == 0]))
        mask = (label_occupations(n) & ~free) == int(np.sum(bits[signs < 0]))
        probs = mask / np.count_nonzero(mask)
    else:
        energies = label_energies(params)
        probs = np.subtract(energies, energies.min())  # then in place: -beta * (E - E_min), exp, normalize
        with np.errstate(over="ignore"):  # a product below -DBL_MAX is -inf, whose exp is the 0 it stands for
            np.exp(np.multiply(probs, -beta, out=probs), out=probs)
        probs /= float(probs.sum())
    return ThermalEnsemble(probs)


def thermal_density_matrix(params: ChainParams, beta: float) -> DensityMatrix:
    """Gibbs state as its magnetization-sector blocks V_m^T diag(p_m) V_m, m = 0..n.

    The blocks are consecutive views of one array of C(2n, n) = sum_m C(n, m)^2
    entries, so a state is one allocation.
    """
    n = params.n
    check_cap(n, MATRIX_CAP, "dense thermal state")
    ensemble = boltzmann_weights(params, beta)
    storage = np.empty(math.comb(2 * n, n))
    blocks = []
    starts = sector_starts(n)
    offset = 0
    for m in range(n + 1):
        count = starts[m + 1] - starts[m]
        weights = ensemble.probabilities[starts[m] : starts[m + 1]]
        vectors = sector_amplitude_matrix(n, m)
        block = storage[offset : offset + count * count].reshape(count, count)
        blocks.append((sector_basis_indices(n, m), np.matmul((vectors * weights[:, None]).T, vectors, out=block)))
        offset += count * count
    return DensityMatrix(1 << n, tuple(blocks))


def purity_analytic(params: ChainParams, beta: float) -> float:
    """Closed-form purity: product over modes of 1 - 1/(1 + cosh(beta*lam_k)).

    O(n) and overflow-free (the factor is evaluated as 1 - sech^2(x/2)/2 with
    decaying exponentials only).  beta = math.inf returns the limit: each
    zero mode (see :func:`mode_signs`) contributes 1/2, every other mode 1.
    """
    if not beta >= 0:
        raise ValueError(f"inverse temperature must be >= 0, got {beta!r}")
    if math.isinf(beta):
        return float(np.prod(np.where(mode_signs(params) == 0, 0.5, 1.0)))
    lam = mode_energies(params)
    with np.errstate(over="ignore"):  # an overflowing x is inf, whose factor is the limit 1
        x = np.abs(beta * lam)
    decay = np.exp(-x)
    sech_sq_half = 4.0 * decay / (1.0 + decay) ** 2
    return float(np.prod(1.0 - 0.5 * sech_sq_half))


def purity_dense(rho: DensityMatrix) -> float:
    """Tr(rho^2) = sum_ij rho_ij rho_ji, contracted block by block.

    The order is that of a full-matrix contraction, so the value does not
    depend on how the state is blocked: each spin-basis row is summed over
    ascending columns, then the row sums over ascending rows.  The products
    are laid out transposed, one row per spin-basis column in ascending
    order, so ``np.add.reduce`` over axis 0 of the C-contiguous array adds
    whole rows into the running sums one after another.  A reduction along
    the contiguous axis (``np.sum`` of a row, or of the row sums) would add
    pairwise and can move the last bits; ``np.cumsum`` adds sequentially.
    The product rows come ``CHUNK_ENTRIES`` at a time below a row 0 that carries
    the running sums: the same additions in the same order, in chunk-sized memory.
    """
    row_sums = np.zeros(rho.dim)
    for indices, block in rho.blocks:
        order = np.argsort(indices)
        step = max(1, CHUNK_ENTRIES // len(order))
        products = np.empty((min(step, len(order)) + 1, len(order)))
        products[0] = -0.0  # -0.0 + x is x for every x, so the first chunk sums as if it started the reduce
        for start in range(0, len(order), step):
            rows = order[start : start + step]
            np.multiply(block[rows], block.T[rows], out=products[1 : len(rows) + 1])
            np.add.reduce(products[: len(rows) + 1], axis=0, out=products[0])
        row_sums[indices] = products[0]
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
