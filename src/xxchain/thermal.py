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

from .params import CHUNK_ENTRIES, MATRIX_CAP, ChainParams, check_beta, check_cap, check_index
from .spectrum import enumerate_levels, mode_energies, mode_signs
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

        No function of the package reads it: purity and the partial transpose work from
        ``blocks``, and ``dense_purities`` and ``negativities`` from one block stream.  It is for callers.
        """
        full = np.zeros((self.dim, self.dim))
        for indices, block in self.blocks:
            full[np.ix_(indices, indices)] = block
        full.setflags(write=False)
        return full


@lru_cache(maxsize=1)
def label_energies(params: ChainParams) -> np.ndarray:
    """All 2^n level energies in label order, the bitmask spectrum gathered (read-only; the last chain's are kept)."""
    occupations = label_occupations(params.n)  # first, so a too-long chain reports the label order's cap
    energies = enumerate_levels(params)[occupations]
    energies.setflags(write=False)
    return energies


def boltzmann_weights(params: ChainParams, beta: float) -> ThermalEnsemble:
    """Normalized Boltzmann distribution p_l in label order, log-domain safe."""
    beta = check_beta(beta)
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


def _sector_blocks(n: int, probabilities: np.ndarray, storage: np.ndarray):
    """Yield (indices, V_m^T diag(p_m) V_m), m = 0..n, each written at the start of ``storage``."""
    starts = sector_starts(n)
    for m in range(n + 1):
        count = starts[m + 1] - starts[m]
        weights = probabilities[starts[m] : starts[m + 1]]
        vectors = sector_amplitude_matrix(n, m)
        block = storage[: count * count].reshape(count, count)
        yield sector_basis_indices(n, m), np.matmul((vectors * weights[:, None]).T, vectors, out=block)


def _gibbs_blocks(points):
    """Yield n and the lazy sector blocks of each (params, beta), each held in the run's one buffer until the next."""
    buffer = np.empty(0)
    for params, beta in points:
        n = params.n
        check_cap(n, MATRIX_CAP, "dense thermal state")
        if buffer.size < math.comb(n, n // 2) ** 2:
            buffer = np.empty(math.comb(n, n // 2) ** 2)
        yield n, _sector_blocks(n, boltzmann_weights(params, beta).probabilities, buffer)


def thermal_density_matrix(params: ChainParams, beta: float) -> DensityMatrix:
    """Gibbs state as its magnetization-sector blocks V_m^T diag(p_m) V_m, m = 0..n, copied from a one-point stream."""
    n, blocks = next(_gibbs_blocks([(params, beta)]))
    return DensityMatrix(1 << n, tuple((indices, block.copy()) for indices, block in blocks))


def purity_analytics(params: ChainParams, betas: np.ndarray) -> np.ndarray:
    """Closed-form purity at each beta of a 1-D array (unchecked): product over modes of 1 - 1/(1 + cosh(beta*lam_k)).

    O(n) per beta and overflow-free (the factor is evaluated as 1 - sech^2(x/2)/2, x = |beta*lam_k|, with
    decaying exponentials only), one row of modes per beta.  beta = math.inf gives the limit:
    each zero mode (see :func:`mode_signs`) contributes 1/2, every other mode 1.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # x = inf has the limit factor 1; inf * 0 is nan in an inf row
        decay = np.exp(-np.abs(betas[:, None] * mode_energies(params)))
    purities = np.prod(1.0 - 0.5 * (4.0 * decay / (1.0 + decay) ** 2), axis=1)  # 1 - sech^2(x/2)/2 per mode
    if np.isinf(betas).any():  # the rows of the limit; mode_signs only when a row needs it
        purities[np.isinf(betas)] = np.prod(np.where(mode_signs(params) == 0, 0.5, 1.0))
    return purities


def purity_analytic(params: ChainParams, beta: float) -> float:
    """:func:`purity_analytics` at one checked beta."""
    return float(purity_analytics(params, np.array([check_beta(beta)]))[0])


def purity_dense(rho: DensityMatrix) -> float:
    """Tr(rho^2) = sum_ij rho_ij rho_ji, contracted block by block (as :func:`dense_purities` does).

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
    return _contract(rho.dim, rho.blocks)


def dense_purities(points):
    """purity_dense(thermal_density_matrix(params, beta)), bit for bit, at each (params, beta) of ``points``."""
    for n, blocks in _gibbs_blocks(points):
        yield _contract(1 << n, blocks)  # each block contracted before the next is written


def _contract(dim: int, blocks) -> float:
    row_sums = np.zeros(dim)
    for indices, block in blocks:
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
    check_index(k, 0, n - 1, "sector k")
    check_cap(n, MATRIX_CAP, "crossing mixture")
    blocks = []
    for sector in (k, k + 1):
        amplitudes = ground_state(n, sector).amplitudes
        blocks.append((sector_basis_indices(n, sector), 0.5 * np.outer(amplitudes, amplitudes)))
    return DensityMatrix(1 << n, tuple(blocks))
