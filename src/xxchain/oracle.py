"""Brute-force ground truth: the dense spin-basis Hamiltonian and its eigensystem.

Built literally from the Pauli form with open boundaries, with no reference to
the closed-form solution, so every analytic module can be validated against it.
The x-x and y-y couplings combine into a real hop between anti-aligned
neighbours, so the matrix is real symmetric.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import CHUNK_ENTRIES, MATRIX_CAP, ChainParams, NumericalError, check_cap

# largest accepted eigenpair residual ||H v - e v|| / max(1, max |H_ij|)
RESIDUAL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DenseHamiltonian:
    """Real symmetric matrix in the spin basis (bit l-1 of the index = site l flipped)."""

    dim: int
    entries: np.ndarray

    def __post_init__(self):
        self.entries.setflags(write=False)


def build_hamiltonian(params: ChainParams) -> DenseHamiltonian:
    """-sum_i (j/2)(x_i x_{i+1} + y_i y_{i+1}) - b sum_i z_i, open boundaries.

    The hop places -j between |..up,down..> and |..down,up..| on adjacent
    sites; the field term is diagonal, -b * (n - 2 * flipped).
    """
    check_cap(params.n, MATRIX_CAP, "dense Hamiltonian")
    n, j, b = params.n, params.j, params.b
    dim = 1 << n
    states = np.arange(dim, dtype=np.int64)
    flipped = np.bitwise_count(states).astype(np.int64)  # uint8 would wrap in n - 2 * flipped
    h = np.zeros((dim, dim))
    h[states, states] = -b * (n - 2 * flipped)
    for i in range(n - 1):
        anti_aligned = states[((states >> i) ^ (states >> (i + 1))) & 1 == 1]
        h[anti_aligned ^ (0b11 << i), anti_aligned] = -j
    return DenseHamiltonian(dim, h)


def diagonalize(h: DenseHamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """Full eigensystem, eigenvalues ascending, eigenvectors as columns.

    The residual ||H v - e v|| of every pair, relative to max(1, max |H_ij|)
    as rounding errors grow with the entries, is checked against
    ``RESIDUAL_TOL`` and a :class:`NumericalError` is raised on failure.
    """
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(h.entries)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"dense eigensolver failed to converge: {exc}") from exc
    scale = max(1.0, float(h.entries.max()), -float(h.entries.min()))
    worst = float(residual_norms(h, eigenvalues, eigenvectors).max()) / scale
    if worst > RESIDUAL_TOL:
        raise NumericalError(f"eigenpair residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e}")
    return eigenvalues, eigenvectors


def residual_norms(h: DenseHamiltonian, values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """||H v - e v|| per column of a spin-basis H (dim a power of two), CHUNK_ENTRIES entries at a time:
    row r of H v sums H[r, r ^ d] v[r ^ d] over the XOR offsets d, all scaled so that no square overflows."""
    rows, columns = np.nonzero(h.entries)
    scale = float(max(h.entries.max(), -h.entries.min())) or 1.0
    offsets, band_of = np.unique(rows ^ columns, return_inverse=True)
    bands = np.zeros((len(offsets), h.dim))
    bands[band_of, rows] = h.entries[rows, columns] / scale
    squares = np.zeros(vectors.shape[1])
    for index in np.array_split(np.arange(h.dim), max(1, h.dim * vectors.shape[1] // CHUNK_ENTRIES)):
        chunk = vectors[index] * (values / -scale)
        for offset, band in zip(offsets, bands):
            chunk += band[index, None] * vectors[index ^ offset]
        squares += np.einsum("ij,ij->j", chunk, chunk)
    return scale * np.sqrt(squares)
