"""Eigenstates of the open XX chain reconstructed in the spin basis.

Each eigenstate lives in one magnetization sector m (number of flipped
spins) and its amplitude on a spin ket is a Slater determinant of sine
coefficients.  Index conventions, fixed once here:

* modes and sites are 1-based, k, l = 1..n;
* a spin ket with m flipped spins is the ascending tuple of flipped-site
  positions, stored at its lexicographic rank among
  ``itertools.combinations(range(1, n + 1), m)``;
* the determinant rows are the occupied modes ascending and the columns
  the positions ascending, which pins every amplitude's sign;
* :func:`label_occupations` is the one statement of the label order: global
  labels l = 1..2^n run over the mode-occupation bitmasks (bit k-1 = mode k)
  sorted by weight m, then by value.  So the sectors m = 0..n come in that
  order, l = r + sum_{s<m} C(n, s), and within a sector the rank r = 1 is
  always the sector ground state (modes 1..m).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import MATRIX_CAP, check_cap


@lru_cache(maxsize=None)
def _position_combos(n: int, m: int) -> np.ndarray:
    combos = np.array(list(itertools.combinations(range(1, n + 1), m)), dtype=np.int64)
    combos = combos.reshape(math.comb(n, m), m)
    combos.setflags(write=False)
    return combos


@lru_cache(maxsize=None)
def sector_basis_indices(n: int, m: int) -> np.ndarray:
    """Spin-basis integer (bit l-1 = site l flipped) per lex-ranked position tuple."""
    combos = _position_combos(n, m)
    indices = np.sum(np.int64(1) << (combos - 1), axis=1) if m else np.zeros(1, dtype=np.int64)
    indices.setflags(write=False)
    return indices


@lru_cache(maxsize=None)
def label_occupations(n: int) -> np.ndarray:
    """Occupation bitmasks in global label order: entry l-1 is the state of label l."""
    values = np.arange(1 << n, dtype=np.int64)
    weights = np.zeros(1 << n, dtype=np.int64)
    for k in range(n):
        weights += (values >> k) & 1
    ordered = values[np.lexsort((values, weights))]
    ordered.setflags(write=False)
    return ordered


@dataclass(frozen=True, eq=False)
class SpinBasisVector:
    """A sector-m eigenstate: real amplitudes over lex-ordered position tuples."""

    n: int
    m: int
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes.setflags(write=False)

    def positions(self):
        return itertools.combinations(range(1, self.n + 1), self.m)

    def to_dense(self) -> np.ndarray:
        """Embed into the full 2^n spin basis (bit l-1 of the index = site l flipped)."""
        dense = np.zeros(1 << self.n)
        dense[sector_basis_indices(self.n, self.m)] = self.amplitudes
        return dense


def _amplitudes_for_modes(n: int, modes: np.ndarray) -> np.ndarray:
    """All C(n, m) amplitudes (2/(n+1))^(m/2) * det[sin(pi*k_a*l_b/(n+1))] of one state."""
    m = modes.size
    if m == 0:
        return np.ones(1)
    combos = _position_combos(n, m)
    blocks = np.sin((np.pi / (n + 1)) * modes[None, :, None] * combos[:, None, :])
    return (2.0 / (n + 1)) ** (m / 2.0) * np.linalg.det(blocks)


def ground_state(n: int, k: int) -> SpinBasisVector:
    """Ground state of sector k: modes 1..k occupied."""
    if not 0 <= k <= n:
        raise ValueError(f"sector must satisfy 0 <= k <= {n}, got {k}")
    check_cap(n, MATRIX_CAP, "eigenstate construction")
    return SpinBasisVector(n, k, _amplitudes_for_modes(n, np.arange(1, k + 1, dtype=np.int64)))


@lru_cache(maxsize=None)
def sector_amplitude_matrix(n: int, m: int) -> np.ndarray:
    """Row r-1 = amplitudes of the r-th sector-m eigenstate (read-only, cached).

    No size cap of its own: the callers building dense matrices check theirs.
    """
    start = sector_index_to_label(1, m, n) - 1
    values = label_occupations(n)[start : start + math.comb(n, m)]
    sites = np.arange(n)
    rows = np.empty((values.size, values.size))
    for r, value in enumerate(values):
        rows[r] = _amplitudes_for_modes(n, np.flatnonzero((value >> sites) & 1) + 1)
    rows.setflags(write=False)
    return rows


def eigenbasis_matrix(n: int) -> np.ndarray:
    """Dense 2^n x 2^n orthogonal matrix; column l-1 is the label-l eigenstate."""
    check_cap(n, MATRIX_CAP, "dense eigenbasis")
    basis = np.zeros((1 << n, 1 << n))
    offset = 0
    for m in range(n + 1):
        count = math.comb(n, m)
        rows = sector_basis_indices(n, m)
        basis[rows, offset : offset + count] = sector_amplitude_matrix(n, m).T
        offset += count
    return basis


# --- sector / label bookkeeping ---------------------------------------------


def sector_index_to_label(r: int, m: int, n: int) -> int:
    """Global label l = r + sum_{s<m} C(n, s)."""
    if not 0 <= m <= n:
        raise ValueError(f"sector must satisfy 0 <= m <= {n}, got {m}")
    if not 1 <= r <= math.comb(n, m):
        raise ValueError(f"rank must satisfy 1 <= r <= C({n},{m}), got {r}")
    return r + sum(math.comb(n, s) for s in range(m))


def label_to_sector_index(l: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`sector_index_to_label`: label -> (r, m)."""
    if not 1 <= l <= (1 << n):
        raise ValueError(f"label must satisfy 1 <= l <= 2^{n}, got {l}")
    rest = l
    for m in range(n + 1):
        count = math.comb(n, m)
        if rest <= count:
            return rest, m
        rest -= count
    raise AssertionError("unreachable")
