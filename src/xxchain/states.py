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
  always the sector ground state (modes 1..m);
* :func:`sector_starts` is the one statement of where each sector starts:
  sector m holds the labels starts[m] + 1 .. starts[m + 1].
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .params import CHUNK_ENTRIES, LEVEL_CAP, MATRIX_CAP, ChainParams, check_cap, check_index


def _position_combos(n: int, m: int) -> np.ndarray:
    """Lex-ranked position tuples as 0-based sites, one row per tuple."""
    return np.array(list(itertools.combinations(range(n), m)), dtype=np.int64)


def _sine_table(n: int) -> np.ndarray:
    """Entry [k-1, l-1] = sin(pi*k*l/(n+1)), evaluated as ((pi/(n+1)) * k) * l, which pins the tables' bits."""
    k = np.arange(1, n + 1, dtype=np.int64)
    return np.sin(((np.pi / (n + 1)) * k)[:, None] * k)


@lru_cache(maxsize=None)
def sector_basis_indices(n: int, m: int) -> np.ndarray:
    """Spin-basis integer (bit l-1 = site l flipped) per lex-ranked position tuple."""
    combos = _position_combos(n, m)
    indices = np.sum(np.int64(1) << combos, axis=1)
    indices.setflags(write=False)
    return indices


@lru_cache(maxsize=None, typed=True)  # typed: True is not served from the entry for 1
def label_occupations(n: int) -> np.ndarray:
    """Occupation bitmasks in global label order: entry l-1 is the state of label l."""
    ChainParams(n=n)  # the one rule for n
    check_cap(n, LEVEL_CAP, "label order")
    ordered = np.argsort(np.bitwise_count(np.arange(1 << n)), kind="stable").astype(np.int64, copy=False)
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

    @property
    def positions(self) -> np.ndarray:
        """Row r = the 1-based flipped sites of the r-th position tuple, ascending (read-only)."""
        positions = _position_combos(self.n, self.m) + 1
        positions.setflags(write=False)
        return positions


def _slater_rows(n: int, modes: np.ndarray) -> np.ndarray:
    """Row i: the C(n, m) amplitudes (2/(n+1))^(m/2) * det[sin(pi*k_a*l_b/(n+1))] of state i.

    ``modes`` holds one ascending row of m 0-based mode indices per state.  The
    m x m blocks are gathered from :func:`_sine_table` and passed to one
    ``np.linalg.det`` per chunk of states, which factors each matrix on its own,
    so the values do not depend on the chunking.
    """
    count, m = modes.shape
    positions = _position_combos(n, m)
    table = _sine_table(n)
    per_state = positions.size * m  # C(n, m) blocks of m x m entries
    step = max(1, CHUNK_ENTRIES // max(per_state, 1))
    rows = np.empty((count, positions.shape[0]))
    for start in range(0, count, step):
        blocks = table[modes[start : start + step]][:, :, positions]  # [state, a, tuple, b]
        rows[start : start + step] = np.linalg.det(blocks.transpose(0, 2, 1, 3))
    rows *= (2.0 / (n + 1)) ** (m / 2.0)
    return rows


def ground_state(n: int, k: int) -> SpinBasisVector:
    """Ground state of sector k: modes 1..k occupied."""
    ChainParams(n=n)  # the one rule for n
    check_index(k, 0, n, "sector k")
    check_cap(n, MATRIX_CAP, "eigenstate construction")
    return SpinBasisVector(n, k, _slater_rows(n, np.arange(k, dtype=np.int64)[None, :])[0])


@lru_cache(maxsize=None)
def sector_amplitude_matrix(n: int, m: int) -> np.ndarray:
    """Row r-1 = amplitudes of the r-th sector-m eigenstate (read-only, cached).

    No size cap of its own: the callers building dense matrices check theirs.
    """
    starts = sector_starts(n)
    values = label_occupations(n)[starts[m] : starts[m + 1]]
    occupied = np.nonzero((values[:, None] >> np.arange(n)) & 1)[1]  # row-major: each row's modes ascending
    rows = _slater_rows(n, occupied.reshape(values.size, m))
    rows.setflags(write=False)
    return rows


def eigenbasis_matrix(n: int) -> np.ndarray:
    """Dense 2^n x 2^n orthogonal matrix; column l-1 is the label-l eigenstate."""
    ChainParams(n=n)  # the one rule for n
    check_cap(n, MATRIX_CAP, "dense eigenbasis")
    basis = np.zeros((1 << n, 1 << n))
    starts = sector_starts(n)
    for m in range(n + 1):
        basis[sector_basis_indices(n, m), starts[m] : starts[m + 1]] = sector_amplitude_matrix(n, m).T
    return basis


# --- sector / label bookkeeping ---------------------------------------------


def sector_starts(n: int) -> list[int]:
    """Entry m = the number of labels before sector m, sum_{s<m} C(n, s), for m = 0..n + 1 (the last is 2^n)."""
    return list(itertools.accumulate((math.comb(n, m) for m in range(n + 1)), initial=0))


def sector_index_to_label(r: int, m: int, n: int) -> int:
    """Global label l = r + sum_{s<m} C(n, s)."""
    ChainParams(n=n)  # the one rule for n
    check_index(m, 0, n, "sector m")
    check_index(r, 1, math.comb(n, m), "rank r")
    return r + sector_starts(n)[m]


def label_to_sector_index(l: int, n: int) -> tuple[int, int]:
    """Inverse of :func:`sector_index_to_label`: label -> (r, m)."""
    ChainParams(n=n)  # the one rule for n
    check_index(l, 1, 1 << n, "label")
    starts = sector_starts(n)
    m = bisect.bisect_left(starts, l) - 1  # starts[m] < l <= starts[m + 1]
    return l - starts[m], m
