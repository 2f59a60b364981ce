"""Density matrices built as one block over the full spin basis, shared by the thermal and entanglement tests."""

import numpy as np

from xxchain import DensityMatrix


def one_block(matrix):
    """A DensityMatrix of one block over all spin-basis indices."""
    matrix = np.array(matrix, dtype=float)
    return DensityMatrix(len(matrix), ((np.arange(len(matrix)), matrix),))


def complete_mixture(n):
    return one_block(np.eye(1 << n) / (1 << n))
