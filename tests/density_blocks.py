"""Density matrices built as one block over the full spin basis, and drawn fields, shared by the thermal and
entanglement tests."""

import math

import numpy as np
from hypothesis import strategies as st

from xxchain import DensityMatrix, crossing_fields

# a field is a signed zero, or (crossing index mod n, ulps off that crossing)
FIELDS = st.one_of(st.sampled_from((0.0, -0.0)), st.tuples(st.integers(0, 11), st.sampled_from((-1, 0, 1))))


def drawn_field(n, j, field):
    if isinstance(field, float):
        return field
    index, ulps = field
    b = float(crossing_fields(n, j).fields_b[index % n])
    return math.nextafter(b, math.copysign(math.inf, ulps)) if ulps else b


def one_block(matrix):
    """A DensityMatrix of one block over all spin-basis indices."""
    matrix = np.array(matrix, dtype=float)
    return DensityMatrix(len(matrix), ((np.arange(len(matrix)), matrix),))


def complete_mixture(n):
    return one_block(np.eye(1 << n) / (1 << n))
