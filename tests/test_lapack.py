"""The in-place symmetric eigensolver gives the bits of numpy's eigvalsh and eigh, and falls back to numpy's call
where it cannot solve in place."""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xxchain._lapack
from xxchain import ChainParams, build_hamiltonian
from xxchain._lapack import syevd

from density_blocks import FIELDS, drawn_field


@st.composite
def symmetric_matrices(draw):
    """A random symmetric matrix of order 1-48 with 1e-13 of asymmetric noise, so that only numpy's choice of
    triangle gives its bits, or the literal H of n = 1-8 at a field on or one ulp beside a crossing."""
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        order = draw(st.integers(1, 48))
        matrix = rng.standard_normal((order, order))
        return matrix + matrix.T + 1e-13 * rng.standard_normal((order, order))
    n, j = draw(st.integers(1, 8)), draw(st.sampled_from((0.5, 1.0, 3.0)))
    return np.array(build_hamiltonian(ChainParams(n=n, j=j, b=drawn_field(n, j, draw(FIELDS)))).entries)


def _read_only(matrix):
    matrix = np.array(matrix, order="F")
    matrix.setflags(write=False)
    return matrix


# layout -> (the input syevd gets, whether it may solve in place)
LAYOUTS = {
    "in place": (lambda matrix: np.array(matrix, order="F"), True),
    "no library": (lambda matrix: np.array(matrix, order="F"), False),
    "C order": (lambda matrix: np.array(matrix, order="C"), False),
    "read-only": (_read_only, False),
}
NO_LIBRARY = xxchain._lapack._dsyevd() is None


def _hex(array):
    return [value.hex() for value in array.ravel().tolist()]


@pytest.mark.parametrize("layout", [
    pytest.param("in place", marks=pytest.mark.skipif(
        NO_LIBRARY, reason="numpy bundles no ILP64 OpenBLAS here, so only the in-place half is skipped")),
    "no library", "C order", "read-only"])
@settings(max_examples=60, deadline=None)
@given(matrix=symmetric_matrices())
def test_syevd_keeps_the_bits_of_numpys_solvers(layout, matrix):
    arrange, in_place = LAYOUTS[layout]
    if layout == "C order" and len(matrix) == 1:
        in_place = not NO_LIBRARY  # a 1 x 1 array is Fortran-ordered too
    for vectors, solver in ((False, "eigvalsh"), (True, "eigh")):
        expected = getattr(np.linalg, solver)(matrix)
        given_matrix = arrange(matrix)
        before = given_matrix.copy()
        with contextlib.ExitStack() as patches:
            if layout == "no library":
                patches.enter_context(mock.patch.object(xxchain._lapack, "_dsyevd", lambda: None))
            numpy_call = patches.enter_context(mock.patch.object(np.linalg, solver, wraps=getattr(np.linalg, solver)))
            result = syevd(given_matrix, vectors)
        assert numpy_call.called != in_place
        if vectors:
            assert _hex(result[0]) == _hex(expected[0]) and _hex(result[1]) == _hex(expected[1])
            assert (result[1] is given_matrix) == in_place
        else:
            assert _hex(result) == _hex(expected)
        if not in_place:
            assert _hex(given_matrix) == _hex(before)


@pytest.mark.parametrize("vectors", [False, True])
def test_syevd_raises_numpys_error_when_the_solver_fails(vectors):
    with pytest.raises(np.linalg.LinAlgError, match="^Eigenvalues did not converge$"):
        syevd(np.full((3, 3), np.nan, order="F"), vectors)
