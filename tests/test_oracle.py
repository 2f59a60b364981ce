import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxchain import (
    ChainParams,
    NumericalError,
    SizeLimitError,
    build_hamiltonian,
    diagonalize,
    enumerate_levels,
    ground_sector,
)
from xxchain.oracle import DenseHamiltonian, residual_norms


def test_single_site_is_diagonal_field_term():
    h = build_hamiltonian(ChainParams(n=1, b=0.7)).entries
    assert np.array_equal(h, np.diag([-0.7, 0.7]))


def test_two_site_zero_field_eigenvalues():
    h = build_hamiltonian(ChainParams(n=2, b=0.0))
    assert diagonalize(h)[0] == pytest.approx([-1.0, 0.0, 0.0, 1.0], abs=1e-12)


def test_hop_matrix_element():
    h = build_hamiltonian(ChainParams(n=2, j=1.3, b=0.4)).entries
    # |down,up> is index 1, |up,down> is index 2
    assert h[2, 1] == -1.3
    assert h[1, 2] == -1.3


def test_matrix_is_symmetric_and_sector_block_diagonal():
    h = build_hamiltonian(ChainParams(n=5, j=0.8, b=0.3)).entries
    assert np.array_equal(h, h.T)
    counts = np.array([s.bit_count() for s in range(1 << 5)])
    mask = counts[:, None] != counts[None, :]
    assert np.all(h[mask] == 0.0)


@pytest.mark.parametrize("b", [4 * 10**18, -10**19, 10**300], ids=["4e18", "-1e19", "1e300"])
def test_an_int_field_builds_the_matrix_of_its_float(b):
    """An int field is used as its float, so the diagonal -b * (n - 2 * flipped) never wraps or overflows int64."""
    h = build_hamiltonian(ChainParams(n=3, b=b)).entries
    assert np.array_equal(h, build_hamiltonian(ChainParams(n=3, b=float(b))).entries)


@pytest.mark.parametrize("b", [0.0, 0.45, 1.2])
def test_spectrum_negates_under_field_reversal(b):
    plus = diagonalize(build_hamiltonian(ChainParams(n=4, b=b)))[0]
    minus = diagonalize(build_hamiltonian(ChainParams(n=4, b=-b)))[0]
    assert plus == pytest.approx(-minus[::-1], abs=1e-10)


@pytest.mark.parametrize("b", [-1.1, -0.42, 0.17, 0.65, 1.4])
def test_ground_eigenvector_lives_in_predicted_sector(b):
    params = ChainParams(n=5, b=b)
    _, vectors = diagonalize(build_hamiltonian(params))
    support = np.flatnonzero(np.abs(vectors[:, 0]) > 1e-8)
    flipped = {int(s).bit_count() for s in support}
    assert flipped == {ground_sector(params)}


def test_diagonalize_diagonal_matrix():
    values, vectors = diagonalize(build_hamiltonian(ChainParams(n=1, b=0.9)))
    assert values == pytest.approx([-0.9, 0.9])
    assert np.abs(vectors) == pytest.approx(np.eye(2))


@pytest.mark.parametrize("n", list(range(1, 9)) + [10])
def test_eigenvalue_multiset_matches_enumeration(n):
    params = ChainParams(n=n, b=0.31)
    closed = np.sort(enumerate_levels(params))
    dense = diagonalize(build_hamiltonian(params))[0]
    assert np.max(np.abs(closed - dense)) < 1e-10


@pytest.mark.parametrize("j", [0.6, 1.0, 2.3])
@pytest.mark.parametrize("b", [-0.8, 0.0, 0.47])
def test_eigenvalue_multiset_over_coupling_grid(j, b):
    params = ChainParams(n=5, j=j, b=b)
    closed = np.sort(enumerate_levels(params))
    dense = diagonalize(build_hamiltonian(params))[0]
    assert np.max(np.abs(closed - dense)) < 1e-10


def test_diagonalize_residuals_within_contract():
    h = build_hamiltonian(ChainParams(n=6, b=0.31))
    values, vectors = diagonalize(h)
    residual = h.entries @ vectors - vectors * values
    assert np.max(np.abs(residual)) < 1e-10


def test_oracle_cap():
    with pytest.raises(SizeLimitError):
        build_hamiltonian(ChainParams(n=13))


def looped_hamiltonian(n, j, b):
    """The Pauli-form Hamiltonian built one spin-basis state at a time."""
    dim = 1 << n
    h = np.zeros((dim, dim))
    for state in range(dim):
        h[state, state] = -b * (n - 2 * state.bit_count())
        for i in range(n - 1):
            if ((state >> i) ^ (state >> (i + 1))) & 1:
                h[state ^ (0b11 << i), state] = -j
    return h


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), j=st.floats(1e-3, 1e3), b=st.floats(-1e3, 1e3))
def test_build_hamiltonian_matches_state_by_state_loop(n, j, b):
    built = build_hamiltonian(ChainParams(n=n, j=j, b=b)).entries
    assert np.array_equal(built, looped_hamiltonian(n, j, b))


@st.composite
def symmetric_matrices(draw):
    """A real symmetric spin-basis matrix: dim 2^k, entries kept with a drawn density over many magnitudes."""
    dim = 1 << draw(st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = rng.standard_normal((dim, dim)) * 10.0 ** rng.integers(-3, 4, (dim, dim))
    upper[rng.random((dim, dim)) >= draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))] = 0.0
    return DenseHamiltonian(dim, np.triu(upper) + np.triu(upper, 1).T)


@settings(max_examples=60, deadline=None)
@given(h=symmetric_matrices(), seed=st.integers(0, 2**32 - 1), eigenpairs=st.booleans())
def test_residual_norms_match_the_dense_residual(h, seed, eigenpairs):
    if eigenpairs:
        values, vectors = np.linalg.eigh(h.entries)
    else:
        rng = np.random.default_rng(seed)
        values, vectors = rng.standard_normal(h.dim) * 10.0, rng.standard_normal((h.dim, h.dim))
    dense = np.linalg.norm(h.entries @ vectors - vectors * values, axis=0)
    # the eigenpair residual is rounding alone, so there the two orders of summation agree to its scale
    floor = 1e-12 * np.abs(h.entries).max(initial=0.0) * h.dim if eigenpairs else 0.0
    np.testing.assert_allclose(residual_norms(h, values, vectors), dense, rtol=1e-12, atol=floor)


def test_residual_norms_of_the_zero_hamiltonian():
    h = build_hamiltonian(ChainParams(n=1, b=0.0))
    assert not h.entries.any()
    values, vectors = diagonalize(h)
    assert np.array_equal(residual_norms(h, values, vectors), [0.0, 0.0])
    assert np.array_equal(residual_norms(h, np.array([1.0, -2.0]), vectors), [1.0, 2.0])


def test_perturbed_eigenvector_fails_the_gate(monkeypatch):
    eigh = np.linalg.eigh

    def perturbed(matrix):
        values, vectors = eigh(matrix)
        vectors[3, 5] += 1e-6
        return values, vectors

    monkeypatch.setattr(np.linalg, "eigh", perturbed)
    with pytest.raises(NumericalError, match="eigenpair residual .* exceeds 1.0e-08"):
        diagonalize(build_hamiltonian(ChainParams(n=4, b=0.31)))
