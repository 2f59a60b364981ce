import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxchain import (
    ChainParams,
    SizeLimitError,
    build_hamiltonian,
    diagonalize,
    eigenbasis_matrix,
    ground_state,
    label_energies,
    label_occupations,
    label_to_sector_index,
    sector_index_to_label,
)
from xxchain.states import sector_amplitude_matrix, sector_basis_indices, sector_starts

A1_MINUS = 0.5 * math.sqrt(1 - 1 / math.sqrt(5))
A1_PLUS = 0.5 * math.sqrt(1 + 1 / math.sqrt(5))
A2 = -1 / (2 * math.sqrt(5))


def dense_vector(state):
    """The state embedded in the full 2^n spin basis (bit l-1 of the index = site l flipped)."""
    dense = np.zeros(1 << state.n)
    dense[sector_basis_indices(state.n, state.m)] = state.amplitudes
    return dense


def assert_equal_up_to_sign(actual, expected, abs_tol):
    actual, expected = np.asarray(actual), np.asarray(expected)
    direct = np.max(np.abs(actual - expected))
    flipped = np.max(np.abs(actual + expected))
    assert min(direct, flipped) < abs_tol


def sine_transform(n):
    # entry [k-1, l-1] = sqrt(2/(n+1)) * sin(pi*k*l/(n+1)), written out independently of the package
    k = np.arange(1, n + 1)
    return np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))


def per_row_sector_table(n, m):
    # reference builder: for each state, a fresh np.sin stack of its C(n, m) blocks, then np.linalg.det
    combos = np.array(list(itertools.combinations(range(1, n + 1), m)), dtype=np.int64)
    combos = combos.reshape(math.comb(n, m), m)
    start = sector_index_to_label(1, m, n) - 1
    rows = []
    for value in label_occupations(n)[start : start + math.comb(n, m)].tolist():
        modes = np.array([k for k in range(1, n + 1) if value >> (k - 1) & 1], dtype=np.int64)
        blocks = np.sin((np.pi / (n + 1)) * modes[None, :, None] * combos[:, None, :])
        rows.append((2.0 / (n + 1)) ** (m / 2.0) * np.linalg.det(blocks) if m else np.ones(1))
    return np.array(rows)


@pytest.mark.parametrize("n", range(1, 12))
def test_sector_tables_bit_identical_to_per_row_builder(n):
    # the shared sine table and the chunked determinants must not move a single bit
    for m in range(n + 1):
        reference = per_row_sector_table(n, m)
        assert np.array_equal(sector_amplitude_matrix(n, m), reference)
        assert np.array_equal(ground_state(n, m).amplitudes, reference[0])  # rank 1: modes 1..m


def test_cold_table_build_memory_is_chunked():
    # the build gathers a bounded chunk of sine blocks at a time; gathering a whole
    # n = 10, m = 5 sector at once (252 x 252 blocks of 5 x 5, about 12.7 MB) fails here
    n = 10
    sector_amplitude_matrix.cache_clear()
    tracemalloc.start()
    try:
        tables = [sector_amplitude_matrix(n, m) for m in range(n + 1)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    own = sum(table.nbytes for table in tables)
    assert own == math.comb(2 * n, n) * 8  # about 1.48 MB
    assert peak - own < 1 << 20


def test_sine_coefficient_closed_forms():
    # the one-flip table is the sine transform: row = mode k, column = site l
    assert sector_amplitude_matrix(4, 1)[0, 0] == pytest.approx(A1_MINUS, abs=1e-12)
    assert sector_amplitude_matrix(4, 1)[0, 1] == pytest.approx(A1_PLUS, abs=1e-12)
    assert sector_amplitude_matrix(1, 1)[0, 0] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("n", [1, 2, 5, 9, 12])
def test_sine_matrix_orthogonal(n):
    s = sector_amplitude_matrix(n, 1)
    assert np.max(np.abs(s @ s.T - np.eye(n))) < 1e-10


def test_sector_table_has_no_state_cap():
    # the table is not capped: its dense callers check MATRIX_CAP, and n = 13 still builds here
    s = sector_amplitude_matrix(13, 1)
    assert s.shape == (13, 13)
    assert np.max(np.abs(s @ s.T - np.eye(13))) < 1e-10
    assert np.max(np.abs(s - sine_transform(13))) < 1e-14


@given(n=st.integers(1, 20), data=st.data())
def test_slater_amplitude_single_mode_is_sine_coefficient(n, data):
    k = data.draw(st.integers(1, n))
    l = data.draw(st.integers(1, n))
    assert sector_amplitude_matrix(n, 1)[k - 1, l - 1] == pytest.approx(sine_transform(n)[k - 1, l - 1], abs=1e-14)


def test_slater_amplitude_pair_fixtures():
    # row 0 of the two-flip table is modes (1, 2); columns 0 and 1 are positions (1, 2) and (1, 3)
    assert sector_amplitude_matrix(4, 2)[0, 0] == pytest.approx(A2, abs=1e-12)
    assert sector_amplitude_matrix(4, 2)[0, 1] == pytest.approx(-0.5, abs=1e-12)


def test_slater_amplitude_empty_tuples():
    assert sector_amplitude_matrix(3, 0).tolist() == [[1.0]]


def test_build_eigenstate_vacuum():
    state = ground_state(3, 0)
    assert state.m == 0
    assert state.amplitudes == pytest.approx([1.0])
    assert dense_vector(state)[0] == 1.0
    assert np.array_equal(sector_amplitude_matrix(3, 0)[0], state.amplitudes)


def test_build_eigenstate_one_flip_pattern():
    row = sector_amplitude_matrix(4, 1)[0]
    assert row == pytest.approx([A1_MINUS, A1_PLUS, A1_PLUS, A1_MINUS], abs=1e-12)


def test_build_eigenstate_two_flip_pattern():
    row = sector_amplitude_matrix(4, 2)[0]
    expected = [A2 * c for c in (1, math.sqrt(5), 2, 2, math.sqrt(5), 1)]
    assert ground_state(4, 2).positions.tolist() == [[1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4]]
    assert row == pytest.approx(expected, abs=1e-12)
    assert row[1] == pytest.approx(-0.5, abs=1e-12)


def test_ground_state_product_endpoints():
    up = dense_vector(ground_state(4, 0))
    assert up[0] == 1.0 and np.count_nonzero(up) == 1
    down = dense_vector(ground_state(4, 4))
    assert abs(down[15]) == pytest.approx(1.0, abs=1e-12) and np.count_nonzero(down) == 1


def test_ground_state_three_flip_pattern_up_to_sign():
    state = ground_state(4, 3)
    expected = [-A1_MINUS, -A1_PLUS, -A1_PLUS, -A1_MINUS]
    assert_equal_up_to_sign(state.amplitudes, expected, 1e-12)


def test_build_eigenstate_cap():
    with pytest.raises(SizeLimitError):
        ground_state(13, 0)
    with pytest.raises(SizeLimitError):
        eigenbasis_matrix(13)


@pytest.mark.parametrize("n", [0, -1, True, 2.0])
@pytest.mark.parametrize("build", [lambda n: ground_state(n, 1), label_occupations, eigenbasis_matrix,
                                   lambda n: sector_index_to_label(1, 0, n), lambda n: label_to_sector_index(1, n)],
                         ids=["ground_state", "label_occupations", "eigenbasis_matrix", "sector_index_to_label",
                              "label_to_sector_index"])
def test_chain_length_follows_chain_params(build, n):
    label_occupations(1)  # a cached n = 1 must not answer for True
    with pytest.raises(ValueError, match="chain length"):
        build(n)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 8), data=st.data())
def test_eigenstates_normalized(n, data):
    label = data.draw(st.integers(1, 2**n))
    r, m = label_to_sector_index(label, n)
    row = sector_amplitude_matrix(n, m)[r - 1]
    assert math.sqrt(row @ row) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_full_eigenbasis_orthonormal_small(n):
    basis = eigenbasis_matrix(n)
    gram = basis.T @ basis
    assert np.max(np.abs(gram - np.eye(1 << n))) < 1e-10


@pytest.mark.parametrize("n", [7, 8])
def test_sector_gram_orthonormal(n):
    for m in range(n + 1):
        vectors = sector_amplitude_matrix(n, m)
        assert np.max(np.abs(vectors @ vectors.T - np.eye(vectors.shape[0]))) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("b", [0.0, 0.31, -0.72])
def test_eigenvector_property_against_oracle(n, b):
    params = ChainParams(n=n, b=b)
    h = build_hamiltonian(params).entries
    basis = eigenbasis_matrix(n)
    residual = h @ basis - basis * label_energies(params)[None, :]
    assert np.max(np.abs(residual)) < 1e-8


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("b", [0.17, 0.55])
def test_oracle_eigenvectors_match_by_projector(n, b):
    # degenerate eigenvalues are compared subspace-by-subspace
    params = ChainParams(n=n, b=b)
    eigenvalues, eigenvectors = diagonalize(build_hamiltonian(params))
    basis = eigenbasis_matrix(n)
    energies = label_energies(params)
    order = np.argsort(energies, kind="stable")
    start = 0
    while start < 1 << n:
        stop = start
        while stop < 1 << n and eigenvalues[stop] - eigenvalues[start] < 1e-9:
            stop += 1
        ours = basis[:, order[start:stop]]
        oracle = eigenvectors[:, start:stop]
        assert np.max(np.abs(ours @ ours.T - oracle @ oracle.T)) < 1e-8
        start = stop


def test_ground_states_mutually_orthogonal():
    n = 5
    dense = [dense_vector(ground_state(n, k)) for k in range(n + 1)]
    for a, b in itertools.combinations(range(n + 1), 2):
        assert abs(dense[a] @ dense[b]) < 1e-12


def test_sector_index_to_label_examples():
    assert sector_starts(4) == [0, 1, 5, 11, 15, 16]
    assert sector_index_to_label(1, 0, 4) == 1
    assert sector_index_to_label(1, 1, 4) == 2
    assert sector_index_to_label(3, 2, 4) == 8


def test_sector_index_validation():
    with pytest.raises(ValueError):
        sector_index_to_label(0, 1, 4)
    with pytest.raises(ValueError):
        sector_index_to_label(1, 5, 4)
    with pytest.raises(ValueError):
        label_to_sector_index(0, 4)
    with pytest.raises(ValueError):
        label_to_sector_index(17, 4)


def popcount(value):
    return bin(int(value)).count("1")


@pytest.mark.parametrize("n", range(1, 13))
def test_label_bijection_exhaustive(n):
    occupations = label_occupations(n)
    assert sorted(occupations.tolist()) == list(range(1 << n))
    for label in range(1, (1 << n) + 1):
        r, m = label_to_sector_index(label, n)
        assert sector_index_to_label(r, m, n) == label
        assert popcount(occupations[label - 1]) == m


@given(n=st.integers(1, 12), data=st.data())
def test_label_round_trip_property(n, data):
    label = data.draw(st.integers(1, 1 << n))
    r, m = label_to_sector_index(label, n)
    assert sector_index_to_label(r, m, n) == label
    value = int(label_occupations(n)[label - 1])
    same_weight_below = [v for v in range(value) if popcount(v) == m]
    assert popcount(value) == m and len(same_weight_below) == r - 1


def test_within_sector_rank_is_ascending_bitmask_order():
    n, m = 5, 2
    start = sector_index_to_label(1, m, n) - 1
    values = label_occupations(n)[start : start + math.comb(n, m)].tolist()
    assert values == sorted(values)
    assert values[0] == 0b11  # modes (1, 2): the sector ground state


def test_combination_rank_lexicographic():
    # column c of a sector table is the c-th ascending position tuple in lex order
    state = ground_state(6, 3)
    combos = list(itertools.combinations(range(1, 7), 3))
    assert list(map(tuple, state.positions.tolist())) == combos
    assert not state.positions.flags.writeable
    dense = dense_vector(state)
    for rank, combo in enumerate(combos):
        assert dense[sum(1 << (p - 1) for p in combo)] == state.amplitudes[rank]
