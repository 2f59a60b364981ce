import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xxchain.entanglement
from xxchain import (
    BipartiteSplit,
    ChainParams,
    DensityMatrix,
    NumericalError,
    boltzmann_weights,
    critical_temperature_two_qubit,
    crossing_mixture,
    negativity,
    partial_transpose,
    thermal_density_matrix,
)
from xxchain.entanglement import PPT_ATOL

KT_C = 1 / math.log(1 + math.sqrt(2))
SPLIT_11 = BipartiteSplit.of(2, (1,))


def one_block(matrix):
    """A DensityMatrix of one block over all spin-basis indices."""
    matrix = np.array(matrix, dtype=float)
    return DensityMatrix(len(matrix), ((np.arange(len(matrix)), matrix),))


def pure_density(vector):
    return one_block(np.outer(vector, vector))


def complete_mixture(n):
    return one_block(np.eye(1 << n) / (1 << n))


def singlet_density():
    return pure_density(np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2))


def four_population_state(p1, p2, p3, p4):
    """The two-site Gibbs form: p1 on |up,up>, p4 on |down,down>, p2 and p3 on the symmetric and antisymmetric flips."""
    flip, exchange = (p2 + p3) / 2, (p2 - p3) / 2
    return one_block(
        np.array([[p1, 0, 0, 0], [0, flip, exchange, 0], [0, exchange, flip, 0], [0, 0, 0, p4]])
    )


def test_split_construction_and_validation():
    split = BipartiteSplit.of(4, (2, 4))
    assert split.sites_b == (1, 3)
    assert str(split) == "2,4|1,3"
    with pytest.raises(ValueError):
        BipartiteSplit.of(3, ())
    with pytest.raises(ValueError):
        BipartiteSplit.of(3, (1, 2, 3))
    with pytest.raises(ValueError):
        BipartiteSplit((1, 2), (2, 3))


def test_partial_transpose_is_hermitian_and_trace_preserving():
    rho = thermal_density_matrix(ChainParams(n=3, b=0.4), 1.2)
    pt = partial_transpose(rho, BipartiteSplit.of(3, (1,)))
    assert np.max(np.abs(pt - pt.T)) < 1e-14
    assert np.trace(pt) == pytest.approx(1.0, abs=1e-12)


def test_partial_transpose_product_state_spectrum_unchanged():
    a = np.array([[0.7, 0.1], [0.1, 0.3]])
    b = np.array([[0.6, -0.2], [-0.2, 0.4]])
    rho = one_block(np.kron(b, a))  # site 1 varies fastest
    pt = partial_transpose(rho, SPLIT_11)
    assert np.linalg.eigvalsh(pt) == pytest.approx(np.linalg.eigvalsh(rho.entries), abs=1e-12)


def test_partial_transpose_identity_fixed_point():
    rho = complete_mixture(2)
    assert np.array_equal(partial_transpose(rho, SPLIT_11), rho.entries)


def tensor_partial_transpose(matrix, split):
    """The partial transpose as an axis swap of the full matrix's 2n-axis tensor."""
    n = split.n
    tensor = matrix.reshape((2,) * (2 * n))
    axes = list(range(2 * n))
    for site in split.sites_b:
        # C-order reshape puts site n first: site s is row axis n - s, column axis 2n - s
        axes[n - site], axes[2 * n - site] = axes[2 * n - site], axes[n - site]
    return np.ascontiguousarray(tensor.transpose(axes).reshape(matrix.shape))


@st.composite
def states_and_splits(draw):
    n = draw(st.integers(2, 8))
    sites_a = draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1))
    kind = draw(st.sampled_from(["gibbs", "crossing", "one-block"]))
    if kind == "gibbs":
        beta = draw(st.sampled_from([0.0, math.inf]) | st.floats(1e-3, 50))
        rho = thermal_density_matrix(ChainParams(n=n, b=draw(st.floats(-2, 2))), beta)
    elif kind == "crossing":
        rho = crossing_mixture(n, draw(st.integers(0, n - 1)))
    else:
        matrix = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((1 << n, 1 << n))
        rho = one_block(matrix + matrix.T)
    return rho, BipartiteSplit.of(n, sites_a)


@settings(max_examples=60, deadline=None)
@given(case=states_and_splits())
def test_partial_transpose_matches_tensor_transpose(case):
    rho, split = case
    assert np.array_equal(partial_transpose(rho, split), tensor_partial_transpose(rho.entries, split))


@pytest.mark.parametrize("n,one_block", [(8, False), (10, False), (10, True)])
def test_partial_transpose_holds_no_second_full_matrix(n, one_block):
    # built from the blocks: neither rho's full matrix nor a dim x dim index array appears
    rho = complete_mixture(n) if one_block else thermal_density_matrix(ChainParams(n=n, b=0.3), 2.0)
    split = BipartiteSplit.of(n, range(1, n // 2 + 1))
    tracemalloc.start()
    try:
        pt = partial_transpose(rho, split)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * pt.nbytes


def test_partial_transpose_singlet_minimum_eigenvalue():
    pt = partial_transpose(singlet_density(), SPLIT_11)
    assert np.linalg.eigvalsh(pt).min() == pytest.approx(-0.5, abs=1e-12)


def test_negativity_singlet_and_product():
    assert negativity(singlet_density(), SPLIT_11) == pytest.approx(0.5, abs=1e-12)
    up = np.zeros(4)
    up[0] = 1.0
    assert negativity(pure_density(up), SPLIT_11) <= 1e-12


@pytest.mark.parametrize("b", [0.0, 0.7])
def test_thermal_state_separable_above_threshold(b):
    rho = thermal_density_matrix(ChainParams(n=2, b=b), 1 / 2.0)
    assert negativity(rho, SPLIT_11) <= 1e-12


def test_negativity_swapping_split_sides():
    rho = thermal_density_matrix(ChainParams(n=3, b=0.2), 2.0)
    one = negativity(rho, BipartiteSplit((1,), (2, 3)))
    other = negativity(rho, BipartiteSplit((2, 3), (1,)))
    assert one == pytest.approx(other, abs=1e-12)


def test_negativity_dimension_mismatch():
    with pytest.raises(ValueError):
        negativity(singlet_density(), BipartiteSplit.of(3, (1,)))


def test_two_qubit_separable_examples():
    assert negativity(four_population_state(0.25, 0.25, 0.25, 0.25), SPLIT_11) <= PPT_ATOL
    assert negativity(four_population_state(0.0, 1.0, 0.0, 0.0), SPLIT_11) == pytest.approx(0.5, abs=1e-12)
    # exact dyadic boundary point 4*p1*p4 = (p2 - p3)^2 counts as separable
    assert negativity(four_population_state(0.125, 0.5, 0.25, 0.125), SPLIT_11) <= PPT_ATOL


@pytest.mark.parametrize("b", [0.0, 0.3, 0.7, 1.5, 1e17, 1e300])
def test_critical_temperature_value(b):
    kt = critical_temperature_two_qubit(ChainParams(n=2, b=b))
    assert kt == pytest.approx(1.134593, abs=1e-5)
    assert kt == pytest.approx(KT_C, abs=1e-8)


def test_critical_temperature_field_independent():
    values = [critical_temperature_two_qubit(ChainParams(n=2, b=b)) for b in (0.0, 0.3, 0.7, 1.5)]
    assert max(values) - min(values) < 1e-8


@pytest.mark.parametrize("j", [0.5, 2.0])
def test_critical_temperature_scales_with_coupling(j):
    scaled = critical_temperature_two_qubit(ChainParams(n=2, j=j, b=0.4))
    reference = critical_temperature_two_qubit(ChainParams(n=2, b=0.4))
    assert scaled == pytest.approx(j * reference, abs=1e-8)


@given(j=st.floats(1e-3, 1e4), field=st.floats(-2.0, 2.0))
def test_critical_temperature_bracket_scales_with_coupling(j, field):
    # the default bracket is read in units of J, so large and small couplings are bracketed too
    kt = critical_temperature_two_qubit(ChainParams(n=2, j=j, b=field * j))
    assert kt / j == pytest.approx(KT_C, abs=1e-8)


def test_critical_temperature_requires_two_sites():
    with pytest.raises(ValueError):
        critical_temperature_two_qubit(ChainParams(n=3))


def test_critical_temperature_bracket_failure(monkeypatch):
    monkeypatch.setattr(xxchain.entanglement, "_KT_BRACKET", (2.0, 3.0))
    with pytest.raises(NumericalError):
        critical_temperature_two_qubit(ChainParams(n=2))


def test_negativity_agrees_with_population_criterion():
    for b in (0.0, 0.35, 0.8, 1.4):
        for t in (0.3, 0.8, 1.0, 1.3, 2.0):
            params = ChainParams(n=2, b=b)
            p = boltzmann_weights(params, 1 / t).probabilities
            # p[0], p[3]: aligned states; p[1], p[2]: symmetric and antisymmetric one-flip states
            separable = 4.0 * p[0] * p[3] >= (p[1] - p[2]) ** 2
            entangled = negativity(thermal_density_matrix(params, 1 / t), SPLIT_11) > 1e-10
            assert separable == (not entangled), (b, t)


def test_crossing_mixture_negativity_regression():
    # 1/2(|up,up><up,up| + |plus><plus|): the partial transpose has one negative
    # eigenvalue (1 - sqrt(2))/4, so the zero-temperature crossing state is entangled
    expected = (math.sqrt(2) - 1) / 4
    assert negativity(crossing_mixture(2, 0), SPLIT_11) == pytest.approx(expected, abs=1e-10)
    assert negativity(crossing_mixture(2, 1), SPLIT_11) == pytest.approx(expected, abs=1e-10)
