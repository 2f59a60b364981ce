import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xxchain.states
from xxchain import (
    ChainParams,
    SizeLimitError,
    boltzmann_weights,
    build_hamiltonian,
    crossing_fields,
    crossing_mixture,
    ground_sector,
    ground_state,
    label_energies,
    log_partition_function,
    purity_analytic,
    purity_dense,
    sector_index_to_label,
    thermal_density_matrix,
)
from xxchain.spectrum import enumerate_levels, mode_energies, mode_signs
from xxchain.thermal import dense_purities, purity_analytics

from density_blocks import FIELDS, complete_mixture, drawn_field, one_block


def crossing_field(n, index):
    return float(crossing_fields(n).fields_b[index])


def pure_density(state):
    """|state><state| of a sector eigenstate, as one block over the full spin basis."""
    vector = np.zeros(1 << state.n)
    vector[xxchain.states.sector_basis_indices(state.n, state.m)] = state.amplitudes
    return one_block(np.outer(vector, vector))


def scattered_gibbs_state(params, beta):
    """The Gibbs state scattered sector by sector into one dense matrix."""
    n = params.n
    probabilities = boltzmann_weights(params, beta).probabilities
    rho = np.zeros((1 << n, 1 << n))
    offset = 0
    for m in range(n + 1):
        count = math.comb(n, m)
        weights = probabilities[offset : offset + count]
        vectors = xxchain.states.sector_amplitude_matrix(n, m)
        indices = xxchain.states.sector_basis_indices(n, m)
        rho[np.ix_(indices, indices)] = (vectors * weights[:, None]).T @ vectors
        offset += count
    return rho


@pytest.mark.parametrize("n", range(1, 21))
def test_weights_infinite_temperature_exactly_uniform(n):
    # the finite-beta path: exp(-0.0) is 1 and the sum, 2^n, is exact
    for j in (1.0, 1e-13, 3.0, 1e6):
        params = ChainParams(n=n, j=j, b=0.4)
        assert np.all(boltzmann_weights(params, 0.0).probabilities == 0.5**n)
        assert log_partition_function(params, 0.0) == pytest.approx(n * math.log(2), rel=1e-14)


@pytest.mark.parametrize("beta,b", [(0.6, 0.9), (3.0, -0.2)])
def test_weights_single_site_closed_form(beta, b):
    p = boltzmann_weights(ChainParams(n=1, b=b), beta).probabilities
    z = 2 * math.cosh(beta * b)
    assert p == pytest.approx([math.exp(beta * b) / z, math.exp(-beta * b) / z], abs=1e-14)


def test_weights_zero_temperature_concentrates_on_unique_minimum():
    # the symmetric one-flip state is the unique minimum at b = 0
    p = boltzmann_weights(ChainParams(n=2, b=0.0), math.inf).probabilities
    assert p == pytest.approx([0.0, 1.0, 0.0, 0.0], abs=0)


def test_weights_zero_temperature_splits_degenerate_pair():
    b = crossing_field(4, 1)  # sectors 1 and 2 cross here
    p = boltzmann_weights(ChainParams(n=4, b=b), math.inf).probabilities
    expected = np.zeros(16)
    expected[1] = expected[5] = 0.5  # labels 2 and 6: rank-1 states of m = 1, 2
    assert p == pytest.approx(expected, abs=1e-15)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 8), b=st.floats(-2, 2), beta=st.floats(0, 50))
def test_weights_normalized(n, b, beta):
    p = boltzmann_weights(ChainParams(n=n, b=b), beta).probabilities
    assert np.all(p >= 0)
    assert float(p.sum()) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("beta", [math.nan, -0.1, True, pytest.param(10**400, id="10**400")])
@pytest.mark.parametrize(
    "function", [log_partition_function, boltzmann_weights, purity_analytic, thermal_density_matrix]
)
def test_inverse_temperature_must_be_non_negative(function, beta):
    """Below 0, nan, a bool, or an int beyond the float range: a ValueError."""
    with pytest.raises(ValueError):
        function(ChainParams(n=3, b=0.2), beta)


@pytest.mark.parametrize("n, b", [(2, 0.3), (2, -1.0), (4, 0.3)])
def test_huge_inverse_temperature_warns_not_and_reaches_the_ground_state(n, b):
    # beta*|lam_k| overflows at beta = 1e308; RuntimeWarnings are errors under the test configuration
    params = ChainParams(n=n, b=b)
    cold = boltzmann_weights(params, 1e308).probabilities
    assert cold.tolist() == boltzmann_weights(params, math.inf).probabilities.tolist()
    assert purity_analytic(params, 1e308) == 1.0
    assert purity_dense(thermal_density_matrix(params, 1e308)) == pytest.approx(1.0, abs=1e-12)
    ground = float(label_energies(params) @ cold)
    if math.isfinite(-1e308 * ground):
        assert log_partition_function(params, 1e308) == pytest.approx(-1e308 * ground, rel=1e-12)
    else:  # -1e308 * E_0 is beyond the float range, so no float holds log Z (inf passed as approx(inf))
        with pytest.raises(ValueError, match="log Z overflows"):
            log_partition_function(params, 1e308)


def test_weights_cap():
    with pytest.raises(SizeLimitError):
        boltzmann_weights(ChainParams(n=21), 1.0)


@pytest.mark.parametrize("build", [lambda: xxchain.states.label_occupations(21),
                                   lambda: label_energies(ChainParams(n=21)),
                                   lambda: boltzmann_weights(ChainParams(n=21), math.inf)],
                         ids=["label_occupations", "label_energies", "boltzmann_weights-zero-temperature"])
def test_label_order_cap(build):
    with pytest.raises(SizeLimitError, match="label order needs n <= 20"):
        build()


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 10), b=st.floats(-3, 3), j=st.floats(0.1, 4), beta=st.floats(1e-3, 50))
def test_weights_keep_the_bits_of_the_out_of_place_formula(n, b, j, beta):
    # boltzmann_weights runs the same elementwise steps in place, on one new array
    params = ChainParams(n=n, j=j, b=b)
    energies = label_energies(params)
    weights = np.exp(-beta * (energies - energies.min()))
    assert np.array_equal(boltzmann_weights(params, beta).probabilities, weights / float(weights.sum()))


@settings(deadline=None, max_examples=30)
@given(n=st.integers(1, 12), j=st.floats(0.1, 4))
def test_cached_label_energies_serve_either_signed_zero_field(n, j):
    # ChainParams(b=-0.0) == ChainParams(b=0.0), so the cache answers one with the other's array
    cached = label_energies(ChainParams(n=n, j=j, b=0.0))
    assert label_energies(ChainParams(n=n, j=j, b=-0.0)) is cached
    assert not cached.flags.writeable
    fresh = enumerate_levels(ChainParams(n=n, j=j, b=-0.0))[xxchain.states.label_occupations(n)]
    assert cached.tobytes() == fresh.tobytes()  # sign bits included


def test_weights_match_closed_form_log_z():
    params = ChainParams(n=7, j=1.4, b=-0.6)
    expected = np.exp(-2.3 * label_energies(params) - log_partition_function(params, 2.3))
    assert boltzmann_weights(params, 2.3).probabilities == pytest.approx(expected, rel=1e-12)


def test_density_matrix_infinite_temperature_is_complete_mixture():
    rho = thermal_density_matrix(ChainParams(n=3, b=0.7), 0.0)
    assert np.max(np.abs(rho.entries - np.eye(8) / 8)) < 1e-12


@pytest.mark.parametrize("n,b,beta", [(2, 0.0, 1.0), (4, 0.31, 2.5), (5, -0.8, 0.4)])
def test_density_matrix_invariants(n, b, beta):
    rho = thermal_density_matrix(ChainParams(n=n, b=b), beta)
    assert np.max(np.abs(rho.entries - rho.entries.T)) < 1e-12
    assert np.trace(rho.entries) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.eigvalsh(rho.entries).min() > -1e-10
    counts = np.array([s.bit_count() for s in range(1 << n)])
    off_sector = counts[:, None] != counts[None, :]
    assert np.max(np.abs(rho.entries[off_sector])) < 1e-14


def test_two_site_state_has_four_term_structure():
    params = ChainParams(n=2, b=0.3)
    beta = 1.0
    rho = thermal_density_matrix(params, beta).entries
    p = boltzmann_weights(params, beta).probabilities
    # label 2 is the symmetric one-flip state (lower), label 3 the antisymmetric
    energies = label_energies(params)
    assert energies[1] < energies[2]
    plus = np.array([0, 1, 1, 0]) / math.sqrt(2)
    minus = np.array([0, 1, -1, 0]) / math.sqrt(2)
    expected = (
        p[0] * np.diag([1.0, 0, 0, 0])
        + p[1] * np.outer(plus, plus)
        + p[2] * np.outer(minus, minus)
        + p[3] * np.diag([0, 0, 0, 1.0])
    )
    assert np.max(np.abs(rho - expected)) < 1e-12
    assert rho[1, 2] == pytest.approx((p[1] - p[2]) / 2, abs=1e-14)


def test_two_site_zero_field_populations():
    p = boltzmann_weights(ChainParams(n=2, b=0.0), 1.0).probabilities
    z = 2 + math.e + 1 / math.e
    assert p == pytest.approx([1 / z, math.e / z, 1 / (math.e * z), 1 / z], abs=1e-14)


def sector_slice(probabilities, n, m):
    start = sector_index_to_label(1, m, n) - 1
    return probabilities[start : start + math.comb(n, m)]


def test_subspace_weights_relabeling():
    params = ChainParams(n=2, b=0.45)
    p = boltzmann_weights(params, 1.7).probabilities
    assert sector_slice(p, 2, 0).tolist() == [p[0]]
    assert sector_slice(p, 2, 1).sum() == pytest.approx(p[1] + p[2], abs=1e-15)
    assert sum(sector_slice(p, 2, m).sum() for m in range(3)) == pytest.approx(1.0, abs=1e-12)


def test_subspace_weights_uniform_and_symmetric():
    n = 4
    p0 = boltzmann_weights(ChainParams(n=n, b=0.8), 0.0).probabilities
    assert all(np.all(sector_slice(p0, n, m) == 0.5**n) for m in range(n + 1))
    p = boltzmann_weights(ChainParams(n=n, b=0.0), 1.2).probabilities
    for m in range(n + 1):
        lower = sector_slice(p, n, m).sum()
        upper = sector_slice(p, n, n - m).sum()
        assert lower == pytest.approx(upper, abs=1e-12)


@pytest.mark.parametrize("n", [1, 4, 9])
def test_purity_infinite_temperature_exact(n):
    assert purity_analytic(ChainParams(n=n, b=0.3), 0.0) == 0.5**n


def test_purity_single_site_value():
    params = ChainParams(n=1, b=1.0)
    expected = 1 - 1 / (1 + math.cosh(2.0))
    assert purity_analytic(params, 1.0) == pytest.approx(expected, abs=1e-14)
    assert purity_analytic(params, 1.0) == pytest.approx(0.790013, abs=1e-6)
    dense = purity_dense(thermal_density_matrix(params, 1.0))
    assert dense == pytest.approx(expected, abs=1e-12)


def test_purity_zero_temperature_dichotomy():
    n = 6
    assert purity_analytic(ChainParams(n=n, b=0.55), math.inf) == 1.0
    assert purity_analytic(ChainParams(n=n, b=crossing_field(n, 2)), math.inf) == 0.5
    # the same dichotomy at a large finite beta
    assert purity_analytic(ChainParams(n=n, b=0.55), 1e4) == pytest.approx(1.0, abs=1e-6)
    assert purity_analytic(ChainParams(n=n, b=crossing_field(n, 2)), 1e4) == pytest.approx(0.5, abs=1e-3)


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("b", [-0.9, 0.31, 0.75])
@pytest.mark.parametrize("beta", [0.4, 1.1, 5.0])
def test_purity_analytic_matches_dense(n, b, beta):
    params = ChainParams(n=n, b=b)
    dense = purity_dense(thermal_density_matrix(params, beta))
    assert abs(purity_analytic(params, beta) - dense) < 1e-10


def one_point_purity(params, beta):
    """The closed form at one beta, as it was written before the temperature axis became one array."""
    if math.isinf(beta):
        return float(np.prod(np.where(mode_signs(params) == 0, 0.5, 1.0)))
    with np.errstate(over="ignore"):
        x = np.abs(beta * mode_energies(params))
    decay = np.exp(-x)
    sech_sq_half = 4.0 * decay / (1.0 + decay) ** 2
    return float(np.prod(1.0 - 0.5 * sech_sq_half))


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 20), j=st.floats(1e-300, 1e300), field=FIELDS,
       betas=st.lists(st.one_of(st.just(math.inf), st.floats(0, 1.7e308)), min_size=1, max_size=12))
@example(n=3, j=1.0, field=(1, 0), betas=[math.inf, 0.0, 2.0])  # t = 0 on a mode of exactly 0.0: inf * 0.0 is nan
@example(n=3, j=1.0, field=0.0, betas=[math.inf, 5e-324, 1.7e308])  # a zero mode by the rule only: lam = -1.2e-16
@example(n=20, j=1e-300, field=(9, 1), betas=[1e300, math.inf, 0.0])
@example(n=20, j=1e300, field=(10, -1), betas=[1e-300, 1.0, math.inf])
def test_closed_form_over_the_temperature_axis_keeps_every_bit(n, j, field, betas):
    params = ChainParams(n=n, j=j, b=drawn_field(n, j, field))
    expected = [one_point_purity(params, beta).hex() for beta in betas]
    assert [value.hex() for value in purity_analytics(params, np.array(betas)).tolist()] == expected
    assert [purity_analytic(params, beta).hex() for beta in betas] == expected


def test_purity_pure_projector_and_mixture():
    assert purity_dense(pure_density(ground_state(4, 2))) == pytest.approx(1.0, abs=1e-12)
    assert purity_dense(complete_mixture(4)) == pytest.approx(2.0**-4, abs=1e-15)


def test_purity_monotone_nonincreasing_in_temperature():
    for b in (0.0, 0.31, crossing_field(5, 1)):
        params = ChainParams(n=5, b=b)
        temperatures = np.linspace(0.05, 3.0, 25)
        values = [purity_analytic(params, 1 / t) for t in temperatures]
        assert all(later <= earlier + 1e-15 for earlier, later in zip(values, values[1:]))


def test_purity_high_temperature_expansion_is_quadratic():
    params = ChainParams(n=4, b=0.31)
    small = purity_analytic(params, 1e-6) - 2.0**-4
    larger = purity_analytic(params, 1e-3) - 2.0**-4
    assert 0 < small < 1e-11
    assert larger / small == pytest.approx(1e6, rel=1e-2)


def test_free_energy_identity():
    for n, b, beta in [(2, 0.4, 1.3), (4, -0.6, 0.7), (6, 0.31, 2.0)]:
        params = ChainParams(n=n, b=b)
        ensemble = boltzmann_weights(params, beta)
        rho = thermal_density_matrix(params, beta)
        h = build_hamiltonian(params).entries
        energy = float(np.einsum("ij,ji->", rho.entries, h))
        p = ensemble.probabilities[ensemble.probabilities > 0]
        free = energy + float(np.sum(p * np.log(p))) / beta
        assert free == pytest.approx(-log_partition_function(params, beta) / beta, abs=1e-8)


def test_crossing_mixture_structure_and_purity():
    rho = crossing_mixture(4, 0)
    up = np.zeros(16)
    up[0] = 1.0
    expected = 0.5 * (np.outer(up, up) + pure_density(ground_state(4, 1)).entries)
    assert np.max(np.abs(rho.entries - expected)) < 1e-14
    assert abs(purity_dense(rho) - 0.5) < 1e-14


def test_crossing_mixture_arguments():
    with pytest.raises(ValueError):
        crossing_mixture(4, 4)
    with pytest.raises(ValueError):
        crossing_mixture(4, -1)
    with pytest.raises(SizeLimitError):
        crossing_mixture(13, 0)


def test_crossing_mixture_cap_reaches_the_ground_states():
    # the mixture and its ground states share one cap, so the largest allowed n builds
    assert purity_dense(crossing_mixture(12, 5)) == pytest.approx(0.5, abs=1e-14)


def test_cold_thermal_state_converges_to_crossing_mixture():
    n, k = 4, 1
    b = crossing_field(n, k)
    cold = thermal_density_matrix(ChainParams(n=n, b=b), 1e3)
    assert np.max(np.abs(cold.entries - crossing_mixture(n, k).entries)) < 1e-6


def test_zero_temperature_thermal_state_equals_mixture_exactly():
    n, k = 6, 3
    b = crossing_field(n, k)
    frozen = thermal_density_matrix(ChainParams(n=n, b=b), math.inf)
    assert np.max(np.abs(frozen.entries - crossing_mixture(n, k).entries)) < 1e-12


def test_dense_cap_checked_and_overridable():
    with pytest.raises(SizeLimitError):
        thermal_density_matrix(ChainParams(n=13), 1.0)
    rho = thermal_density_matrix(ChainParams(n=11, b=0.2), 1.0)
    assert np.trace(rho.entries) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 8),
    b=st.floats(-2, 2),
    beta=st.one_of(st.just(0.0), st.floats(1e-3, 50), st.just(math.inf)),
)
def test_blocked_gibbs_state_matches_full_contraction(n, b, beta):
    params = ChainParams(n=n, b=b)
    rho = thermal_density_matrix(params, beta)
    full = rho.entries
    assert not full.flags.writeable
    assert np.array_equal(full, scattered_gibbs_state(params, beta))
    assert purity_dense(rho) == float(np.einsum("ij,ji->", full, full))


def test_blocked_gibbs_state_holds_one_block_per_sector():
    n = 5
    rho = thermal_density_matrix(ChainParams(n=n, b=0.2), 1.3)
    assert [indices.size for indices, _ in rho.blocks] == [math.comb(n, m) for m in range(n + 1)]
    assert rho.entries is rho.entries


def test_blocks_and_full_matrix_of_other_states_agree():
    vector = np.linspace(-1.0, 1.0, 8) / np.linalg.norm(np.linspace(-1.0, 1.0, 8))
    for rho in (one_block(np.outer(vector, vector)), complete_mixture(3), crossing_mixture(5, 2)):
        assert purity_dense(rho) == float(np.einsum("ij,ji->", rho.entries, rho.entries))


def test_purity_addition_order_pinned_at_production_size():
    # n = 10 blocks reach 252 x 252, and every sector's indices with m >= 2 are unsorted
    n = 10
    near = ChainParams(n=n, b=crossing_field(n, 4) + 1e-3)
    for rho in (
        thermal_density_matrix(ChainParams(n=n, b=0.3), 0.0),
        thermal_density_matrix(ChainParams(n=n, b=0.3), math.inf),
        thermal_density_matrix(near, 40.0),
        crossing_mixture(n, 4),
    ):
        assert purity_dense(rho) == float(np.einsum("ij,ji->", rho.entries, rho.entries))


def unchunked_purity(rho):
    """Each block's transposed products at once: ordered rows, np.add.reduce over axis 0, then np.cumsum."""
    row_sums = np.zeros(rho.dim)
    for indices, block in rho.blocks:
        order = np.argsort(indices)
        row_sums[indices] = np.add.reduce(block[order] * block.T[order], axis=0)
    return float(np.cumsum(row_sums)[-1])


@pytest.mark.parametrize(
    "n, fields, betas",
    [(n, (0.3, crossing_field(n, n // 2)), (0.0, 0.7, 40.0, math.inf)) for n in range(1, 11)]
    + [(12, (crossing_field(12, 5),), (0.7,))],
)
def test_one_array_gibbs_state_keeps_every_bit(n, fields, betas):
    for b in fields:
        params = ChainParams(n=n, b=b)
        for beta in betas:
            probabilities = boltzmann_weights(params, beta).probabilities
            rho = thermal_density_matrix(params, beta)
            for m, (indices, block) in enumerate(rho.blocks):
                vectors = xxchain.states.sector_amplitude_matrix(n, m)
                start = sector_index_to_label(1, m, n) - 1
                expected = (vectors * probabilities[start : start + len(vectors), None]).T @ vectors
                assert np.array_equal(block.view(np.int64), expected.view(np.int64))
                assert not block.flags.writeable
            # each block is copied out of the stream's one buffer
            blocks = [block for _, block in rho.blocks]
            assert not any(np.shares_memory(a, b) for i, a in enumerate(blocks) for b in blocks[i + 1 :])
            assert purity_dense(rho) == unchunked_purity(rho)
            again = thermal_density_matrix(params, beta)
            assert not any(np.shares_memory(block, other) for _, block in rho.blocks for _, other in again.blocks)


BETAS = st.sampled_from((0.0, 1e-300, 1.0, 1e3, math.inf))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 10), j=st.sampled_from((0.5, 1.0, 3.0)),
       points=st.lists(st.tuples(FIELDS, BETAS), min_size=1, max_size=4))
@example(n=11, j=1.0, points=[((5, 0), math.inf), ((4, 1), 1e3), (-0.0, 1.0)])
@example(n=12, j=3.0, points=[((6, -1), 1.0), ((5, 0), 1e-300)])
def test_streamed_purity_keeps_the_bits_of_the_whole_state(n, j, points):
    # one generator, so one buffer, serves every point, as it does a CLI run
    params = [(ChainParams(n=n, j=j, b=drawn_field(n, j, field)), beta) for field, beta in points]
    streamed = list(dense_purities(iter(params)))
    assert [value.hex() for value in streamed] == [
        purity_dense(thermal_density_matrix(chain, beta)).hex() for chain, beta in params]


def test_one_stream_serves_chains_that_grow_and_shrink():
    # the run's buffer grows for n = 4 and n = 10, and every chain after that reuses it
    chains = [(4, 1.0, 0.3, 1.0), (10, 0.5, -0.2, 0.0), (2, 3.0, 1.1, math.inf),
              (7, 1.0, crossing_field(7, 2), math.inf), (10, 1.0, 0.1, 2.5), (1, 1.0, -0.0, 0.0)]
    points = [(ChainParams(n=n, j=j, b=b), beta) for n, j, b, beta in chains]
    streamed = list(dense_purities(iter(points)))
    assert [value.hex() for value in streamed] == [
        purity_dense(thermal_density_matrix(chain, beta)).hex() for chain, beta in points]


def test_purity_stream_checks_the_cap_at_each_point():
    # the cap is checked per point, so an oversized chain after a small one fails only when it is reached
    small = ChainParams(n=4, b=0.3)
    stream = dense_purities(iter([(small, 1.0), (ChainParams(n=13), 1.0)]))
    assert next(stream).hex() == purity_dense(thermal_density_matrix(small, 1.0)).hex()
    with pytest.raises(SizeLimitError):
        next(stream)


def test_purity_adds_within_a_row_one_product_at_a_time():
    # row 0's products are 1 and then sixteen 2^-54: added one at a time, each rounds back to 1.0,
    # while a pairwise sum first adds them to each other and keeps part of them
    matrix = np.zeros((32, 32))
    matrix[0, 0] = 1.0
    matrix[0, 1:17] = matrix[1:17, 0] = 2.0**-27
    assert float(np.sum(matrix[0] * matrix[:, 0])) > 1.0
    assert purity_dense(one_block(matrix)) == 1.0


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n=st.integers(2, 10),
    offset=st.one_of(st.just(0.0), st.floats(-1e-13, 1e-13)),
)
def test_zero_temperature_degeneracy_rule_is_shared(data, n, offset):
    index = data.draw(st.integers(0, n - 1), label="crossing index")
    params = ChainParams(n=n, b=crossing_field(n, index) + offset)
    dense = purity_dense(thermal_density_matrix(params, math.inf))
    assert abs(purity_analytic(params, math.inf) - dense) <= 1e-12
    assert ground_sector(params) == (index, index + 1)


def test_zero_temperature_degeneracy_rule_scales_with_the_coupling():
    # at j = 1e-13 every |lam_k| is below 1e-12, yet no mode is zero: the ground states are unique
    assert boltzmann_weights(ChainParams(n=2, j=1e-13), math.inf).probabilities.tolist() == [0, 1, 0, 0]
    assert purity_analytic(ChainParams(n=4, j=1e-13), math.inf) == 1.0
