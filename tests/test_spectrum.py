import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xxchain import (
    ChainParams,
    SizeLimitError,
    crossing_fields,
    enumerate_levels,
    ground_energy,
    ground_sector,
    label_energies,
    label_occupations,
    log_partition_function,
    mode_energies,
)
from xxchain.spectrum import level_runs


def eigenenergy(params, value):
    return float(enumerate_levels(params)[value])


def partition_function(params, beta):
    return math.exp(log_partition_function(params, beta))

fields = st.floats(min_value=-3, max_value=3, allow_nan=False)
couplings = st.floats(min_value=0.1, max_value=4, allow_nan=False)


def test_chain_params_validation():
    with pytest.raises(ValueError):
        ChainParams(n=0)
    with pytest.raises(ValueError):
        ChainParams(n=4, j=0.0)
    with pytest.raises(ValueError):
        ChainParams(n=2.5)
    with pytest.raises(ValueError):
        ChainParams(n=10**400)  # beyond the float range, so n*b overflows


@pytest.mark.parametrize("b", [-1.0, 0.0, 0.37])
def test_mode_energies_single_site(b):
    lam = mode_energies(ChainParams(n=1, b=b))
    assert lam == pytest.approx([2 * b], abs=1e-14)


def test_mode_energies_two_sites_zero_field():
    lam = mode_energies(ChainParams(n=2, b=0.0))
    assert lam == pytest.approx([-1.0, 1.0], abs=1e-14)
    assert not lam.flags.writeable


def test_mode_energies_four_sites_zero_field():
    lam = mode_energies(ChainParams(n=4, b=0.0))
    assert lam == pytest.approx([-1.618034, -0.618034, 0.618034, 1.618034], abs=1e-6)


@given(n=st.integers(1, 60), b=fields, j=couplings)
def test_mode_energies_strictly_increasing(n, b, j):
    lam = mode_energies(ChainParams(n=n, j=j, b=b))
    assert np.all(np.diff(lam) > 0)


@pytest.mark.parametrize("j,b", [(math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
def test_chain_params_rejects_non_finite(j, b):
    with pytest.raises(ValueError):
        ChainParams(n=2, j=j, b=b)


@given(
    n=st.integers(1, 20),
    big=st.floats(min_value=1e300, max_value=1.7e308),
    sign=st.sampled_from([-1.0, 1.0]),
    on_field=st.booleans(),
)
def test_chain_params_rejects_overflowing_energies(n, big, sign, on_field):
    j, b = (1.0, sign * big) if on_field else (big, sign * 0.5)
    if not math.isfinite(n * (3 * abs(b) + 2 * j)):
        with pytest.raises(ValueError):
            ChainParams(n=n, j=j, b=b)
        return
    params = ChainParams(n=n, j=j, b=b)
    lam = mode_energies(params)
    # the extreme levels: no mode, every negative mode, every positive mode, every mode
    negative = sum(1 << k for k in range(n) if lam[k] < 0)
    values = np.array([0, negative, (1 << n) - 1 - negative, (1 << n) - 1], dtype=np.int64)
    assert np.all(np.isfinite(lam))
    assert np.all(np.isfinite(enumerate_levels(params)[values]))
    assert math.isfinite(ground_energy(params, 0)) and math.isfinite(ground_energy(params, n))


@given(n=st.integers(1, 40), b=fields, j=couplings)
def test_particle_hole_symmetry(n, b, j):
    plus = mode_energies(ChainParams(n=n, j=j, b=b))
    minus = mode_energies(ChainParams(n=n, j=j, b=-b))
    assert plus == pytest.approx(-minus[::-1], abs=1e-12)


@pytest.mark.parametrize("n,b", [(1, 0.4), (3, -0.8), (6, 1.3)])
def test_eigenenergy_vacuum_and_full(n, b):
    params = ChainParams(n=n, b=b)
    assert eigenenergy(params, 0) == pytest.approx(-n * b, abs=1e-10)
    assert eigenenergy(params, 2**n - 1) == pytest.approx(n * b, abs=1e-10)


@pytest.mark.parametrize("b", [-0.7, 0.0, 1.3])
def test_eigenenergy_single_flip_two_sites_field_free(b):
    # the one-flip symmetric state sits at -j for every field
    params = ChainParams(n=2, b=b)
    assert eigenenergy(params, 0b01) == pytest.approx(-1.0, abs=1e-12)


@given(n=st.integers(1, 12), b=fields, j=couplings, data=st.data())
def test_eigenenergy_equals_occupied_mode_sum(n, b, j, data):
    value = data.draw(st.integers(0, 2**n - 1))
    params = ChainParams(n=n, j=j, b=b)
    lam = mode_energies(params)
    expected = sum(lam[k] for k in range(n) if (value >> k) & 1) - n * b
    assert eigenenergy(params, value) == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("b,expected", [(0.9, 0), (0.5, 1), (0.0, 2), (-0.5, 3), (-0.9, 4)])
def test_ground_sector_four_sites(b, expected):
    assert ground_sector(ChainParams(n=4, b=b)) == expected


def test_ground_sector_steps_by_one_at_each_crossing():
    n = 6
    for index, field in enumerate(crossing_fields(n).fields_b):
        below = ground_sector(ChainParams(n=n, b=float(field) - 1e-9))
        above = ground_sector(ChainParams(n=n, b=float(field) + 1e-9))
        assert (above, below) == (index, index + 1)


def test_ground_sector_reports_degenerate_pair():
    fields_b = crossing_fields(4).fields_b
    for index, field in enumerate(fields_b):
        assert ground_sector(ChainParams(n=4, b=float(field))) == (index, index + 1)


@pytest.mark.parametrize("n,j", [(3, math.inf), (3, math.nan), (2.5, 1.0), (True, 1.0)])
def test_crossing_fields_rejects_what_chain_params_rejects(n, j):
    with pytest.raises(ValueError):
        crossing_fields(n, j)


def test_crossing_fields_values():
    assert crossing_fields(2).fields_b == pytest.approx([0.5, -0.5], abs=1e-12)
    assert crossing_fields(4).fields_b == pytest.approx(
        [0.809017, 0.309017, -0.309017, -0.809017], abs=1e-6
    )
    assert crossing_fields(1).fields_b == pytest.approx([0.0], abs=1e-12)


@given(n=st.integers(1, 30), j=couplings)
def test_crossing_fields_antisymmetric_and_scaled(n, j):
    fields_b = crossing_fields(n, j).fields_b
    assert fields_b == pytest.approx(-fields_b[::-1], abs=1e-12)
    assert fields_b == pytest.approx(j * crossing_fields(n).fields_b, abs=1e-12)


@pytest.mark.parametrize("b", [-0.4, 0.0, 1.1])
def test_ground_energy_values(b):
    assert ground_energy(ChainParams(n=4, b=b), 0) == pytest.approx(-4 * b, abs=1e-12)
    assert ground_energy(ChainParams(n=4, b=b), 1) == pytest.approx(-2 * b - 1.618034, abs=1e-6)
    assert ground_energy(ChainParams(n=4, b=b), 4) == pytest.approx(4 * b, abs=1e-10)


def test_ground_energy_sector_range():
    with pytest.raises(ValueError):
        ground_energy(ChainParams(n=4), -1)
    with pytest.raises(ValueError):
        ground_energy(ChainParams(n=4), 5)


@pytest.mark.parametrize("b", [-1.1, -0.42, 0.17, 0.65, 1.4])
def test_ground_energy_is_spectrum_minimum_away_from_crossings(b):
    params = ChainParams(n=6, b=b)
    lowest = float(enumerate_levels(params).min())
    assert ground_energy(params, ground_sector(params)) == pytest.approx(lowest, abs=1e-10)


def test_adjacent_sectors_degenerate_at_crossing_fields():
    n = 5
    for index, field in enumerate(crossing_fields(n).fields_b):
        params = ChainParams(n=n, b=float(field))
        assert ground_energy(params, index) == pytest.approx(
            ground_energy(params, index + 1), abs=1e-12
        )


def test_enumerate_levels_single_site():
    energies = enumerate_levels(ChainParams(n=1, b=0.3))
    assert energies.tolist() == pytest.approx([-0.3, 0.3], abs=1e-14)


def test_enumerate_levels_two_sites_zero_field():
    energies = enumerate_levels(ChainParams(n=2, b=0.0)).tolist()
    assert energies == pytest.approx([0.0, -1.0, 1.0, 0.0], abs=1e-12)


def test_enumerate_levels_count_and_order():
    params = ChainParams(n=4, b=0.2)
    energies = enumerate_levels(params)
    assert energies.shape == (16,)
    assert not energies.flags.writeable
    lam = mode_energies(params)
    expected = [sum(lam[k] for k in range(4) if (value >> k) & 1) - 4 * 0.2 for value in range(16)]
    assert energies.tolist() == pytest.approx(expected, abs=1e-12)


@settings(deadline=None, max_examples=30)
@given(n=st.integers(1, 16), b=fields, j=couplings)
@example(n=16, b=0.3, j=1.0)
@example(n=16, b=-1.7, j=0.37)
@example(n=11, b=0.0, j=1.0)
def test_chunked_enumeration_matches_one_whole_array_product(n, b, j):
    # level_runs' run length is a power of two: runs of CHUNK_ENTRIES // n = 1,489 rows change bits at n = 11,
    # the first n with several runs.  label_energies gathers the same bits, sign bits included
    params = ChainParams(n=n, j=j, b=b)
    values = np.arange(1 << n, dtype=np.int64)
    whole = ((values[:, None] >> np.arange(n)) & 1).astype(float) @ mode_energies(params) - n * b
    assert np.array_equal(enumerate_levels(params), whole)
    assert np.array_equal(np.concatenate([occupations for occupations, _ in level_runs(params)]), values)
    assert label_energies(params).tobytes() == whole[label_occupations(n)].tobytes()


def test_enumerate_levels_memory_is_chunked():
    # (rows x n) bit temporaries of 2^14 rows took about 6.5 MB at n = 16; the output is 0.5 MB
    params = ChainParams(n=16, b=0.3)
    tracemalloc.start()
    try:
        energies = enumerate_levels(params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - energies.nbytes < 1 << 20


def test_enumerate_levels_cap_is_checked_eagerly():
    with pytest.raises(SizeLimitError):
        enumerate_levels(ChainParams(n=21))
    with pytest.raises(SizeLimitError):
        level_runs(ChainParams(n=21))  # on the call, before the first run is asked for


def test_same_sector_levels_share_field_slope():
    n, b1, b2 = 5, 0.2, 0.9
    lows, highs = enumerate_levels(ChainParams(n=n, b=b1)), enumerate_levels(ChainParams(n=n, b=b2))
    for value, (low, high) in enumerate(zip(lows, highs)):
        m = bin(value).count("1")
        slope = (high - low) / (b2 - b1)
        assert slope == pytest.approx(-(n - 2 * m), abs=1e-9)


@pytest.mark.parametrize("n", [1, 3, 6])
def test_partition_function_infinite_temperature(n):
    assert partition_function(ChainParams(n=n, b=0.4), 0.0) == pytest.approx(2**n, rel=1e-12)


@pytest.mark.parametrize("beta,b", [(0.5, 0.8), (2.0, -0.3)])
def test_partition_function_single_site(beta, b):
    assert partition_function(ChainParams(n=1, b=b), beta) == pytest.approx(
        2 * math.cosh(beta * b), rel=1e-12
    )


def test_partition_function_two_sites_value():
    z = partition_function(ChainParams(n=2, b=0.0), 1.0)
    assert z == pytest.approx(2 + math.e + 1 / math.e, rel=1e-12)
    assert z == pytest.approx(5.086161, abs=1e-6)


@pytest.mark.parametrize("n", [3, 6, 9, 12])
@pytest.mark.parametrize("beta,b", [(0.0, 0.5), (0.7, -0.4), (2.3, 0.31)])
def test_partition_function_matches_level_sum(n, beta, b):
    params = ChainParams(n=n, b=b)
    direct = sum(math.exp(-beta * energy) for energy in enumerate_levels(params).tolist())
    assert partition_function(params, beta) == pytest.approx(direct, rel=1e-12)


def test_log_partition_function_avoids_overflow():
    log_z = log_partition_function(ChainParams(n=50, b=2.0), 1e4)
    assert math.isfinite(log_z)
    assert log_z == pytest.approx(1e4 * 50 * 2.0, rel=1e-3)
    # Z itself is far beyond the largest float, which is why only log Z is offered
    assert log_z > math.log(sys.float_info.max)


@pytest.mark.parametrize("n", range(2, 9))
def test_log_partition_function_fallback_matches_a_log_space_level_sum(n):
    """At j = 1e-300 and beta = 1.7e308, beta*n overflows, so log Z comes from -beta*E_0 + sum_k log(1 +
    exp(-beta*|lam_k|)). At each crossing that equals -beta*E_0 + log sum_v exp(-beta*(E_v - E_0)) over the 2^n
    levels, where the zero mode adds ln 2 (n = 2: 170000000.6931472)."""
    j, beta = 1e-300, 1.7e308
    assert math.isinf(beta * n)
    for b in crossing_fields(n, j).fields_b.tolist():
        levels = enumerate_levels(ChainParams(n=n, j=j, b=b))
        ground = float(levels.min())
        reference = -beta * ground + math.log(math.fsum(np.exp(-beta * (levels - ground)).tolist()))
        assert log_partition_function(ChainParams(n=n, j=j, b=b), beta) == pytest.approx(reference, rel=1e-14)


def test_negative_beta_rejected():
    with pytest.raises(ValueError):
        log_partition_function(ChainParams(n=2), -0.1)


@settings(max_examples=30)
@given(n=st.integers(1, 8), b=fields, j=couplings, beta=st.floats(0, 5))
def test_partition_function_property_sum(n, b, j, beta):
    params = ChainParams(n=n, j=j, b=b)
    direct = sum(math.exp(-beta * energy) for energy in enumerate_levels(params).tolist())
    assert partition_function(params, beta) == pytest.approx(direct, rel=1e-12)
