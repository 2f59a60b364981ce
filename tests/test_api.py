"""Every public function of xxchain at edge values: a ValueError with a message, or finite, valid values."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import xxchain
from xxchain import BipartiteSplit, ChainParams
from xxchain.params import LEVEL_CAP, MATRIX_CAP
from xxchain.spectrum import CrossingSet
from xxchain.thermal import DensityMatrix, ThermalEnsemble


def _params(n, j, b):
    return ChainParams(n=n, j=j, b=b)


def _gibbs(n, j, b, beta):
    return xxchain.thermal_density_matrix(_params(n, j, b), beta)


def _split(n):
    return BipartiteSplit.of(n, [1])


# each public function, called with (n, j, b, beta, k) drawn below
CALLS = {
    "boltzmann_weights": lambda n, j, b, beta, k: xxchain.boltzmann_weights(_params(n, j, b), beta),
    "build_hamiltonian": lambda n, j, b, beta, k: xxchain.build_hamiltonian(_params(n, j, b)),
    "critical_temperature_two_qubit": lambda n, j, b, beta, k: xxchain.critical_temperature_two_qubit(_params(n, j, b)),
    "crossing_fields": lambda n, j, b, beta, k: xxchain.crossing_fields(n, j),
    "crossing_mixture": lambda n, j, b, beta, k: xxchain.crossing_mixture(n, k),
    "diagonalize": lambda n, j, b, beta, k: xxchain.diagonalize(xxchain.build_hamiltonian(_params(n, j, b))),
    "eigenbasis_matrix": lambda n, j, b, beta, k: xxchain.eigenbasis_matrix(n),
    "enumerate_levels": lambda n, j, b, beta, k: xxchain.enumerate_levels(_params(n, j, b)),
    "finite_size_energy_density": lambda n, j, b, beta, k: xxchain.finite_size_energy_density(n, b, j),
    "ground_energy": lambda n, j, b, beta, k: xxchain.ground_energy(_params(n, j, b), k),
    "ground_sector": lambda n, j, b, beta, k: xxchain.ground_sector(_params(n, j, b)),
    "ground_state": lambda n, j, b, beta, k: xxchain.ground_state(n, k),
    "label_energies": lambda n, j, b, beta, k: xxchain.label_energies(_params(n, j, b)),
    "label_occupations": lambda n, j, b, beta, k: xxchain.label_occupations(n),
    "label_to_sector_index": lambda n, j, b, beta, k: xxchain.label_to_sector_index(k, n),
    "log_partition_function": lambda n, j, b, beta, k: xxchain.log_partition_function(_params(n, j, b), beta),
    "mode_energies": lambda n, j, b, beta, k: xxchain.mode_energies(_params(n, j, b)),
    "negativity": lambda n, j, b, beta, k: xxchain.negativity(_gibbs(n, j, b, beta), _split(n)),
    "partial_transpose": lambda n, j, b, beta, k: xxchain.partial_transpose(_gibbs(n, j, b, beta), _split(n)),
    "purity_analytic": lambda n, j, b, beta, k: xxchain.purity_analytic(_params(n, j, b), beta),
    "purity_dense": lambda n, j, b, beta, k: xxchain.purity_dense(_gibbs(n, j, b, beta)),
    "sector_index_to_label": lambda n, j, b, beta, k: xxchain.sector_index_to_label(1, k, n),
    "thermal_density_matrix": lambda n, j, b, beta, k: _gibbs(n, j, b, beta),
    "thermo_energy_density": lambda n, j, b, beta, k: xxchain.thermo_energy_density(b),
}
EDGES = [0.0, -0.0, 5e-324, 1e-300, 1.0, 1e17, 1e300, 1e308, math.inf, math.nan]
REALS = st.builds(lambda value, sign: sign * value, st.sampled_from(EDGES), st.sampled_from([1.0, -1.0]))
# small chains and the first size over each cap: the functions without a cap allocate O(n), or 2^n at n <= 21
SIZES = st.sampled_from([0, 1, 2, 3, 4, MATRIX_CAP + 1, LEVEL_CAP + 1])


def _arrays(value):
    """Every number a result holds, as float arrays."""
    if isinstance(value, tuple):
        for item in value:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(value):
        for item in dataclasses.fields(value):
            yield from _arrays(getattr(value, item.name))
    else:
        yield np.asarray(value, dtype=float)


def test_every_public_function_is_called():
    functions = {name for name in xxchain.__all__ if not isinstance(getattr(xxchain, name), type)}
    assert functions == set(CALLS)


@settings(deadline=None, max_examples=300)
@given(name=st.sampled_from(sorted(CALLS)), n=SIZES, j=REALS, b=REALS, beta=REALS,
       k=st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 2.5, 2.0, True]))
@example(name="log_partition_function", n=1, j=5e-324, b=0.0, beta=math.inf, k=0)  # returned nan
@example(name="log_partition_function", n=2, j=1.0, b=-1e17, beta=1e300, k=0)  # returned inf
@example(name="crossing_mixture", n=4, j=1.0, b=0.0, beta=1.0, k=2.0)  # raised TypeError
def test_public_functions_reject_or_return_finite_valid_values(name, n, j, b, beta, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = CALLS[name](n, j, b, beta, k)
        except ValueError as exc:
            assert str(exc)
            return
    assert all(np.all(np.isfinite(array)) for array in _arrays(value))
    rounding = 64 * np.finfo(float).eps
    if isinstance(value, ThermalEnsemble):
        assert np.all(value.probabilities >= 0)
        assert abs(value.probabilities.sum() - 1) <= rounding
    if isinstance(value, DensityMatrix):
        assert abs(sum(np.trace(block) for _, block in value.blocks) - 1) <= rounding
    if name.startswith("purity"):
        assert 0.5**n - rounding <= value <= 1 + rounding
    if name == "negativity":
        assert value >= 0
    if isinstance(value, CrossingSet):
        assert np.all(np.diff(value.fields_b) <= 0)


# each public entry point that takes an index (a sector, rank, label or site), called with k
INDEX_CALLS = {
    "ground_energy": lambda k: xxchain.ground_energy(ChainParams(n=4, b=0.3), k),
    "ground_state": lambda k: xxchain.ground_state(4, k),
    "crossing_mixture": lambda k: xxchain.crossing_mixture(4, k),
    "sector_index_to_label(m)": lambda k: xxchain.sector_index_to_label(1, k, 4),
    "sector_index_to_label(r)": lambda k: xxchain.sector_index_to_label(k, 1, 4),
    "label_to_sector_index": lambda k: xxchain.label_to_sector_index(k, 4),
    "BipartiteSplit.of": lambda k: BipartiteSplit.of(4, [k]),
}


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
@pytest.mark.parametrize("name", sorted(INDEX_CALLS))
def test_index_arguments_follow_the_rule_for_n(name, k):
    with pytest.raises(ValueError, match="must be an integer"):
        INDEX_CALLS[name](k)
