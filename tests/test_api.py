"""The public API: its one export table, and every public function at edge values (a ValueError with a
message, or finite, valid values)."""

import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

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
    return BipartiteSplit(n, [1])


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
FLOATS = st.builds(lambda value, sign: sign * value, st.sampled_from(EDGES), st.sampled_from([1.0, -1.0]))
# a real argument may also be an int, one beyond the float range included, or a numpy float; scalar results are floats
INTS = st.builds(lambda value, sign: sign * value, st.sampled_from([0, 1, 2, 10**17, 10**300, 10**400]),
                 st.sampled_from([1, -1]))
REALS = st.one_of(FLOATS, FLOATS.map(np.float64), INTS)
FLOAT_RESULTS = {"critical_temperature_two_qubit", "finite_size_energy_density", "ground_energy",
                 "log_partition_function", "negativity", "purity_analytic", "purity_dense", "thermo_energy_density"}
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


def _fresh_stdout(code: str) -> str:
    """What ``python -c code`` prints in a new interpreter that imports this xxchain."""
    source = str(Path(xxchain.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_submodule_and_no_numpy():
    code = "import sys; before = set(sys.modules); import xxchain; print(sorted(set(sys.modules) - before))"
    assert _fresh_stdout(code) == "['xxchain']\n"


def test_dir_lists_every_public_name_before_first_use():
    assert _fresh_stdout("import xxchain; print(set(xxchain.__all__) <= set(dir(xxchain)))") == "True\n"


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from xxchain import *", namespace)
    assert sorted(namespace.keys() - {"__builtins__"}) == xxchain.__all__


def test_each_public_name_is_defined_by_the_module_its_table_entry_names():
    assert {name: getattr(xxchain, name).__module__ for name in xxchain.__all__} == {
        name: f"xxchain.{module}" for name, module in xxchain._MODULE_OF.items()}


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'xxchain' has no attribute 'spectra'$"):
        xxchain.spectra
    assert not hasattr(xxchain, "ChainParam")


@settings(deadline=None, max_examples=300)
@given(name=st.sampled_from(sorted(CALLS)), n=SIZES, j=REALS, b=REALS, beta=REALS,
       k=st.sampled_from([-1, 0, 1, 2, 3, 4, 5, 2.5, 2.0, True]))
@example(name="log_partition_function", n=1, j=5e-324, b=0.0, beta=math.inf, k=0)  # returned nan
@example(name="log_partition_function", n=2, j=1.0, b=-1e17, beta=1e300, k=0)  # returned inf
@example(name="crossing_mixture", n=4, j=1.0, b=0.0, beta=1.0, k=2.0)  # raised TypeError
@example(name="thermo_energy_density", n=1, j=1.0, b=2, beta=0.0, k=0)  # returned the int -2
@example(name="ground_energy", n=2, j=1.0, b=np.float64(0.3), beta=0.0, k=1)  # returned np.float64
@example(name="purity_analytic", n=2, j=1.0, b=0.3, beta=10**400, k=0)  # raised OverflowError
def test_public_functions_reject_or_return_finite_valid_values(name, n, j, b, beta, k):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = CALLS[name](n, j, b, beta, k)
        except ValueError as exc:
            assert str(exc)
            return
    assert all(np.all(np.isfinite(array)) for array in _arrays(value))
    if name in FLOAT_RESULTS:
        assert type(value) is float
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
    "BipartiteSplit": lambda k: BipartiteSplit(4, (1, k)),
    "BipartiteSplit(n)": lambda k: BipartiteSplit(k, [1]),
}


@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
@pytest.mark.parametrize("name", sorted(INDEX_CALLS))
def test_index_arguments_follow_the_rule_for_n(name, k):
    with pytest.raises(ValueError, match="must be an integer"):
        INDEX_CALLS[name](k)


# each public entry point that takes a real number (a coupling or a field), called with x
REAL_CALLS = {
    "ChainParams(j)": lambda x: ChainParams(n=2, j=x),
    "ChainParams(b)": lambda x: ChainParams(n=2, b=x),
    "thermo_energy_density": lambda x: xxchain.thermo_energy_density(x),
}


@pytest.mark.parametrize("x", [1j, None, "0.3", True, np.float32(3e38), pytest.param(10**400, id="10**400")], ids=repr)
@pytest.mark.parametrize("name", sorted(REAL_CALLS))
def test_real_arguments_follow_one_rule(name, x):
    """Not an int or float, a bool, or an int beyond the float range: a ValueError with a message, and no warning
    on the way (float32 3e38 doubled overflows in float32)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite and real"):
            REAL_CALLS[name](x)
