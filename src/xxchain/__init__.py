"""Exact solutions of the finite open XX chain in a transverse field.

Closed-form spectra and spin-basis eigenstates, thermal Gibbs states with an
analytic purity formula, two-qubit entanglement thresholds, thermodynamic-limit
energies, and a brute-force dense oracle everything is validated against.
"""

from .entanglement import (
    BipartiteSplit,
    critical_temperature_two_qubit,
    negativity,
    partial_transpose,
    two_qubit_separable,
)
from .limits import (
    crossing_density,
    finite_size_energy_density,
    thermo_energy_density,
)
from .oracle import DenseHamiltonian, build_hamiltonian, diagonalize
from .params import ChainParams, NumericalError, SizeLimitError
from .spectrum import (
    CrossingSet,
    ModeSpectrum,
    crossing_fields,
    enumerate_levels,
    ground_energy,
    ground_sector,
    log_partition_function,
    mode_energies,
)
from .states import (
    SpinBasisVector,
    eigenbasis_matrix,
    ground_state,
    label_occupations,
    label_to_sector_index,
    sector_index_to_label,
)
from .thermal import (
    DensityMatrix,
    ThermalEnsemble,
    boltzmann_weights,
    crossing_mixture,
    label_energies,
    purity_analytic,
    purity_dense,
    thermal_density_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BipartiteSplit",
    "ChainParams",
    "CrossingSet",
    "DenseHamiltonian",
    "DensityMatrix",
    "ModeSpectrum",
    "NumericalError",
    "SizeLimitError",
    "SpinBasisVector",
    "ThermalEnsemble",
    "boltzmann_weights",
    "build_hamiltonian",
    "critical_temperature_two_qubit",
    "crossing_density",
    "crossing_fields",
    "crossing_mixture",
    "diagonalize",
    "eigenbasis_matrix",
    "enumerate_levels",
    "finite_size_energy_density",
    "ground_energy",
    "ground_sector",
    "ground_state",
    "label_energies",
    "label_occupations",
    "label_to_sector_index",
    "log_partition_function",
    "mode_energies",
    "negativity",
    "partial_transpose",
    "purity_analytic",
    "purity_dense",
    "sector_index_to_label",
    "thermal_density_matrix",
    "thermo_energy_density",
    "two_qubit_separable",
]
