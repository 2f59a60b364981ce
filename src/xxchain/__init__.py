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
)
from .oracle import build_hamiltonian, diagonalize
from .params import ChainParams, NumericalError, SizeLimitError
from .spectrum import (
    crossing_fields,
    enumerate_levels,
    finite_size_energy_density,
    ground_energy,
    ground_sector,
    log_partition_function,
    mode_energies,
    thermo_energy_density,
)
from .states import (
    eigenbasis_matrix,
    ground_state,
    label_occupations,
    label_to_sector_index,
    sector_index_to_label,
)
from .thermal import (
    DensityMatrix,
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
    "DensityMatrix",
    "NumericalError",
    "SizeLimitError",
    "boltzmann_weights",
    "build_hamiltonian",
    "critical_temperature_two_qubit",
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
]
