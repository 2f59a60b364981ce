"""Exact solutions of the finite open XX chain in a transverse field.

Closed-form spectra and spin-basis eigenstates, thermal Gibbs states with an
analytic purity formula, two-qubit entanglement thresholds, thermodynamic-limit
energies, and a brute-force dense oracle everything is validated against.

Each public name imports its module on first use, so ``import xxchain`` loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# each module and the public names it defines
_EXPORTS = {
    "entanglement": ("BipartiteSplit", "critical_temperature_two_qubit", "negativity", "partial_transpose"),
    "oracle": ("build_hamiltonian", "diagonalize"),
    "params": ("ChainParams", "NumericalError", "SizeLimitError"),
    "spectrum": ("crossing_fields", "enumerate_levels", "finite_size_energy_density", "ground_energy",
                 "ground_sector", "log_partition_function", "mode_energies", "thermo_energy_density"),
    "states": ("eigenbasis_matrix", "ground_state", "label_occupations", "label_to_sector_index",
               "sector_index_to_label"),
    "thermal": ("DensityMatrix", "boltzmann_weights", "crossing_mixture", "label_energies", "purity_analytic",
                "purity_dense", "thermal_density_matrix"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
