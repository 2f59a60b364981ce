"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
pass/fail lines alongside the pytest verdicts.
"""

import math

import numpy as np
import pytest

from xxchain import (
    ChainParams,
    boltzmann_weights,
    build_hamiltonian,
    critical_temperature_two_qubit,
    crossing_fields,
    crossing_mixture,
    diagonalize,
    enumerate_levels,
    finite_size_energy_density,
    ground_energy,
    ground_sector,
    ground_state,
    label_to_sector_index,
    purity_analytic,
    purity_dense,
    sector_index_to_label,
    thermal_density_matrix,
    thermo_energy_density,
)

FIELD_SET = (-1.2, -0.5, 0.0, 0.31, 0.5, 0.81, 1.2)


def report(name, ok, detail):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def test_criterion_1_spectrum_matches_dense_oracle():
    worst = 0.0
    for n in range(1, 9):
        for b in FIELD_SET:
            params = ChainParams(n=n, j=1.0, b=b)
            closed = np.sort(enumerate_levels(params))
            dense = diagonalize(build_hamiltonian(params))[0]
            worst = max(worst, float(np.max(np.abs(closed - dense))))
    report("1 spectrum vs dense oracle", worst < 1e-10, f"max |dE| = {worst:.2e}")


def test_criterion_2_four_site_ground_state_fixtures():
    a1m = 0.5 * math.sqrt(1 - 1 / math.sqrt(5))
    a1p = 0.5 * math.sqrt(1 + 1 / math.sqrt(5))
    a2 = -1 / (2 * math.sqrt(5))
    expected = {
        0: np.array([1.0]),
        1: np.array([a1m, a1p, a1p, a1m]),
        2: a2 * np.array([1, math.sqrt(5), 2, 2, math.sqrt(5), 1]),
        3: np.array([-a1m, -a1p, -a1p, -a1m]),
        4: np.array([1.0]),
    }
    worst = 0.0
    for k, reference in expected.items():
        amplitudes = ground_state(4, k).amplitudes
        gap = min(
            float(np.max(np.abs(amplitudes - reference))),
            float(np.max(np.abs(amplitudes + reference))),
        )
        worst = max(worst, gap)
    report("2 four-site amplitude fixtures", worst < 1e-12, f"max gap = {worst:.2e}")


def test_criterion_3_sector_changes_at_crossing_fields():
    fields = crossing_fields(4).fields_b
    worst = 0.0
    ok = True
    for index, field in enumerate(fields):
        b = float(field)
        above = ground_sector(ChainParams(n=4, b=b + 1e-9))
        below = ground_sector(ChainParams(n=4, b=b - 1e-9))
        ok = ok and (above, below) == (index, index + 1)
        params = ChainParams(n=4, b=b)
        worst = max(worst, abs(ground_energy(params, index) - ground_energy(params, index + 1)))
    report(
        "3 crossings at cos(k pi/5)",
        ok and worst < 1e-12,
        f"sector steps ok = {ok}, max degeneracy gap = {worst:.2e}",
    )


def test_criterion_4_purity_identity_on_grid():
    worst = 0.0
    exact_ok = True
    for n in range(1, 9):
        for b in np.linspace(-1.2, 1.2, 7):
            params = ChainParams(n=n, b=float(b))
            for t in np.linspace(0.1, 2.0, 7):
                analytic = purity_analytic(params, 1 / t)
                dense = purity_dense(thermal_density_matrix(params, 1 / t))
                worst = max(worst, abs(analytic - dense))
            exact_ok = exact_ok and purity_analytic(params, 0.0) == 0.5**n
            exact_ok = exact_ok and abs(purity_dense(thermal_density_matrix(params, 0.0)) - 0.5**n) < 1e-13
    report(
        "4 purity analytic vs dense",
        worst < 1e-10 and exact_ok,
        f"max gap = {worst:.2e}, infinite-T exact = {exact_ok}",
    )


def test_criterion_5_zero_temperature_purity_dichotomy():
    beta = 1e4  # T = 1e-4
    generic = purity_analytic(ChainParams(n=10, b=0.6), beta)
    crossing = purity_analytic(ChainParams(n=10, b=math.cos(3 * math.pi / 11)), beta)
    ok = abs(generic - 1.0) < 1e-6 and abs(crossing - 0.5) < 1e-3
    report(
        "5 cold purity dichotomy",
        ok,
        f"generic = {generic:.8f}, crossing = {crossing:.8f}",
    )


def test_criterion_6_two_qubit_critical_temperature():
    closed_form = 1 / math.log(1 + math.sqrt(2))
    worst_ref = 0.0
    worst_closed = 0.0
    for b in (0.0, 0.3, 0.7, 1.5):
        kt = critical_temperature_two_qubit(ChainParams(n=2, b=b))
        worst_ref = max(worst_ref, abs(kt - 1.134593))
        worst_closed = max(worst_closed, abs(kt - closed_form))
    ok = worst_ref < 1e-5 and worst_closed < 1e-8
    report(
        "6 critical temperature",
        ok,
        f"|kT_c - 1.134593| <= {worst_ref:.2e}, |kT_c - 1/ln(1+sqrt 2)| <= {worst_closed:.2e}",
    )


def test_criterion_7_thermodynamic_limit_convergence():
    worst_large = max(
        abs(finite_size_energy_density(2000, b) - thermo_energy_density(b)) for b in (0.0, 0.3, 0.7)
    )
    worst_fifty = max(
        abs(finite_size_energy_density(50, float(b)) - thermo_energy_density(float(b)))
        for b in np.linspace(-1.5, 1.5, 121)
    )
    ok = worst_large < 2e-3 and worst_fifty < 0.03
    report(
        "7 thermodynamic limit",
        ok,
        f"n=2000 max dev = {worst_large:.2e}, n=50 max dev = {worst_fifty:.2e}",
    )


def test_criterion_8_crossing_mixtures():
    worst_purity = 0.0
    worst_norm = 0.0
    for n in (2, 4, 6):
        fields = crossing_fields(n).fields_b
        for k in range(n):
            mixture = crossing_mixture(n, k)
            worst_purity = max(worst_purity, abs(purity_dense(mixture) - 0.5))
            cold = thermal_density_matrix(ChainParams(n=n, b=float(fields[k])), 1e3)
            worst_norm = max(worst_norm, float(np.max(np.abs(cold.entries - mixture.entries))))
    ok = worst_purity < 1e-14 and worst_norm < 1e-6
    report(
        "8 crossing mixtures",
        ok,
        f"max |purity - 1/2| = {worst_purity:.2e}, max cold-state gap = {worst_norm:.2e}",
    )


def test_criterion_9_two_site_population_exchange():
    grid = np.linspace(-1.5, 1.5, 601)

    def curves(t):
        rows = [boltzmann_weights(ChainParams(n=2, b=float(b)), 1 / t).probabilities for b in grid]
        return np.array(rows)

    sharp = np.abs(np.gradient(curves(0.1), grid, axis=0))
    smooth = np.abs(np.gradient(curves(1.0), grid, axis=0))
    peak_field = abs(float(grid[np.unravel_index(sharp.argmax(), sharp.shape)[0]]))
    ratio = float(smooth.max() / sharp.max())
    ok = ratio < 0.2 and abs(peak_field - 0.5) < 0.05
    report(
        "9 population exchange washes out",
        ok,
        f"derivative ratio = {ratio:.3f}, sharp peak at |b| = {peak_field:.3f}",
    )


def test_criterion_10_label_bijection():
    ok = True
    for n in range(1, 13):
        for label in range(1, (1 << n) + 1):
            r, m = label_to_sector_index(label, n)
            ok = ok and sector_index_to_label(r, m, n) == label
    report("10 label bijection", ok, "all labels round-trip for n <= 12")
