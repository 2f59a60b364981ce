import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xxchain import (
    crossing_fields,
    finite_size_energy_density,
    thermo_energy_density,
)
from xxchain.cli import run

# max of n * |finite-size deviation| measured over n in {10..640}, b in {0, 0.3,
# 0.5, 0.7} is 0.363; pinned with headroom as a regression bound
DEVIATION_BOUND = 0.45


def derivative(b, h=1e-5):
    return (thermo_energy_density(b + h) - thermo_energy_density(b - h)) / (2 * h)


def second_derivative(b, h=1e-4):
    return (
        thermo_energy_density(b + h) - 2 * thermo_energy_density(b) + thermo_energy_density(b - h)
    ) / h**2


def test_limit_curve_values():
    assert thermo_energy_density(0.0) == pytest.approx(-2 / math.pi, abs=1e-12)
    assert thermo_energy_density(1.0) == -1.0
    assert thermo_energy_density(-1.0) == -1.0
    assert thermo_energy_density(2.0) == -2.0
    assert thermo_energy_density(-2.0) == -2.0


@pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
def test_limit_curve_rejects_a_non_finite_field(b):
    # nan returned nan and +-inf returned -inf
    with pytest.raises(ValueError, match="must be finite"):
        thermo_energy_density(b)


def test_thermo_limit_is_polarized_where_the_field_ratio_overflows(capsys):
    # b/J of the second field overflows: the run exited 2 with "field b/J must be finite, got inf"
    assert run(["thermo-limit", "--sizes", "4", "--j", "1e-300", "--b-range", "0:1e10:2"]) == 0
    assert capsys.readouterr() == (
        "n,b,energy_density,limit,deviation\n"
        "4,0,-5.59016994e-301,-6.36619772e-301,7.7602778e-302\n"
        "4,1e+10,-1e+10,-1e+10,0\n",
        "",
    )


def test_limit_curve_continuous_at_edges():
    for b in (1 - 1e-9, 1 + 1e-9, -1 - 1e-9, -1 + 1e-9):
        assert thermo_energy_density(b) == pytest.approx(-1.0, abs=1e-8)


@given(b=st.floats(-3, 3, allow_nan=False))
def test_limit_curve_even_in_field(b):
    assert thermo_energy_density(b) == pytest.approx(thermo_energy_density(-b), abs=1e-12)


def test_derivative_identity():
    # the square-root terms cancel, leaving (2/pi)(arccos b - pi/2)
    for b in np.linspace(-0.99, 0.99, 41):
        expected = (2 / math.pi) * (math.acos(b) - math.pi / 2)
        assert derivative(float(b)) == pytest.approx(expected, abs=1e-6)


def test_second_derivative_diverges_only_at_edges():
    closed = lambda b: -(2 / math.pi) / math.sqrt(1 - b * b)
    for b in (0.9, 0.99, 0.999):
        assert second_derivative(b) == pytest.approx(closed(b), rel=0.1)
    inner = max(abs(second_derivative(float(b))) for b in np.linspace(-0.9, 0.9, 37))
    assert inner <= 1.5 * abs(closed(0.9))
    assert abs(second_derivative(0.9999)) > 20 * inner


def test_finite_size_polarized_region():
    assert finite_size_energy_density(4, 0.9) == pytest.approx(-0.9, abs=1e-12)
    assert finite_size_energy_density(50, 1.3) == pytest.approx(-1.3, abs=1e-12)


def test_finite_size_ten_sites_zero_field():
    # frozen value of the k = 5 cosine sum; the limit misses it by 0.034
    assert finite_size_energy_density(10, 0.0) == pytest.approx(-0.6026674183, abs=1e-9)
    deviation = abs(finite_size_energy_density(10, 0.0) - thermo_energy_density(0.0))
    assert deviation == pytest.approx(0.03395235, abs=1e-7)


def test_finite_size_fifty_sites_tracks_limit():
    assert finite_size_energy_density(50, 0.5) == pytest.approx(thermo_energy_density(0.5), abs=0.02)


@pytest.mark.parametrize("b", [0.0, 0.3, 0.7])
def test_finite_size_two_thousand_sites(b):
    assert abs(finite_size_energy_density(2000, b) - thermo_energy_density(b)) < 2e-3


def test_finite_size_handles_exact_crossing_fields():
    b = float(crossing_fields(8).fields_b[2])
    assert math.isfinite(finite_size_energy_density(8, b))


def test_coupling_rescales_energy_density():
    assert finite_size_energy_density(12, 0.8, j=2.0) == pytest.approx(
        2.0 * finite_size_energy_density(12, 0.4), abs=1e-12
    )


@pytest.mark.parametrize("b", [0.0, 0.3, 0.5, 0.7])
def test_deviation_bounded_by_pinned_constant_over_n(b):
    for n in (10, 20, 40, 80, 160, 320, 640):
        deviation = abs(finite_size_energy_density(n, b) - thermo_energy_density(b))
        assert deviation <= DEVIATION_BOUND / n


@pytest.mark.parametrize("b", [0.0, 0.3, 0.7])
def test_deviation_shrinks_monotonically(b):
    sizes = (10, 20, 40, 80, 160, 320, 640)
    deviations = [abs(finite_size_energy_density(n, b) - thermo_energy_density(b)) for n in sizes]
    assert all(later < earlier for earlier, later in zip(deviations, deviations[1:]))


def test_crossing_density_values():
    fields = crossing_fields(5).fields_b  # sector fractions omega = k/6
    assert fields[2] == pytest.approx(0.0, abs=1e-12)  # omega = 1/2
    assert fields[1] == pytest.approx(0.5, abs=1e-12)  # omega = 1/3
    assert np.all(np.diff(crossing_fields(49).fields_b) < 0)


def test_crossing_density_matches_finite_size_fields():
    # every chain's crossing fields sample one curve of the sector fraction omega = k/(n+1), cos(pi*omega)
    base = crossing_fields(9).fields_b
    assert base == pytest.approx(np.cos(np.pi * np.arange(1, 10) / 10), abs=1e-12)
    for n in (19, 39, 79):
        step = (n + 1) // 10
        assert crossing_fields(n).fields_b[step - 1 :: step] == pytest.approx(base, abs=1e-12)


def test_crossing_gaps_shrink_like_one_over_n():
    def max_gap(n):
        fields = [f for f in crossing_fields(n).fields_b if -0.9 < f < 0.9]
        return max(abs(a - b) for a, b in zip(fields, fields[1:]))

    for n in (20, 40, 80, 160):
        assert max_gap(2 * n) < 0.7 * max_gap(n)


def test_convergence_report_rows(capsys):
    assert run(["thermo-limit", "--sizes", "10", "50", "200", "--b", "0.3", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["n"] for row in rows] == [10, 50, 200]
    for row in rows:
        assert row["b"] == 0.3
        assert row["energy_density"] == finite_size_energy_density(row["n"], 0.3)
        assert row["limit"] == pytest.approx(thermo_energy_density(0.3), abs=0)
        assert row["deviation"] == pytest.approx(abs(row["energy_density"] - row["limit"]), abs=0)
    assert rows[0]["deviation"] > rows[1]["deviation"] > rows[2]["deviation"]
