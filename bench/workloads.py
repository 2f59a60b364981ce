"""The four benchmark workloads: CLI argv from a seed, and output checks.

Every check recomputes what it can from the paper's closed forms with this
file's own numpy, so a wrong answer from the package cannot pass by agreeing
with itself.  Nothing here imports xxchain.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

J = 1.0
PPT_ATOL = 1e-12


class CheckFailed(Exception):
    """The CLI output disagrees with the independent recomputation."""


@dataclass(frozen=True)
class Grid:
    """Inclusive linear grid, passed to the CLI as ``min:max:steps``."""

    lo: float
    hi: float
    steps: int

    def shifted(self, fraction: float) -> "Grid":
        """Both endpoints moved by ``fraction`` of one step: same size, same per-point cost."""
        step = (self.hi - self.lo) / (self.steps - 1)
        return Grid(self.lo + fraction * step, self.hi + fraction * step, self.steps)

    def arg(self) -> str:
        return f"{self.lo!r}:{self.hi!r}:{self.steps}"

    def values(self) -> list[float]:
        return np.linspace(self.lo, self.hi, self.steps).tolist()


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    fields: Grid | None
    temperatures: Grid | None
    # argv after ``python -m xxchain.cli``, from the seeded grids and the output path
    argv: Callable[["Workload", Grid | None, Grid | None, str], list[str]]
    # (output bytes, fields, temperatures) -> number of data rows; raises CheckFailed
    check: Callable[["Workload", bytes, Grid | None, Grid | None], int]
    writes_stdout: bool = False
    # modules expected to own the largest self time in the traced run
    dominant: tuple[str, ...] = ()

    def grids(self, seed: int) -> tuple[Grid | None, Grid | None]:
        rng = random.Random(seed)
        field_shift, temperature_shift = rng.random(), rng.random()
        fields = self.fields.shifted(field_shift) if self.fields else None
        temperatures = self.temperatures.shifted(temperature_shift) if self.temperatures else None
        return fields, temperatures


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _close(value: float, reference: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(value - reference) <= abs_ + rel * abs(reference)


def mode_energies(n: int, b: float) -> np.ndarray:
    """lam_k = 2B - 2J cos(pi k/(N+1)), k = 1..N."""
    k = np.arange(1, n + 1)
    return 2.0 * b - 2.0 * J * np.cos(np.pi * k / (n + 1))


def _popcount(values: np.ndarray, n: int) -> np.ndarray:
    return sum((values >> k) & 1 for k in range(n))


# --- spectrum-sweep -----------------------------------------------------------


def _spectrum_argv(w, fields, temperatures, out):
    return ["spectrum", "--n", str(w.n), "--b-range", fields.arg(), "--output", out]


def _spectrum_check(w, data, fields, temperatures):
    header, _, body = data.partition(b"\n")
    _require(header == b"n,b,occupation,m,energy", f"unexpected header {header!r}")
    table = np.loadtxt(io.BytesIO(body), delimiter=",", ndmin=2)
    levels = 1 << w.n
    _require(table.shape == (fields.steps * levels, 5), f"table shape {table.shape}")
    occupation = np.arange(levels)
    bits = ((occupation[:, None] >> np.arange(w.n)) & 1).astype(float)
    for index, b in enumerate(fields.values()):
        block = table[index * levels : (index + 1) * levels]
        _require(np.all(block[:, 0] == w.n), "n column")
        _require(np.allclose(block[:, 1], b, rtol=1e-8, atol=1e-12), f"b column at field {b!r}")
        _require(np.array_equal(block[:, 2], occupation), f"occupations not 0..2^n-1 at b={b!r}")
        _require(np.array_equal(block[:, 3], _popcount(occupation, w.n)), f"m column at b={b!r}")
        reference = bits @ mode_energies(w.n, b) - w.n * b
        worst = np.max(np.abs(block[:, 4] - reference) - 1e-8 * np.abs(reference))
        _require(worst <= 1e-12, f"energy off the closed form by {worst:.3e} at b={b!r}")
    return len(table)


# --- purity-surface -----------------------------------------------------------


def _purity_argv(w, fields, temperatures, out):
    return ["purity", "--n", str(w.n), "--b-range", fields.arg(), "--t-range", temperatures.arg(),
            "--format", "json", "--output", out]


def _purity_check(w, data, fields, temperatures):
    rows = json.loads(data)["rows"]
    points = [(b, t) for b in fields.values() for t in temperatures.values()]
    _require(len(rows) == len(points), f"{len(rows)} rows for {len(points)} grid points")
    for row, (b, t) in zip(rows, points):
        where = f"b={b!r} t={t!r}"
        _require(row["n"] == w.n and _close(row["b"], b, 1e-12) and _close(row["t"], t, 1e-12), f"grid at {where}")
        _require(_close(row["beta"], 1.0 / t, 1e-12), f"beta at {where}")
        analytic, dense = row["purity_analytic"], row["purity_dense"]
        _require(dense is not None, f"dense column missing at {where}")
        _require(abs(analytic - dense) <= 1e-10, f"|analytic - dense| = {abs(analytic - dense):.3e} at {where}")
        # per mode, p^2 + (1-p)^2 with p = (1 - tanh(beta lam / 2)) / 2
        reference = float(np.prod((1.0 + np.tanh(mode_energies(w.n, b) / (2.0 * t)) ** 2) / 2.0))
        _require(_close(analytic, reference, 1e-12), f"analytic {analytic!r} vs product {reference!r} at {where}")
    return len(rows)


# --- negativity-sweep ---------------------------------------------------------


def _half_split(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return tuple(range(1, n // 2 + 1)), tuple(range(n // 2 + 1, n + 1))


def dense_gibbs_negativities(n: int, b: float, temperatures, sites_b: tuple[int, ...]) -> list[float]:
    """Negativities of Gibbs states of the Pauli-form Hamiltonian, by brute force.

    H = -sum (J/2)(x x + y y) - B sum z, with bit l-1 of a basis index set when
    site l is flipped: the field term is diagonal, -B (n - 2 flips), and the
    coupling moves a flip between anti-aligned neighbours with amplitude -J.
    """
    states = np.arange(1 << n)
    h = np.diag(-b * (n - 2.0 * _popcount(states, n)))
    for i in range(n - 1):
        movable = states[((states >> i) ^ (states >> (i + 1))) & 1 == 1]
        h[movable ^ (0b11 << i), movable] = -J
    energies, vectors = np.linalg.eigh(h)
    mask = sum(1 << (site - 1) for site in sites_b)
    rows, cols = states[:, None], states[None, :]
    swapped = ((rows & ~mask) | (cols & mask), (cols & ~mask) | (rows & mask))
    values = []
    for t in temperatures:
        weights = np.exp(-(energies - energies[0]) / t)
        rho = (vectors * (weights / weights.sum())) @ vectors.T
        eigenvalues = np.linalg.eigvalsh(rho[swapped])
        values.append(float(-eigenvalues[eigenvalues < 0].sum()))
    return values


def _negativity_argv(w, fields, temperatures, out):
    return ["negativity", "--n", str(w.n), "--b-range", fields.arg(), "--t-range", temperatures.arg(),
            "--output", out]


def _negativity_check(w, data, fields, temperatures):
    reader = csv.reader(io.StringIO(data.decode()))
    _require(next(reader, None) == ["n", "b", "t", "split", "negativity", "separable"], "unexpected header")
    rows = list(reader)
    points = [(b, t) for b in fields.values() for t in temperatures.values()]
    _require(len(rows) == len(points), f"{len(rows)} rows for {len(points)} grid points")
    sites_a, sites_b = _half_split(w.n)
    split = ",".join(map(str, sites_a)) + "|" + ",".join(map(str, sites_b))
    for row, (b, t) in zip(rows, points):
        where = f"b={b!r} t={t!r}"
        _require(len(row) == 6 and row[0] == str(w.n) and row[3] == split, f"n/split columns at {where}")
        _require(_close(float(row[1]), b, 1e-8, 1e-12) and _close(float(row[2]), t, 1e-8), f"grid at {where}")
        value = float(row[4])
        _require(value >= 0.0, f"negative negativity {value!r} at {where}")
        _require(row[5] == ("true" if value <= PPT_ATOL else "false"), f"separable flag {row[5]} at {where}")
    # spot checks against a brute-force Gibbs state: the two coldest points of the first field
    b, coldest = fields.values()[0], temperatures.values()[:2]
    for row, t, reference in zip(rows, coldest, dense_gibbs_negativities(w.n, b, coldest, sites_b)):
        value = float(row[4])
        _require(_close(value, reference, 1e-8, 1e-10), f"negativity {value!r} vs dense {reference!r} at b={b!r} t={t!r}")
    return len(rows)


# --- validate-oracle ----------------------------------------------------------

VALIDATE_CHECKS = ("eigenvalue-multiset", "eigenvector-residual", "purity-identity",
                   "partition-function", "crossing-degeneracy")


def _validate_argv(w, fields, temperatures, out):
    return ["validate", "--n", str(w.n)]


def _validate_check(w, data, fields, temperatures):
    lines = data.decode().splitlines()
    _require(len(lines) == len(VALIDATE_CHECKS) + 2, f"{len(lines)} report lines")
    _require(lines[0].startswith(f"validate n={w.n} "), f"unexpected first line {lines[0]!r}")
    for line, name in zip(lines[1:-1], VALIDATE_CHECKS):
        words = line.split()
        _require(len(words) == 7 and words[:2] == ["PASS", name], f"check line {line!r}")
        worst, tolerance = float(words[4]), float(words[-1].rstrip(")"))
        _require(worst <= tolerance, f"{name}: worst {worst} above tolerance {tolerance}")
    _require(lines[-1] == f"{len(VALIDATE_CHECKS)} checks passed, 0 failed", f"summary {lines[-1]!r}")
    return len(VALIDATE_CHECKS)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("purity-surface", 10, Grid(-1.5, 1.5, 12), Grid(0.05, 2.0, 12), _purity_argv, _purity_check,
                 dominant=("thermal",)),
        Workload("spectrum-sweep", 16, Grid(-1.0, 1.0, 2), None, _spectrum_argv, _spectrum_check,
                 dominant=("spectrum", "cli")),
        Workload("negativity-sweep", 10, Grid(-0.6, 0.6, 3), Grid(0.05, 0.8, 3), _negativity_argv, _negativity_check,
                 dominant=("entanglement",)),
        Workload("validate-oracle", 10, None, None, _validate_argv, _validate_check, writes_stdout=True,
                 dominant=("oracle",)),
    )
}
