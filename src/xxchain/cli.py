"""Command-line front end emitting CSV/JSON datasets.

Subcommands: spectrum, ground-state, crossings, thermal, purity,
purity-derivative, negativity, thermo-limit, validate.  Grids are inclusive
linear ranges given as min:max:steps; temperatures use k_B = 1 and --t 0 maps
to the zero-temperature closed forms.  Exit codes: 0 success, 1 usage error,
2 numerical/size/I-O error or out of memory.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .entanglement import PPT_ATOL, BipartiteSplit, critical_temperature_two_qubit, negativity
from .limits import finite_size_energy_density, thermo_energy_density
from .oracle import build_hamiltonian, diagonalize
from .params import MATRIX_CAP, ChainParams, NumericalError, SizeLimitError, check_cap
from .spectrum import (
    crossing_fields,
    enumerate_levels,
    ground_energy,
    log_partition_function,
)
from .states import eigenbasis_matrix, ground_state, label_to_sector_index
from .thermal import (
    boltzmann_weights,
    label_energies,
    purity_analytic,
    purity_dense,
    thermal_density_matrix,
)

_DERIVATIVE_STEP = 1e-5


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class AxisRange:
    min: float
    max: float
    steps: int

    def __post_init__(self):
        if not (math.isfinite(self.min) and math.isfinite(self.max)):
            raise UsageError(f"range ends must be finite, got {self.min}:{self.max}")
        if self.steps < 1:
            raise UsageError(f"range needs steps >= 1, got {self.steps}")
        if self.min > self.max:
            raise UsageError(f"range needs min <= max, got {self.min}:{self.max}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.min, self.max, self.steps)


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    n: int | None = None
    j: float = 1.0
    b: float | None = None
    b_range: AxisRange | None = None
    t: float | None = None
    t_range: AxisRange | None = None
    k: int | None = None
    sizes: tuple[int, ...] | None = None
    split_a: tuple[int, ...] | None = None
    format: str = "csv"
    output: str | None = None
    dense_cap: int | None = None


def _parse_axis_range(text: str) -> AxisRange:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"range must look like min:max:steps, got {text!r}")
    try:
        return AxisRange(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise UsageError(f"bad range {text!r}: {exc}") from exc


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def _parse_dense_cap(text: str) -> int:
    value = int(text)
    if not 0 <= value <= MATRIX_CAP:
        raise argparse.ArgumentTypeError(f"must be in 0..{MATRIX_CAP}, got {text!r}")
    return value


def _parse_site_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad site list {text!r}: {exc}") from exc


# largest n at which purity and negativity build the dense Gibbs state; --dense-cap overrides it
DENSE_CHECK_CAP = 10

# option group -> its arguments as (flags, add_argument keywords); the dest of
# each argument is a RunConfig field
_OPTION_GROUPS = {
    "n": [(("--n",), {"type": _positive_int, "required": True})],
    "j": [(("--j",), {"type": _positive_float, "default": 1.0})],
    "field": [
        (("--b",), {"type": _finite_float, "help": "single field value"}),
        (("--b-range",), {"type": _parse_axis_range, "metavar": "MIN:MAX:STEPS",
                          "help": "inclusive linear field grid"}),
    ],
    "temperature": [
        (("--t",), {"type": _finite_float, "help": "single temperature (k_B = 1; 0 means T -> 0)"}),
        (("--t-range",), {"type": _parse_axis_range, "metavar": "MIN:MAX:STEPS",
                          "help": "inclusive linear temperature grid"}),
    ],
    "k": [(("--k",), {"type": int, "required": True, "help": "sector (flipped spins), 0..n"})],
    "sizes": [(("--sizes",), {"type": _positive_int, "nargs": "+", "default": [50]})],
    "split-a": [(("--split-a",), {"type": _parse_site_list, "default": None, "metavar": "SITES",
                                  "help": "comma-separated sites of side A (default: first half)"})],
    "dense-cap": [(("--dense-cap",), {"type": _parse_dense_cap, "default": None, "metavar": "N",
                                      "help": f"largest n for the dense cross-check, 0..{MATRIX_CAP} "
                                              f"(default {DENSE_CHECK_CAP})"})],
    "output": [
        (("--format",), {"choices": ("csv", "json"), "default": "csv"}),
        (("--output", "-o"), {"default": None, "help": "output path (default: stdout)"}),
    ],
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    options = _SUBCOMMANDS[args.subcommand].options
    if "field" in options and (args.b is None) == (args.b_range is None):
        raise UsageError("give exactly one of --b or --b-range")
    if "temperature" in options:
        if (args.t is None) == (args.t_range is None):
            raise UsageError("give exactly one of --t or --t-range")
        coldest = args.t if args.t is not None else args.t_range.min
        if coldest < 0:
            raise UsageError(f"temperatures must be >= 0, got {coldest}")
    if "k" in options and not 0 <= args.k <= args.n:
        raise UsageError(f"--k must be in 0..{args.n}, got {args.k}")
    values = vars(args)
    if "sizes" in values:
        values["sizes"] = tuple(values["sizes"])
    config = RunConfig(**values)
    # the largest size and field bound every level energy, so checking them checks every chain
    fields = _field_grid(config) if "field" in options else [0.0]
    try:
        ChainParams(n=max(config.sizes or (config.n,)), j=config.j, b=max(fields, key=abs))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return config


def _field_grid(config: RunConfig) -> list[float]:
    return [config.b] if config.b is not None else [float(v) for v in config.b_range.grid()]


def _dense_check_cap(config: RunConfig) -> int:
    return DENSE_CHECK_CAP if config.dense_cap is None else config.dense_cap


def _points(config: RunConfig):
    """(b, t, beta, params) over the field grid, temperatures varying fastest; t = 0 is beta = inf."""
    temperatures = [config.t] if config.t is not None else [float(v) for v in config.t_range.grid()]
    for b in _field_grid(config):
        params = ChainParams(n=config.n, j=config.j, b=b)
        for t in temperatures:
            yield b, t, math.inf if t == 0 else 1.0 / t, params


# --- row builders: each returns (rows, JSON meta extras) ------------------------


def _rows_spectrum(config: RunConfig):
    fields = _field_grid(config)
    energies = [enumerate_levels(ChainParams(n=config.n, j=config.j, b=b)) for b in fields]
    # one set of occupation and m cells, shared by the rows of every field
    cells = [(occupation, occupation.bit_count()) for occupation in range(1 << config.n)]
    rows = [
        {"n": config.n, "b": b, "occupation": occupation, "m": m, "energy": energy}
        for b, levels in zip(fields, energies)
        for (occupation, m), energy in zip(cells, levels.tolist())
    ]
    return rows, {}


def _rows_ground_state(config: RunConfig):
    vector = ground_state(config.n, config.k)
    rows = [
        {"n": config.n, "k": config.k, "positions": list(combo), "amplitude": float(amp)}
        for combo, amp in zip(vector.positions(), vector.amplitudes)
    ]
    return rows, {}


def _rows_crossings(config: RunConfig):
    fields = crossing_fields(config.n, config.j).fields_b
    return [{"k": k + 1, "b_k": float(v)} for k, v in enumerate(fields)], {}


def _rows_thermal(config: RunConfig):
    sectors = [(label, *label_to_sector_index(label, config.n)) for label in range(1, (1 << config.n) + 1)]
    rows = []
    for b, t, beta, params in _points(config):
        energies = label_energies(params).tolist()
        probabilities = boltzmann_weights(params, beta).probabilities.tolist()
        rows.extend(
            {"n": config.n, "b": b, "t": t, "beta": beta, "l": label, "r": r, "m": m,
             "energy": energy, "probability": probability}
            for (label, r, m), energy, probability in zip(sectors, energies, probabilities)
        )
    return rows, {}


def _rows_purity(config: RunConfig):
    dense = config.n <= _dense_check_cap(config)
    rows = [
        {"n": config.n, "b": b, "t": t, "beta": beta,
         "purity_analytic": purity_analytic(params, beta),
         "purity_dense": purity_dense(thermal_density_matrix(params, beta)) if dense else None}
        for b, t, beta, params in _points(config)
    ]
    return rows, {}


def _rows_purity_derivative(config: RunConfig):
    h = _DERIVATIVE_STEP
    rows = []
    for b, t, beta, _ in _points(config):
        upper = purity_analytic(ChainParams(n=config.n, j=config.j, b=b + h), beta)
        lower = purity_analytic(ChainParams(n=config.n, j=config.j, b=b - h), beta)
        rows.append({"n": config.n, "b": b, "t": t, "beta": beta, "dpurity_db": (upper - lower) / (2 * h)})
    return rows, {}


def _rows_negativity(config: RunConfig):
    sites_a = config.split_a if config.split_a is not None else tuple(range(1, config.n // 2 + 1))
    try:
        split = BipartiteSplit.of(config.n, sites_a)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    check_cap(config.n, _dense_check_cap(config), "dense thermal state")
    rows = []
    for b, t, beta, params in _points(config):
        value = negativity(thermal_density_matrix(params, beta), split)
        rows.append({"n": config.n, "b": b, "t": t, "split": str(split),
                     "negativity": value, "separable": bool(value <= PPT_ATOL)})
    extra = {}
    if config.n == 2:
        params = ChainParams(n=2, j=config.j, b=_field_grid(config)[0])
        extra["kt_c"] = critical_temperature_two_qubit(params)
        print(f"kT_c = {extra['kt_c']:.6f}", file=sys.stderr)
    return rows, extra


def _rows_thermo_limit(config: RunConfig):
    rows = []
    for n in config.sizes:
        for b in _field_grid(config):
            density = finite_size_energy_density(n, b, config.j)
            limit_value = config.j * thermo_energy_density(b / config.j)
            rows.append({
                "n": n, "b": b,
                "energy_density": density,
                "limit": limit_value,
                "deviation": abs(density - limit_value),
            })
    return rows, {}


# --- oracle validation ----------------------------------------------------------


def _rows_validate(config: RunConfig):
    """One (name, worst, tolerance) row per cross-check of the closed forms."""
    n, j = config.n, config.j
    fields = [-1.2, -0.5, 0.0, 0.31, 0.5, 0.81, 1.2]
    checks: list[tuple[str, float, float]] = []

    worst = 0.0
    for b in fields:
        params = ChainParams(n=n, j=j, b=b)
        closed = np.sort(enumerate_levels(params))
        dense = diagonalize(build_hamiltonian(params))[0]
        worst = max(worst, float(np.max(np.abs(closed - dense))))
    checks.append(("eigenvalue-multiset", worst, 1e-10))

    basis = eigenbasis_matrix(n)
    worst = 0.0
    for b in fields:
        params = ChainParams(n=n, j=j, b=b)
        h = build_hamiltonian(params).entries
        residual = h @ basis - basis * label_energies(params)[None, :]
        worst = max(worst, float(np.max(np.abs(residual))))
    checks.append(("eigenvector-residual", worst, 1e-8))

    worst = 0.0
    for b in (-0.9, 0.31, 0.75):
        params = ChainParams(n=n, j=j, b=b)
        for t in (0.2, 0.9, 2.0):
            beta = 1.0 / t
            gap = purity_analytic(params, beta) - purity_dense(thermal_density_matrix(params, beta))
            worst = max(worst, abs(gap))
    checks.append(("purity-identity", worst, 1e-10))

    worst = 0.0
    for b in (-0.5, 0.31):
        params = ChainParams(n=n, j=j, b=b)
        for beta in (0.0, 0.7, 2.1):
            direct = sum(math.exp(-beta * energy) for energy in enumerate_levels(params).tolist())
            log_z = log_partition_function(params, beta)
            worst = max(worst, abs(math.exp(log_z) - direct) / direct)
    checks.append(("partition-function", worst, 1e-12))

    worst = 0.0
    for index, field_b in enumerate(crossing_fields(n, j).fields_b):
        params = ChainParams(n=n, j=j, b=float(field_b))
        gap = ground_energy(params, index) - ground_energy(params, index + 1)
        worst = max(worst, abs(gap))
    checks.append(("crossing-degeneracy", worst, 1e-12))
    return checks, {}


def _write_report(checks, columns, config: RunConfig, extra_meta: dict) -> None:
    print(f"validate n={config.n} j={config.j:g}")
    failures = 0
    for name, value, tolerance in checks:
        ok = value <= tolerance
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name:<22} worst = {value:.3e} (tol {tolerance:.0e})")
    print(f"{len(checks) - failures} checks passed, {failures} failed")
    if failures:
        raise NumericalError(f"{failures} of {len(checks)} validation checks failed")


# --- output -------------------------------------------------------------------


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.9g" % value
    if isinstance(value, (list, tuple)):
        return ",".join(str(item) for item in value)
    return str(value)


def render_csv(rows: list[dict], fieldnames: list[str]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(fieldnames)
    for row in rows:
        writer.writerow([_csv_cell(row[name]) for name in fieldnames])
    return buffer.getvalue()


def render_json(rows: list[dict], meta: dict) -> str:
    return json.dumps({"meta": meta, "rows": rows}, indent=2) + "\n"


def emit(rows: list[dict], fieldnames: list[str], config: RunConfig, extra_meta: dict | None = None) -> None:
    if config.format == "json":
        meta = asdict(config)
        meta.update(extra_meta or {})
        text = render_json(rows, meta)
    else:
        text = render_csv(rows, fieldnames)
    if config.output is None:
        sys.stdout.write(text)
    else:
        with open(config.output, "w", newline="") as handle:
            handle.write(text)


# --- the subcommand table -------------------------------------------------------


@dataclass(frozen=True)
class _Subcommand:
    help: str
    options: tuple[str, ...]  # keys of _OPTION_GROUPS, in --help order
    columns: tuple[str, ...]  # CSV header; empty for a report
    build: Callable[[RunConfig], tuple[list, dict]]
    write: Callable[[list, tuple[str, ...], RunConfig, dict], None] | None = None  # None: emit
    defaults: dict = field(default_factory=dict)  # dest -> default, making that option optional


_SUBCOMMANDS = {
    "spectrum": _Subcommand(
        "all 2^n energies over a field grid", ("n", "j", "field", "output"),
        ("n", "b", "occupation", "m", "energy"), _rows_spectrum),
    "ground-state": _Subcommand(
        "spin-basis amplitudes of the sector-k ground state", ("n", "k", "output"),
        ("n", "k", "positions", "amplitude"), _rows_ground_state),
    "crossings": _Subcommand(
        "table of ground-state crossing fields", ("n", "j", "output"),
        ("k", "b_k"), _rows_crossings),
    "thermal": _Subcommand(
        "Boltzmann populations over (b, t) grids", ("n", "j", "field", "temperature", "output"),
        ("n", "b", "t", "beta", "l", "r", "m", "energy", "probability"), _rows_thermal),
    "purity": _Subcommand(
        "purity surface over (b, t) grids", ("n", "j", "dense-cap", "field", "temperature", "output"),
        ("n", "b", "t", "beta", "purity_analytic", "purity_dense"), _rows_purity),
    "purity-derivative": _Subcommand(
        "centered-difference d(purity)/db", ("n", "j", "field", "temperature", "output"),
        ("n", "b", "t", "beta", "dpurity_db"), _rows_purity_derivative),
    "negativity": _Subcommand(
        "negativity sweep (plus the n=2 critical temperature)",
        ("n", "j", "split-a", "dense-cap", "field", "temperature", "output"),
        ("n", "b", "t", "split", "negativity", "separable"), _rows_negativity, defaults={"n": 2}),
    "thermo-limit": _Subcommand(
        "limit curve and finite-size deviations", ("j", "sizes", "field", "output"),
        ("n", "b", "energy_density", "limit", "deviation"), _rows_thermo_limit),
    "validate": _Subcommand(
        "cross-check the closed forms against the dense oracle", ("n", "j"),
        (), _rows_validate, _write_report, defaults={"n": 6}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xxchain", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, spec in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=spec.help)
        for group in spec.options:
            for flags, keywords in _OPTION_GROUPS[group]:
                dest = flags[0].lstrip("-").replace("-", "_")
                if dest in spec.defaults:
                    keywords = {**keywords, "required": False, "default": spec.defaults[dest]}
                p.add_argument(*flags, **keywords)
    return parser


def _merge_flag_values(argv: list[str]) -> list[str]:
    # fold "--b -0.5:..." into "--b=-0.5:...", else argparse reads the value as a flag
    value_flags = {flag for group in _OPTION_GROUPS.values() for flags, keywords in group
                   if "nargs" not in keywords for flag in flags}
    merged = []
    index = 0
    while index < len(argv):
        token = argv[index]
        if token in value_flags and index + 1 < len(argv):
            merged.append(f"{token}={argv[index + 1]}")
            index += 2
        else:
            merged.append(token)
            index += 1
    return merged


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        config = _config_from_args(build_parser().parse_args(_merge_flag_values(list(argv))))
        spec = _SUBCOMMANDS[config.subcommand]
        rows, extra_meta = spec.build(config)
        (spec.write or emit)(rows, spec.columns, config, extra_meta)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SizeLimitError, NumericalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory{f': {exc}' if str(exc) else ''}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
