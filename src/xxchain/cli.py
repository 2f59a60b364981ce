"""Command-line front end emitting CSV/JSON datasets.

Subcommands: spectrum, ground-state, crossings, thermal, purity,
purity-derivative, negativity, thermo-limit, validate.  Grids are inclusive
linear ranges given as min:max:steps; temperatures use k_B = 1 and --t 0 maps
to the zero-temperature closed forms.  Exit codes: 0 success, 1 usage error,
2 numerical/size/I-O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .entanglement import PPT_ATOL, BipartiteSplit, critical_temperature_two_qubit, negativity
from .limits import finite_size_energy_density, thermo_energy_density
from .oracle import build_hamiltonian, diagonalize
from .params import ChainParams, NumericalError, SizeLimitError, resolve_dense_cap
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

SCHEMAS = {
    "spectrum": ["n", "b", "occupation", "m", "energy"],
    "ground-state": ["n", "k", "positions", "amplitude"],
    "crossings": ["k", "b_k"],
    "thermal": ["n", "b", "t", "beta", "l", "r", "m", "energy", "probability"],
    "purity": ["n", "b", "t", "beta", "purity_analytic", "purity_dense"],
    "purity-derivative": ["n", "b", "t", "beta", "dpurity_db"],
    "negativity": ["n", "b", "t", "split", "negativity", "separable"],
    "thermo-limit": ["n", "b", "energy_density", "limit", "deviation"],
}

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


def _parse_site_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad site list {text!r}: {exc}") from exc


def _add_field_axis(parser, required=True):
    parser.add_argument("--b", type=_finite_float, help="single field value")
    parser.add_argument("--b-range", type=_parse_axis_range, metavar="MIN:MAX:STEPS",
                        help="inclusive linear field grid")
    parser.set_defaults(_b_required=required)


def _add_temperature_axis(parser):
    parser.add_argument("--t", type=_finite_float, help="single temperature (k_B = 1; 0 means T -> 0)")
    parser.add_argument("--t-range", type=_parse_axis_range, metavar="MIN:MAX:STEPS",
                        help="inclusive linear temperature grid")
    parser.set_defaults(_t_required=True)


def _add_output_options(parser):
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--output", "-o", default=None, help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="xxchain", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("spectrum", help="all 2^n energies over a field grid")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--j", type=_positive_float, default=1.0)
    _add_field_axis(p)
    _add_output_options(p)

    p = sub.add_parser("ground-state", help="spin-basis amplitudes of the sector-k ground state")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--k", type=int, required=True, help="sector (flipped spins), 0..n")
    _add_output_options(p)

    p = sub.add_parser("crossings", help="table of ground-state crossing fields")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--j", type=_positive_float, default=1.0)
    _add_output_options(p)

    p = sub.add_parser("thermal", help="Boltzmann populations over (b, t) grids")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--j", type=_positive_float, default=1.0)
    _add_field_axis(p)
    _add_temperature_axis(p)
    _add_output_options(p)

    p = sub.add_parser("purity", help="purity surface over (b, t) grids")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--j", type=_positive_float, default=1.0)
    p.add_argument("--dense-cap", type=int, default=None,
                   help="override the dense cross-check cap (default 10 or XXCHAIN_DENSE_CAP)")
    _add_field_axis(p)
    _add_temperature_axis(p)
    _add_output_options(p)

    p = sub.add_parser("purity-derivative", help="centered-difference d(purity)/db")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--j", type=_positive_float, default=1.0)
    _add_field_axis(p)
    _add_temperature_axis(p)
    _add_output_options(p)

    p = sub.add_parser("negativity", help="negativity sweep (plus the n=2 critical temperature)")
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--j", type=_positive_float, default=1.0)
    p.add_argument("--split-a", type=_parse_site_list, default=None, metavar="SITES",
                   help="comma-separated sites of side A (default: first half)")
    p.add_argument("--dense-cap", type=int, default=None)
    _add_field_axis(p)
    _add_temperature_axis(p)
    _add_output_options(p)

    p = sub.add_parser("thermo-limit", help="limit curve and finite-size deviations")
    p.add_argument("--j", type=_positive_float, default=1.0)
    p.add_argument("--sizes", type=_positive_int, nargs="+", default=[50])
    _add_field_axis(p)
    _add_output_options(p)

    p = sub.add_parser("validate", help="cross-check the closed forms against the dense oracle")
    p.add_argument("--n", type=_positive_int, default=6)
    p.add_argument("--j", type=_positive_float, default=1.0)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    b, b_range = getattr(args, "b", None), getattr(args, "b_range", None)
    t, t_range = getattr(args, "t", None), getattr(args, "t_range", None)
    if getattr(args, "_b_required", False):
        if (b is None) == (b_range is None):
            raise UsageError("give exactly one of --b or --b-range")
    if getattr(args, "_t_required", False):
        if (t is None) == (t_range is None):
            raise UsageError("give exactly one of --t or --t-range")
    for value in ([t] if t is not None else []) + (list(t_range.grid()) if t_range else []):
        if value < 0:
            raise UsageError(f"temperatures must be >= 0, got {value}")
    sizes = getattr(args, "sizes", None)
    return RunConfig(
        subcommand=args.subcommand,
        n=getattr(args, "n", None),
        j=getattr(args, "j", 1.0),
        b=b,
        b_range=b_range,
        t=t,
        t_range=t_range,
        k=getattr(args, "k", None),
        sizes=tuple(sizes) if sizes is not None else None,
        split_a=getattr(args, "split_a", None),
        format=getattr(args, "format", "csv"),
        output=getattr(args, "output", None),
        dense_cap=getattr(args, "dense_cap", None),
    )


def _field_grid(config: RunConfig) -> list[float]:
    return [config.b] if config.b is not None else [float(v) for v in config.b_range.grid()]


def _temperature_grid(config: RunConfig) -> list[float]:
    return [config.t] if config.t is not None else [float(v) for v in config.t_range.grid()]


def _beta_of(t: float) -> float:
    return math.inf if t == 0 else 1.0 / t


# --- row builders -------------------------------------------------------------


def _rows_spectrum(config: RunConfig) -> list[dict]:
    rows = []
    for b in _field_grid(config):
        params = ChainParams(n=config.n, j=config.j, b=b)
        for level in enumerate_levels(params):
            rows.append({
                "n": config.n,
                "b": b,
                "occupation": level.occupation.to_int(),
                "m": level.occupation.m,
                "energy": level.energy,
            })
    return rows


def _rows_ground_state(config: RunConfig) -> list[dict]:
    vector = ground_state(config.n, config.k)
    return [
        {"n": config.n, "k": config.k, "positions": list(combo), "amplitude": float(amp)}
        for combo, amp in zip(vector.positions(), vector.amplitudes)
    ]


def _rows_crossings(config: RunConfig) -> list[dict]:
    fields = crossing_fields(config.n, config.j).fields_b
    return [{"k": k + 1, "b_k": float(v)} for k, v in enumerate(fields)]


def _rows_thermal(config: RunConfig) -> list[dict]:
    rows = []
    for b in _field_grid(config):
        params = ChainParams(n=config.n, j=config.j, b=b)
        energies = label_energies(params)
        for t in _temperature_grid(config):
            beta = _beta_of(t)
            ensemble = boltzmann_weights(params, beta)
            for label in range(1, (1 << config.n) + 1):
                r, m = label_to_sector_index(label, config.n)
                rows.append({
                    "n": config.n, "b": b, "t": t, "beta": beta,
                    "l": label, "r": r, "m": m,
                    "energy": float(energies[label - 1]),
                    "probability": float(ensemble.probabilities[label - 1]),
                })
    return rows


def _rows_purity(config: RunConfig) -> list[dict]:
    cap = resolve_dense_cap(config.dense_cap)
    rows = []
    for b in _field_grid(config):
        params = ChainParams(n=config.n, j=config.j, b=b)
        for t in _temperature_grid(config):
            beta = _beta_of(t)
            dense = None
            if config.n <= cap:
                dense = purity_dense(thermal_density_matrix(params, beta, cap))
            rows.append({
                "n": config.n, "b": b, "t": t, "beta": beta,
                "purity_analytic": purity_analytic(params, beta),
                "purity_dense": dense,
            })
    return rows


def _rows_purity_derivative(config: RunConfig) -> list[dict]:
    h = _DERIVATIVE_STEP
    rows = []
    for b in _field_grid(config):
        for t in _temperature_grid(config):
            beta = _beta_of(t)
            upper = purity_analytic(ChainParams(n=config.n, j=config.j, b=b + h), beta)
            lower = purity_analytic(ChainParams(n=config.n, j=config.j, b=b - h), beta)
            rows.append({
                "n": config.n, "b": b, "t": t, "beta": beta,
                "dpurity_db": (upper - lower) / (2 * h),
            })
    return rows


def _rows_negativity(config: RunConfig) -> tuple[list[dict], dict]:
    sites_a = config.split_a if config.split_a is not None else tuple(range(1, config.n // 2 + 1))
    try:
        split = BipartiteSplit.of(config.n, sites_a)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    cap = resolve_dense_cap(config.dense_cap)
    rows = []
    for b in _field_grid(config):
        params = ChainParams(n=config.n, j=config.j, b=b)
        for t in _temperature_grid(config):
            rho = thermal_density_matrix(params, _beta_of(t), cap)
            value = negativity(rho, split, cap)
            rows.append({
                "n": config.n, "b": b, "t": t, "split": str(split),
                "negativity": value, "separable": bool(value <= PPT_ATOL),
            })
    extra = {}
    if config.n == 2:
        params = ChainParams(n=2, j=config.j, b=_field_grid(config)[0])
        extra["kt_c"] = critical_temperature_two_qubit(params)
        print(f"kT_c = {extra['kt_c']:.6f}", file=sys.stderr)
    return rows, extra


def _rows_thermo_limit(config: RunConfig) -> list[dict]:
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
    return rows


# --- oracle validation ----------------------------------------------------------


def _run_validate(config: RunConfig) -> int:
    n, j = config.n, config.j
    fields = [-1.2, -0.5, 0.0, 0.31, 0.5, 0.81, 1.2]
    checks: list[tuple[str, float, float]] = []  # name, worst, tolerance

    worst = 0.0
    for b in fields:
        params = ChainParams(n=n, j=j, b=b)
        closed = np.sort([level.energy for level in enumerate_levels(params)])
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
            direct = sum(math.exp(-beta * level.energy) for level in enumerate_levels(params))
            log_z = log_partition_function(params, beta)
            worst = max(worst, abs(math.exp(log_z) - direct) / direct)
    checks.append(("partition-function", worst, 1e-12))

    worst = 0.0
    for index, field in enumerate(crossing_fields(n, j).fields_b):
        params = ChainParams(n=n, j=j, b=float(field))
        gap = ground_energy(params, index) - ground_energy(params, index + 1)
        worst = max(worst, abs(gap))
    checks.append(("crossing-degeneracy", worst, 1e-12))

    print(f"validate n={n} j={j:g}")
    failures = 0
    for name, value, tolerance in checks:
        ok = value <= tolerance
        failures += 0 if ok else 1
        print(f"{'PASS' if ok else 'FAIL'} {name:<22} worst = {value:.3e} (tol {tolerance:.0e})")
    print(f"{len(checks) - failures} checks passed, {failures} failed")
    return 0 if failures == 0 else 2


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


_BUILDERS = {
    "spectrum": _rows_spectrum,
    "ground-state": _rows_ground_state,
    "crossings": _rows_crossings,
    "thermal": _rows_thermal,
    "purity": _rows_purity,
    "purity-derivative": _rows_purity_derivative,
    "thermo-limit": _rows_thermo_limit,
}


_VALUE_FLAGS = frozenset(
    {"--b", "--t", "--j", "--b-range", "--t-range", "--n", "--k", "--dense-cap", "--split-a", "--output", "-o", "--format"}
)


def _merge_flag_values(argv: list[str]) -> list[str]:
    # fold "--b -0.5:..." into "--b=-0.5:...", else argparse reads the value as a flag
    merged = []
    index = 0
    while index < len(argv):
        token = argv[index]
        if token in _VALUE_FLAGS and index + 1 < len(argv):
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
        args = build_parser().parse_args(_merge_flag_values(list(argv)))
        config = _config_from_args(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if config.subcommand == "validate":
            return _run_validate(config)
        if config.subcommand == "negativity":
            rows, extra = _rows_negativity(config)
        else:
            rows, extra = _BUILDERS[config.subcommand](config), {}
        emit(rows, SCHEMAS[config.subcommand], config, extra)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SizeLimitError, NumericalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
