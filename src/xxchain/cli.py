"""Command-line front end emitting CSV/JSON datasets.

Subcommands: spectrum, ground-state, crossings, thermal, purity,
purity-derivative, negativity, thermo-limit, validate.  Grids are inclusive
linear ranges given as min:max:steps; temperatures use k_B = 1 and --t 0 maps
to the zero-temperature closed forms.  Exit codes: 0 success, 1 usage error,
2 numerical/size/I-O error or out of memory.
"""

from __future__ import annotations

import argparse
import errno
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from .entanglement import PPT_ATOL, BipartiteSplit, critical_temperature_two_qubit, negativity
from .oracle import build_hamiltonian, diagonalize
from .params import CHUNK_ENTRIES, MATRIX_CAP, ChainParams, NumericalError, SizeLimitError, check_cap
from .spectrum import (crossing_fields, enumerate_levels, finite_size_energy_density, ground_energy, level_runs,
                       log_partition_function, thermo_energy_density)
from .states import eigenbasis_matrix, ground_state, label_occupations, sector_starts
from .thermal import (
    boltzmann_weights,
    label_energies,
    purity_analytic,
    purity_dense,
    thermal_density_matrix,
)

_DERIVATIVE_STEP = 1e-5
# validate's tolerance per check at j <= 1, multiplied by max(1, j): energies and their rounding errors scale with j.
_VALIDATE_TOLERANCES = {"eigenvalue-multiset": 1e-10, "eigenvector-residual": 1e-8, "purity-identity": 1e-10,
                        "partition-function": 1e-12, "crossing-degeneracy": 1e-12}
_DIMENSIONLESS_CHECKS = ("purity-identity", "partition-function")  # their scaled tolerances stop at 1e-6


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
        if not math.isfinite(self.max - self.min):
            raise UsageError(f"range span max - min overflows, got {self.min}:{self.max}")


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


# largest n at which purity and negativity build the dense Gibbs state; --dense-cap overrides it
DENSE_CHECK_CAP = 10

# option group -> its arguments as (flags, add_argument keywords); the dest of
# each argument is a RunConfig field
_OPTION_GROUPS = {
    "n": [(("--n",), {"type": _positive_int, "required": True})],
    "j": [(("--j",), {"type": float, "default": 1.0})],  # ChainParams checks it
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
    "dense-cap": [(("--dense-cap",), {"type": int, "choices": range(MATRIX_CAP + 1), "metavar": "N",
                                      "help": f"largest n for the dense cross-check, 0..{MATRIX_CAP} "
                                              f"(default {DENSE_CHECK_CAP})"})],
    "output": [
        (("--format",), {"choices": ("csv", "json"), "default": "csv"}),
        (("--output", "-o"), {"default": None, "help": "output path (default: stdout)"}),
    ],
}


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    options = _SUBCOMMANDS[args.subcommand].options
    if "temperature" in options:
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
    fields = _grid(config.b, config.b_range) if "field" in options else [0.0]
    try:
        ChainParams(n=max(config.sizes or (config.n,)), j=config.j, b=max(fields, key=abs))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    return config


def _grid(value: float | None, axis: AxisRange | None) -> list[float]:
    """The one value given, or the inclusive linear grid of the range."""
    return [value] if value is not None else np.linspace(axis.min, axis.max, axis.steps).tolist()


def _dense_check_cap(config: RunConfig) -> int:
    return DENSE_CHECK_CAP if config.dense_cap is None else config.dense_cap


def _points(config: RunConfig):
    """(b, t, beta, params) over the field grid, temperatures varying fastest; t = 0 is beta = inf."""
    temperatures = _grid(config.t, config.t_range)
    for b in _grid(config.b, config.b_range):
        params = ChainParams(n=config.n, j=config.j, b=b)
        for t in temperatures:
            yield b, t, math.inf if t == 0 else 1.0 / t, params


# --- row builders: each yields column blocks, of at most CHUNK_ENTRIES rows or one per field or point ---
# A block maps a column to a numpy array (one entry per row) or to one value for every row.


def _rows_spectrum(config: RunConfig):
    for b in _grid(config.b, config.b_range):
        for values, energy in level_runs(ChainParams(n=config.n, j=config.j, b=b)):  # checks the level cap first
            yield {"n": config.n, "b": b, "occupation": values, "m": np.bitwise_count(values), "energy": energy}


def _rows_ground_state(config: RunConfig):
    vector = ground_state(config.n, config.k)
    yield {"n": config.n, "k": config.k, "positions": vector.positions, "amplitude": vector.amplitudes}


def _rows_crossings(config: RunConfig):
    fields = crossing_fields(config.n, config.j).fields_b
    yield {"k": np.arange(1, fields.size + 1), "b_k": fields}


def _rows_thermal(config: RunConfig):
    before = np.array(sector_starts(config.n))
    for b, t, beta, params in _points(config):
        probability = boltzmann_weights(params, beta).probabilities  # checks the level cap first
        energy = label_energies(params)
        for start in range(0, energy.size, CHUNK_ENTRIES):
            m = np.bitwise_count(label_occupations(config.n)[start : start + CHUNK_ENTRIES])
            l = np.arange(start + 1, start + m.size + 1)
            yield {"n": config.n, "b": b, "t": t, "beta": beta, "l": l, "r": l - before[m], "m": m,
                   "energy": energy[start : start + m.size], "probability": probability[start : start + m.size]}


def _rows_purity(config: RunConfig):
    dense = config.n <= _dense_check_cap(config)
    for b, t, beta, params in _points(config):
        yield {"n": config.n, "b": b, "t": t, "beta": beta,
               "purity_analytic": purity_analytic(params, beta),
               "purity_dense": purity_dense(thermal_density_matrix(params, beta)) if dense else None}


def _rows_purity_derivative(config: RunConfig):
    h = _DERIVATIVE_STEP
    for b, t, beta, _ in _points(config):
        upper = purity_analytic(ChainParams(n=config.n, j=config.j, b=b + h), beta)
        lower = purity_analytic(ChainParams(n=config.n, j=config.j, b=b - h), beta)
        yield {"n": config.n, "b": b, "t": t, "beta": beta, "dpurity_db": (upper - lower) / (2 * h)}


def _rows_negativity(config: RunConfig):
    sites_a = config.split_a if config.split_a is not None else tuple(range(1, config.n // 2 + 1))
    try:
        split = BipartiteSplit.of(config.n, sites_a)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    check_cap(config.n, _dense_check_cap(config), "dense thermal state")
    for b, t, beta, params in _points(config):
        value = negativity(thermal_density_matrix(params, beta), split)
        yield {"n": config.n, "b": b, "t": t, "split": str(split),
               "negativity": value, "separable": bool(value <= PPT_ATOL)}


def _meta_negativity(config: RunConfig) -> dict:
    """The n = 2 critical temperature, also printed on stderr."""
    if config.n != 2:
        return {}
    kt_c = critical_temperature_two_qubit(ChainParams(n=2, j=config.j))
    print(f"kT_c = {kt_c:.6f}", file=sys.stderr)
    return {"kt_c": kt_c}


def _rows_thermo_limit(config: RunConfig):
    fields = _grid(config.b, config.b_range)
    limits = [config.j * thermo_energy_density(b / config.j) if math.isfinite(b / config.j) else -abs(b)
              for b in fields]  # a b/J that overflows means |b| >> J, where the limit is the polarized -|b|
    for n in config.sizes:
        for b, limit_value in zip(fields, limits):
            density = finite_size_energy_density(n, b, config.j)
            yield {
                "n": n, "b": b,
                "energy_density": density,
                "limit": limit_value,
                "deviation": abs(density - limit_value),
            }


def _rows_validate(config: RunConfig):
    """One (name, worst, tolerance) row per cross-check of the closed forms."""
    n, j = config.n, config.j
    tolerance = {name: value * max(1.0, j) for name, value in _VALIDATE_TOLERANCES.items()}
    tolerance.update((name, min(tolerance[name], 1e-6)) for name in _DIMENSIONLESS_CHECKS)
    fields = [-1.2, -0.5, 0.0, 0.31, 0.5, 0.81, 1.2]
    try:  # the parser checked b = 0; the crossing-degeneracy chains reach |b| = j cos(pi/(n+1))
        ChainParams(n=n, j=j, b=max(crossing_fields(n, j).fields_b.tolist(), key=abs))
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    worst = 0.0
    for b in fields:
        params = ChainParams(n=n, j=j, b=b)
        closed = np.sort(enumerate_levels(params))
        dense = diagonalize(build_hamiltonian(params))[0]
        worst = max(worst, float(np.max(np.abs(closed - dense))))
    yield "eigenvalue-multiset", worst, tolerance["eigenvalue-multiset"]

    basis = eigenbasis_matrix(n)
    step = max(1, CHUNK_ENTRIES // len(basis))
    worst = 0.0
    for b in fields:
        params = ChainParams(n=n, j=j, b=b)
        residual = build_hamiltonian(params).entries @ basis
        energies = label_energies(params)
        for start in range(0, len(basis), step):  # minus basis * energies, in place a chunk of rows at a time
            residual[start:start + step] -= basis[start:start + step] * energies
        worst = max(worst, float(np.max(np.abs(residual, out=residual))))
    yield "eigenvector-residual", worst, tolerance["eigenvector-residual"]

    worst = 0.0
    for b in (-0.9, 0.31, 0.75):
        params = ChainParams(n=n, j=j, b=b)
        for t in (0.2, 0.9, 2.0):
            beta = 1.0 / t
            gap = purity_analytic(params, beta) - purity_dense(thermal_density_matrix(params, beta))
            worst = max(worst, abs(gap))
    yield "purity-identity", worst, tolerance["purity-identity"]

    worst = 0.0
    for b in (-0.5, 0.31):
        params = ChainParams(n=n, j=j, b=b)
        energies = enumerate_levels(params).tolist()
        for beta in (0.0, 0.7, 2.1):
            try:
                direct = sum(math.exp(-beta * energy) for energy in energies)
                closed = math.exp(log_partition_function(params, beta))
            except OverflowError:  # large j only: factoring out the lowest level moves printed digits at j = 1
                shift = min(energies)
                direct = sum(math.exp(-beta * (energy - shift)) for energy in energies)
                try:
                    closed = math.exp(log_partition_function(params, beta) + beta * shift)
                except OverflowError:  # from beta*|E| ~ 1e16, log Z has lost every digit that Z needs
                    closed = math.inf
            worst = max(worst, abs(closed - direct) / direct)
    yield "partition-function", worst, tolerance["partition-function"]

    worst = 0.0
    for index, field_b in enumerate(crossing_fields(n, j).fields_b):
        params = ChainParams(n=n, j=j, b=float(field_b))
        gap = ground_energy(params, index) - ground_energy(params, index + 1)
        worst = max(worst, abs(gap))
    yield "crossing-degeneracy", worst, tolerance["crossing-degeneracy"]


def _write_report(checks, columns, config: RunConfig, extra_meta: dict) -> None:
    checks = list(checks)  # every check runs before the report's first line
    failures = sum(not value <= tolerance for _, value, tolerance in checks)
    report = sys.stderr if failures else sys.stdout  # so a nonzero exit writes no stdout byte
    print(f"validate n={config.n} j={config.j:g}", file=report)
    for name, value, tolerance in checks:
        verdict = "PASS" if value <= tolerance else "FAIL"
        print(f"{verdict} {name:<22} worst = {value:.3e} (tol {tolerance:.0e})", file=report)
    print(f"{len(checks) - failures} checks passed, {failures} failed", file=report)
    if failures:
        raise NumericalError(f"{failures} of {len(checks)} validation checks failed")


# --- output -------------------------------------------------------------------


def _joined(run: list[list], sizes: list[int], columns) -> dict:
    """One chunk of consecutive pieces: each column the one object they all hold, or one array."""
    chunk = {}
    for name, values in zip(columns, zip(*run)):
        first = values[0]
        if all(value is first for value in values):
            chunk[name] = first
        elif isinstance(first, np.ndarray):
            chunk[name] = np.concatenate(values)
        else:
            chunk[name] = np.repeat(np.array(values), sizes)
    return chunk


def _chunks(blocks: Iterable[dict], columns) -> Iterator[tuple[dict, int]]:
    """(chunk, rows) with at most CHUNK_ENTRIES cells, or one row, each, holding the blocks' rows in order: a
    larger block is cut, and consecutive smaller pieces are joined while each column keeps one kind, that is
    the same object, arrays of one dtype and trailing shape, or values of one type (then joined into an array)."""
    step = max(1, CHUNK_ENTRIES // len(columns))
    run, sizes, rows, kinds = [], [], 0, None
    for block in blocks:
        values = [block[name] for name in columns]
        size = max((len(value) for value in values if isinstance(value, np.ndarray)), default=1)
        for start in range(0, size, step):
            piece = [value[start : start + step] if isinstance(value, np.ndarray) else value for value in values]
            count = min(step, size - start)
            piece_kinds = [(v.dtype, v.shape[1:]) if isinstance(v, np.ndarray) else type(v) for v in piece]
            if run and (rows + count > step or piece_kinds != kinds):
                yield _joined(run, sizes, columns), rows
                run, sizes, rows = [], [], 0
            run.append(piece)
            sizes.append(count)
            rows += count
            kinds = piece_kinds
    if run:
        yield _joined(run, sizes, columns), rows


def _csv_cells(values: list) -> list[str]:
    """One column's cells: '%.9g' floats, blank None, true/false, RFC-4180 quoting of the rest."""
    first = values[0]
    if isinstance(first, float):
        return list(map("%.9g".__mod__, values))
    if isinstance(first, bool):
        return ["true" if value else "false" for value in values]
    if isinstance(first, int):
        return list(map(str, values))
    texts = ["" if value is None else ",".join(map(str, value)) if isinstance(value, list) else str(value)
             for value in values]
    return ['"%s"' % text.replace('"', '""') if any(c in text for c in ',"\r\n') else text for text in texts]


@functools.cache
def _tables():
    """Words (uint32) of four ASCII digits for 0..9999, 10,000 per kind of word: all NUL, leading zeros as
    NUL, in full, trailing zeros as NUL, and leading zeros as NUL but for the last two; the sign, point and
    exponent words; 10^k as int64 for k < 19, and as the nearest float64 for k in -301..340 (1e308 above 308)."""
    values, place = np.arange(10000, dtype=np.int16)[:, None], np.array([1000, 100, 10, 1], dtype=np.int16)
    full = (values // place % 10 + 48).astype(np.uint8)
    digits = [np.where(keep, full, 0).view(np.uint32).ravel()
              for keep in (False, (values >= place) | (place == 1), True, values % (place * 10) != 0,
                           (values >= place) | (place <= 10))]
    return (np.concatenate(digits), *_text_words(["-", ".", "e+", "e-"])[:, 0], 10 ** np.arange(19),
            np.array([float(f"1e{min(k, 308)}") for k in range(-301, 341)]))


_LEAD, _FULL, _TRAIL, _TWO = (10000 * kind for kind in range(1, 5))  # offsets of the kinds after all-NUL


def _text_words(cells: list[str]) -> np.ndarray:
    """Each cell's UTF-8 bytes as one row of NUL-padded words."""
    data = [cell.encode() for cell in cells]
    width = max(4, -(-max(map(len, data)) // 4) * 4)
    return np.frombuffer(b"".join(item.ljust(width, b"\0") for item in data), np.uint32).reshape(len(data), -1)


def _digit_words(mag: np.ndarray) -> list:
    """str() of non-negative ints as word columns, most significant first: all NUL above a row's highest
    nonzero group of four digits, leading zeros as NUL in it, in full below it."""
    words = _tables()[0]
    count = (len(str(np.maximum.reduce(mag))) + 3) // 4
    cells = []
    for k in reversed(range(count)):
        high = mag // 10 ** (4 * k) if k else mag  # the digits from group k up
        group = high if k == count - 1 else high - high // 10000 * 10000
        kind = _LEAD if k == 0 else (high > 0) * _LEAD
        if k < count - 1:
            kind = kind + (high >= 10000) * (_FULL - _LEAD)
        cells.append(words[group.astype(np.intp, copy=False) + kind])
    return cells


def _number_words(x: np.ndarray) -> list:
    """A 1-D int column as str() cells, a float one as '%.9g' cells, in word columns (those all NUL left out).

    A float's nine digits are rint(|x| * 10^(8-e)). The power of ten and the product are each rounded at
    most once, so the product is within 2^-52 of its size from the exact one, and '%.9g' itself formats a
    value whose product lies within 2^-50 of its size from a half-integer, and one not finite or below 1e-300.
    """
    words, minus, dot, e_plus, e_minus, ipow, fpow = _tables()
    if x.dtype.kind in "iu":
        x = x if x.dtype == np.uint64 else x.astype(np.int64, copy=False)
        negative = x < 0
        if not np.count_nonzero(negative):
            return _digit_words(x)
        return [negative * minus, *_digit_words(np.where(negative, ~x, x).astype(np.uint64) + negative)]
    x = x.astype(np.float64, copy=False)
    finite = np.isfinite(x)
    a = np.where(finite, np.abs(x), 0.0)
    e = np.floor(np.log10(np.where(a > 0, a, 1.0))).astype(np.int64)
    scaled = a * fpow[309 - e]
    # log10 can miss the decade by one next to a power of ten; a zero ends at e = -1 and prints as 0
    fix = np.flatnonzero((scaled < 1e8) | (scaled >= 1e9))
    if fix.size:
        e[fix] += np.where(scaled[fix] < 1e8, -1, 1)
        scaled[fix] = a[fix] * fpow[309 - e[fix]]
    digits = np.rint(scaled)
    python = ~finite | (e < -300) | (np.abs(scaled - digits) + scaled * 2.0**-50 >= 0.5)
    digits = digits.astype(np.int64)
    carry = digits == 10**9
    if np.count_nonzero(carry):
        digits[carry] = 10**8
        e += carry
    sci = (e < -4) | (e >= 9)
    point = np.where(sci, 0, e) if np.count_nonzero(sci) else e
    scale = ipow[8 - point]
    integer = digits // scale
    fraction = (digits - integer * scale) * ipow[4 + point]  # twelve digits after the point
    head = fraction // 10**8
    rest = fraction - head * 10**8
    middle = rest // 10**4
    tail = rest - middle * 10**4
    cells = [np.signbit(x) * minus, *_digit_words(integer), (fraction != 0) * dot,
             words[head + (rest == 0) * (_TRAIL - _FULL) + _FULL],
             words[middle + (tail == 0) * (_TRAIL - _FULL) + _FULL], words[tail + _TRAIL]]
    if np.count_nonzero(sci):
        cells += [np.where(sci, np.where(e < 0, e_minus, e_plus), 0), words[np.abs(e) + sci * _TWO]]
    if np.count_nonzero(python):
        rows = np.flatnonzero(python)
        text = _text_words(list(map("%.9g".__mod__, x[rows].tolist())))
        for column, word in enumerate(cells):
            word[rows] = text[:, column] if column < text.shape[1] else 0
    return [word for word in cells if np.count_nonzero(word)]


def _csv_chunk(chunk: dict, count: int, columns) -> str:
    # a function of its own, so one chunk's word table is freed before the next chunk's is built
    words, text = [], ""  # text: the cells of a run of one-value columns, and the commas around them
    for name in columns:
        value = chunk[name]
        if isinstance(value, np.ndarray):
            words += list(_text_words([text]).T) if text else []
            words += (_number_words(value) if value.ndim == 1 and value.dtype.kind in "fiu"
                      else list(_text_words(_csv_cells(value.tolist())).T))
            text = ","
        else:
            text += _csv_cells([value])[0] + ","
    words += list(_text_words([text[:-1] + "\n"]).T)
    table = np.empty((len(words), count), np.uint32)
    for row, word in enumerate(words):
        table[row] = word
    return table.tobytes(order="F").translate(None, b"\0").decode()  # a CSV row is a column of the table


def _csv_text(blocks: Iterable[dict], columns) -> Iterator[str]:
    """The header, then one string per chunk."""
    yield ",".join(columns) + "\n"
    for chunk, count in _chunks(blocks, columns):
        yield _csv_chunk(chunk, count, columns)


def _json_chunk(chunk: dict, count: int, columns) -> str:
    # a function of its own, so one chunk's values are freed before the next chunk's are encoded
    values = [chunk[name].tolist() if isinstance(chunk[name], np.ndarray) else itertools.repeat(chunk[name], count)
              for name in columns]
    rows = json.dumps([dict(zip(columns, row)) for row in zip(*values)], indent=2)
    return "  " + rows[2:-2].replace("\n", "\n  ")  # the list's items, two levels deep


def _json_text(blocks: Iterable[dict], columns, meta: dict) -> Iterator[str]:
    """json.dumps({"meta": meta, "rows": rows}, indent=2) and a newline, one string per chunk."""
    head, tail = json.dumps({"meta": meta, "rows": []}, indent=2).rsplit("[]", 1)
    yield head + "["
    separator = "\n"
    for chunk, count in _chunks(blocks, columns):
        yield separator + _json_chunk(chunk, count, columns)
        separator = ",\n"
    yield ("]" if separator == "\n" else "\n  ]") + tail + "\n"


def _write_file(path: str, text: Iterable[str]) -> None:
    """Write to a new temporary file beside path, renamed onto it once complete (a device or pipe: in place)."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", newline="") as handle:
            handle.writelines(text)
        return
    path = os.path.realpath(path)  # a symlink keeps pointing at the output
    if os.path.exists(path) and not os.access(path, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)  # as open(path, "w") would
    for attempt in itertools.count():
        target = f"{path}.{os.getpid()}.{attempt}.tmp"
        try:
            handle = open(target, "x", newline="")  # exclusive: an existing file of that name is left alone
        except FileExistsError:
            continue
        break
    try:
        with handle:
            handle.writelines(text)
        os.replace(target, path)
    except BaseException:
        os.unlink(target)
        raise


def emit(blocks: Iterable[dict], columns, config: RunConfig, extra_meta: dict | None = None) -> None:
    """Stream column blocks as CSV or JSON to stdout, or to --output once complete."""
    if config.format == "json":
        text = _json_text(blocks, columns, {**asdict(config), **(extra_meta or {})})
    else:
        text = _csv_text(blocks, columns)
    if config.output is None:
        sys.stdout.writelines(text)
    else:
        _write_file(config.output, text)


# --- the subcommand table -------------------------------------------------------


@dataclass(frozen=True)
class _Subcommand:
    help: str
    options: tuple[str, ...]  # keys of _OPTION_GROUPS, in --help order
    columns: tuple[str, ...]  # CSV header; empty for a report
    build: Callable[[RunConfig], Iterator]  # yields column blocks; validate yields its checks
    write: Callable[[Iterable, tuple[str, ...], RunConfig, dict], None] | None = None  # None: emit
    defaults: dict = field(default_factory=dict)  # dest -> default, making that option optional
    meta: Callable[[RunConfig], dict] | None = None  # JSON meta extras, computed after the first block


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
        ("n", "b", "t", "split", "negativity", "separable"), _rows_negativity, defaults={"n": 2},
        meta=_meta_negativity),
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
            target = p.add_mutually_exclusive_group(required=True) if group in ("field", "temperature") else p
            for flags, keywords in _OPTION_GROUPS[group]:
                dest = flags[0].lstrip("-").replace("-", "_")
                if dest in spec.defaults:
                    keywords = {**keywords, "required": False, "default": spec.defaults[dest]}
                target.add_argument(*flags, **keywords)
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
        blocks = spec.build(config)
        # the first block is built now, so every cap and domain check runs before the first byte; the
        # list is held only by its iterator, which lets it go once the block is written
        blocks = itertools.chain(iter(list(itertools.islice(blocks, 1))), blocks)
        extra_meta = spec.meta(config) if spec.meta else {}
        (spec.write or emit)(blocks, spec.columns, config, extra_meta)
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
