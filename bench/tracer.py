"""Child process of the benchmark: one in-process CLI run, optionally traced.

    python3 bench/tracer.py --mode plain  --result PATH -- <xxchain.cli argv>
    python3 bench/tracer.py --mode traced --result PATH -- <xxchain.cli argv>
    python3 bench/tracer.py --mode env    --result PATH

``plain`` imports xxchain.cli and times ``cli.run(argv)``.  ``traced`` first
replaces every public function of the traced modules with a span-recording
wrapper, in each xxchain module that bound the function by name, then does
the same.  ``env`` records the interpreter, numpy and BLAS set-up.  The
result is written as JSON to PATH; the CLI's own output goes where argv says.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import math
import platform
import re
import sys
import time
from dataclasses import dataclass, field

TRACED_MODULES = ("spectrum", "states", "thermal", "entanglement", "oracle", "cli")


@dataclass
class Stat:
    self_s: float = 0.0
    calls: int = 0
    extra: dict = field(default_factory=dict)

    def add(self, key: str, amount) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


def _first_arguments(func, args, kwargs) -> list:
    return list(inspect.signature(func).bind(*args, **kwargs).arguments.values())


# Computed kernel counts, taken from the arguments: they repeat exactly run to run.
def _dets_on_miss(stat, arguments):
    n, m = arguments[:2]
    stat.add("dets", math.comb(n, m) ** 2)


def _dense_rho_bytes(stat, arguments):
    stat.add("bytes", 8 * 4 ** arguments[0].n)


def _solver_dim(stat, arguments):
    stat.extra["dim"] = max(stat.extra.get("dim", 0), arguments[0].dim)


ON_CALL = {
    "thermal.thermal_density_matrix": _dense_rho_bytes,
    "entanglement.negativity": _solver_dim,
    "oracle.diagonalize": _solver_dim,
}
ON_CACHE_MISS = {"states.sector_amplitude_matrix": _dets_on_miss}


class Tracer:
    """Spans around calls into each traced module; self time = span minus child spans."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.originals: dict[str, object] = {}
        self.root_s = 0.0
        self._children: list[float] = []

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"xxchain.{short}"]
            for name, obj in vars(module).items():
                is_function = inspect.isfunction(obj) or hasattr(obj, "cache_info")
                if name.startswith("_") or not is_function or getattr(obj, "__module__", None) != module.__name__:
                    continue
                qualified = f"{short}.{name}"
                self.originals[qualified] = obj
                self.stats[qualified] = Stat()
                wrappers[id(obj)] = (obj, self._wrap(qualified, obj))
        # a name imported with ``from .x import f`` is a separate binding: patch each one
        for module_name, module in list(sys.modules.items()):
            if module_name != "xxchain" and not module_name.startswith("xxchain."):
                continue
            for name, obj in list(vars(module).items()):
                original, wrapper = wrappers.get(id(obj), (None, None))
                if original is obj:
                    setattr(module, name, wrapper)

    def _enter(self) -> float:
        self._children.append(0.0)
        return time.perf_counter()

    def _leave(self, stat: Stat, start: float) -> None:
        elapsed = time.perf_counter() - start
        stat.self_s += elapsed - self._children.pop()
        if self._children:
            self._children[-1] += elapsed
        else:
            self.root_s += elapsed

    def _wrap(self, qualified: str, func):
        stat = self.stats[qualified]
        on_call = ON_CALL.get(qualified)
        on_miss = ON_CACHE_MISS.get(qualified)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            misses = func.cache_info().misses if on_miss else 0
            start = self._enter()
            try:
                result = func(*args, **kwargs)
            finally:
                self._leave(stat, start)
            if on_call:
                on_call(stat, _first_arguments(func, args, kwargs))
            if on_miss and func.cache_info().misses > misses:
                on_miss(stat, _first_arguments(func, args, kwargs))
            if inspect.isgenerator(result):
                return self._consume(stat, result)
            return result

        if hasattr(func, "cache_info"):
            wrapper.cache_info, wrapper.cache_clear = func.cache_info, func.cache_clear
        return wrapper

    def _consume(self, stat: Stat, generator):
        """Re-yield, timing each resumption, so lazily built levels land in the producer's span."""
        try:
            while True:
                start = self._enter()
                try:
                    item = next(generator)
                except StopIteration:
                    return
                finally:
                    self._leave(stat, start)
                stat.add("levels", 1)
                yield item
        finally:
            generator.close()

    def report(self) -> dict:
        functions = {}
        for name, stat in self.stats.items():
            record = {"self_s": stat.self_s, "calls": stat.calls, **stat.extra}
            info = getattr(self.originals[name], "cache_info", None)
            if info is not None:
                hits, misses = info().hits, info().misses
                record["hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
            functions[name] = record
        return {"functions": functions, "root_s": self.root_s}


def _blas_threads():
    """Thread count OpenBLAS reports, found through the loaded library; None if unknown."""
    import ctypes

    with open("/proc/self/maps") as maps:
        libraries = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps.read())))
    for path in libraries:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        threads = _blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "traced", "env"), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.mode == "env":
        result = environment()
        code = 0
    else:
        cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv
        import xxchain.cli as cli

        tracer = Tracer() if args.mode == "traced" else None
        if tracer:
            tracer.install()
        start = time.perf_counter()
        code = cli.run(cli_argv)
        wall_s = time.perf_counter() - start
        sys.stdout.flush()
        result = {"exit": code, "wall_s": wall_s, **(tracer.report() if tracer else {})}
    with open(args.result, "w") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
