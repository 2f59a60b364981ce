"""Benchmark of the xxchain command line: one workload, one seed, one run.

    python3 bench/run.py --workload purity-surface --seed 1 --seconds 20 --trace 0

Run from anywhere inside a source checkout; the package is imported from its
``src`` directory, never from an installed copy.

``--trace 0`` repeats, until ``--seconds`` have passed, one iteration of fresh
interpreters: three ``python -c "import xxchain.cli"`` (set-up) and one
``python -m xxchain.cli <workload argv>``.  Each child's wall time, CPU time
and peak RSS come from its own ``os.wait4`` (in ``launch.py``).  The
end-to-end metrics are the medians over the samples of the run.

``--trace 1`` repeats pairs of fresh in-process runs of the same argv
(``tracer.py``): one plain, one with spans around every public function of the
traced modules.  It reports per-module and per-function self times, call and
kernel counts, and the tracing overhead.

Every output is checked by ``workloads.py`` without the package; a nonzero
exit, a timeout or a failed check counts as a failed attempt.  Human-readable
lines go first; the last stdout line is the JSON result, whose metric names
and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import TRACED_MODULES  # noqa: E402
from workloads import WORKLOADS, CheckFailed, Grid, Workload  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"
LAUNCHER = Path(__file__).resolve().parent / "launch.py"

# One BLAS thread on both sides of every comparison: with two, medians on the
# dense workloads drift far more between batches on a shared two-core machine.
BLAS_THREADS = "1"
MIN_ITERATIONS = 5
MIN_TRACE_PAIRS = 2
# Bare imports per iteration: setup_s is the median of many short samples.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 30.0
SETUP_TIMEOUT_S = 10.0
LAUNCHER_GRACE_S = 10.0
# An iteration starts only if all its children can time out before the run is
# this old, so a hung program still ends the run well inside 180 s.
DEADLINE_S = 170.0
ITERATION_WORST_S = SETUP_SAMPLES * (SETUP_TIMEOUT_S + LAUNCHER_GRACE_S) + CHILD_TIMEOUT_S + LAUNCHER_GRACE_S
TRACE_PAIR_WORST_S = 2 * (CHILD_TIMEOUT_S + LAUNCHER_GRACE_S)
PROCESS_START = time.perf_counter()


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = BLAS_THREADS
    return env


def spawn(argv: list[str], stdout_path: Path, timeout_s: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion through launch.py, which reads its resources with os.wait4.

    A launcher that fails or hangs gives a child with returncode -1, a failed attempt.
    """
    with open(WORK / "stderr.txt", "ab") as err:
        try:
            launcher = subprocess.run(
                [sys.executable, str(LAUNCHER), str(timeout_s), str(stdout_path), *argv],
                cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
                timeout=timeout_s + LAUNCHER_GRACE_S, check=True,
            )
            child = Child(**json.loads(launcher.stdout))
        except (subprocess.SubprocessError, ValueError, TypeError) as exc:
            print(f"launcher failed ({exc}): {' '.join(argv)}", file=sys.stderr)
            return Child(wall_s=0.0, cpu_s=0.0, peak_rss_mb=0.0, returncode=-1)
    if child.returncode == -signal.SIGKILL:
        print(f"timeout after {timeout_s:.0f} s: {' '.join(argv)}", file=sys.stderr)
    return child


class OutputChecker:
    """Checks one run's outputs; a byte-identical repeat of a checked output passes by digest."""

    def __init__(self, workload: Workload, fields: Grid | None, temperatures: Grid | None):
        self.workload, self.fields, self.temperatures = workload, fields, temperatures
        self.verified: dict[str, int] = {}

    def rows(self, output: Path) -> int | None:
        """Data rows in a correct output, None (and a message) for a wrong or missing one."""
        try:
            data = output.read_bytes()
        except OSError as exc:
            print(f"no output from {self.workload.name}: {exc}", file=sys.stderr)
            return None
        digest = hashlib.sha256(data).hexdigest()
        if digest not in self.verified:
            try:
                self.verified[digest] = self.workload.check(self.workload, data, self.fields, self.temperatures)
            except (CheckFailed, ValueError, KeyError, TypeError) as exc:
                print(f"check failed on {self.workload.name}: {exc}", file=sys.stderr)
                return None
        return self.verified[digest]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def print_table(title: str, samples: dict[str, list[float]], units: dict[str, str]) -> None:
    print(title)
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        print(f"  {name:<48} {units.get(name, ''):<14} n={len(values):<3} "
              f"q1={q1:<12.6g} median={median:<12.6g} q3={q3:.6g}")


def read_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git; None outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def record_environment(workload: Workload, seed: int, seconds: int, trace: bool) -> None:
    load = os.getloadavg()
    result = WORK / "env.json"
    if spawn([sys.executable, str(TRACER), "--mode", "env", "--result", str(result)], WORK / "env.out").returncode:
        raise SystemExit("could not record the numpy/BLAS environment")
    env = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": read_commit(), "source_sha256": source_digest(),
        **json.loads(result.read_text()),
        "blas_threads_requested": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "loadavg_start": load,
    }
    print("env " + json.dumps(env))


def keep_going(count: int, minimum: int, started: float, seconds: float, worst_s: float) -> bool:
    now = time.perf_counter()
    if now - PROCESS_START + worst_s > DEADLINE_S:
        return False
    return count < minimum or now - started < seconds


def run_end_to_end(workload: Workload, checker: OutputChecker, argv: list[str], output: Path, seconds: float):
    """Alternate a few bare imports and one invocation; return per-metric samples and counts."""
    python = sys.executable
    stdout_path = WORK / "stdout.txt"
    bare_import = [python, "-c", "import xxchain.cli"]
    spawn(bare_import, stdout_path, SETUP_TIMEOUT_S)  # warm-up: bytecode and file cache
    samples = {"setup_s": [], "wall_s": [], "cpu_s": [], "rows_per_s": [], "peak_rss_mb": []}
    attempted = failed = 0
    started = time.perf_counter()
    while keep_going(attempted, MIN_ITERATIONS, started, seconds, ITERATION_WORST_S):
        setups = [spawn(bare_import, stdout_path, SETUP_TIMEOUT_S) for _ in range(SETUP_SAMPLES)]
        output.unlink(missing_ok=True)  # a run that writes nothing must not pass on an old file
        child = spawn([python, "-m", "xxchain.cli", *argv], output if workload.writes_stdout else stdout_path)
        attempted += 1
        setups_ok = all(setup.returncode == 0 for setup in setups)
        rows = checker.rows(output) if child.returncode == 0 and setups_ok else None
        if rows is None:
            failed += 1
            continue
        samples["setup_s"].extend(setup.wall_s for setup in setups)
        samples["wall_s"].append(child.wall_s)
        samples["cpu_s"].append(child.cpu_s)
        samples["rows_per_s"].append(rows / child.wall_s)
        samples["peak_rss_mb"].append(child.peak_rss_mb)
    return samples, attempted, failed


def run_traced(workload: Workload, checker: OutputChecker, argv: list[str], output: Path, seconds: float):
    """Alternate plain and traced in-process runs; return per-metric samples and counts."""
    stdout_path = WORK / "stdout.txt"
    result_path = WORK / "trace.json"
    samples: dict[str, list[float]] = {}
    attempted = failed = 0
    started = time.perf_counter()
    while keep_going(attempted // 2, MIN_TRACE_PAIRS, started, seconds, TRACE_PAIR_WORST_S):
        pair = {}
        for mode in ("plain", "traced"):
            output.unlink(missing_ok=True)
            result_path.unlink(missing_ok=True)
            child = spawn([sys.executable, str(TRACER), "--mode", mode, "--result", str(result_path), "--", *argv],
                          output if workload.writes_stdout else stdout_path)
            attempted += 1
            rows = checker.rows(output) if child.returncode == 0 else None
            if rows is None:
                failed += 1
                break
            pair[mode] = json.loads(result_path.read_text())
            pair["rows"], pair["bytes"] = rows, output.stat().st_size
        else:
            for name, value in layer_metrics(pair).items():
                samples.setdefault(name, []).append(value)
    return samples, attempted, failed


def layer_metrics(pair: dict) -> dict[str, float]:
    traced = pair["traced"]
    metrics: dict[str, float] = {}
    for module in TRACED_MODULES:
        metrics[f"{module}.self_s"] = sum(record["self_s"] for name, record in traced["functions"].items()
                                          if name.split(".")[0] == module)
    for name, record in traced["functions"].items():
        for key, value in record.items():
            metrics[f"{name}.{key}"] = value
    spans = sum(metrics[f"{module}.self_s"] for module in TRACED_MODULES)
    metrics["trace.wall_s"] = traced["wall_s"]
    metrics["trace.untraced_wall_s"] = pair["plain"]["wall_s"]
    metrics["trace.uncovered_s"] = traced["wall_s"] - spans
    metrics["trace.span_sum_error_s"] = spans - traced["root_s"]
    metrics["cli.rows"] = pair["rows"]
    metrics["cli.bytes_written"] = pair["bytes"]
    return metrics


COUNT_SUFFIXES = (".calls", ".dets", ".bytes", ".dim", ".levels", ".hit_ratio", "cli.rows", "cli.bytes_written")


def summarize_trace(workload: Workload, samples: dict[str, list[float]]) -> tuple[dict[str, float], bool]:
    """Medians of times, exactly-repeating counts, and the accounting checks."""
    metrics = {}
    consistent = True
    for name, values in samples.items():
        if not name.endswith(COUNT_SUFFIXES):
            metrics[name] = statistics.median(values)
            continue
        metrics[name] = values[0]
        if len(set(values)) > 1:
            print(f"count {name} did not repeat: {values}", file=sys.stderr)
            consistent = False
    if any(abs(error) > 1e-6 for error in samples.get("trace.span_sum_error_s", [])):
        print("self times do not add up to the root spans", file=sys.stderr)
        consistent = False
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1.0

    module_self = {module: metrics[f"{module}.self_s"] for module in TRACED_MODULES}
    wall = metrics["trace.wall_s"]
    print("traced in-process run (medians):")
    for module, value in sorted(module_self.items(), key=lambda item: -item[1]):
        print(f"  {module:<14} self {value:10.4f} s  {100 * value / wall:5.1f}%")
    print(f"  {'uncovered':<14}      {metrics['trace.uncovered_s']:10.4f} s  "
          f"{100 * metrics['trace.uncovered_s'] / wall:5.1f}%   (of traced wall {wall:.4f} s)")
    print(f"  tracing overhead {100 * metrics['trace.overhead_frac']:+.1f}% "
          f"vs untraced in-process {metrics['trace.untraced_wall_s']:.4f} s")
    dominant = max(module_self, key=module_self.get)
    verdict = "matches" if dominant in workload.dominant else "DOES NOT MATCH"
    print(f"  dominant module {dominant} {verdict} the prediction {'+'.join(workload.dominant)}")
    functions = sorted((name for name in metrics if name.endswith(".self_s") and name.count(".") == 2),
                       key=lambda name: -metrics[name])
    print("  top functions by self time:")
    for name in functions[:8]:
        calls = metrics.get(name.replace(".self_s", ".calls"), 0)
        print(f"    {name:<52} {metrics[name]:10.4f} s  calls={calls:g}")
    return metrics, consistent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="xxchain CLI benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "xxchain" / "cli.py").is_file():
        print(f"error: no xxchain sources under {ROOT / 'src'}; run inside a source checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    (WORK / "stderr.txt").write_bytes(b"")
    record_environment(workload, args.seed, args.seconds, bool(args.trace))
    fields, temperatures = workload.grids(args.seed)
    output = WORK / f"{workload.name}.out"
    argv = workload.argv(workload, fields, temperatures, str(output.relative_to(ROOT)))
    print("argv python -m xxchain.cli " + " ".join(argv))
    checker = OutputChecker(workload, fields, temperatures)

    if args.trace:
        declared = spec["per_layer"]
        samples, attempted, failed = run_traced(workload, checker, argv, output, args.seconds)
        metrics, consistent = summarize_trace(workload, samples) if samples else ({}, False)
        if metrics:
            # a function that never ran, or was never called, has no record: its counts and times are 0
            metrics = {metric["name"]: 0.0 for metric in declared} | metrics
    else:
        declared = spec["end_to_end"]
        samples, attempted, failed = run_end_to_end(workload, checker, argv, output, args.seconds)
        metrics = {name: statistics.median(values) for name, values in samples.items() if values}
        if metrics:
            units = {metric["name"]: metric["unit"] for metric in declared}
            print_table(f"{workload.name}, seed {args.seed}: fresh-process samples", samples, units)
            print("samples " + json.dumps(samples))
        consistent = True
    print(f"attempted {attempted}, failed {failed}, failed_frac {failed / max(attempted, 1):.3f}")
    if not metrics:
        print("error: every attempt failed, nothing to report", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
