"""Repeat bench/run.py over workloads and seeds and summarize the spread.

    python3 bench/report.py                                  # all workloads, seeds 1-10
    python3 bench/report.py --workloads spectrum-sweep --seeds 11-15
    python3 bench/report.py --out .bench_work/a.json
    python3 bench/report.py --out .bench_work/b.json --against .bench_work/a.json

Every run uses BENCHMARK.json's ``run_seconds`` and ``--trace 0``.  For each
workload and end-to-end metric it prints the number of runs, the quartiles of
the per-run medians, and their spread (q3 - q1) / median next to the metric's
bound; ``--against`` also compares each median with an earlier report's.
Every run's result and environment line is saved to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
from run import quartiles  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    tagged = {line.split(" ", 1)[0]: json.loads(line.split(" ", 1)[1]) for line in lines
              if line.startswith(("env ", "samples "))}
    return {"workload": workload, "seed": seed, **tagged, "result": json.loads(lines[-1])}


def summarize(runs: list[dict], declared: list[dict], against: list[dict] | None) -> bool:
    steady = True
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run["result"] for run in runs if run["workload"] == workload]
        attempted = sum(result["attempted"] for result in mine)
        failed = sum(result["failed"] for result in mine)
        print(f"{workload}: {len(mine)} runs, {attempted} attempts, failed_frac {failed / attempted:.3f}, "
              f"all correct: {all(result['correct'] for result in mine)}")
        for metric in declared:
            name, bound = metric["name"], metric["bound"]
            values = [result["metrics"][name]["value"] for result in mine]
            q1, median, q3 = quartiles(values)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "" if spread < bound / 3 else "  <-- spread above bound/3"
            steady &= not flag
            line = (f"  {name:<14} {metric['unit']:<5} n={len(values):<3} q1={q1:<11.5g} median={median:<11.5g} "
                    f"q3={q3:<11.5g} spread={spread:.3f} (bound {bound})" + flag)
            if against:
                before = [run["result"]["metrics"][name]["value"] for run in against if run["workload"] == workload]
                if before:
                    change = median / statistics.median(before) - 1.0
                    worse = change if metric["better"] == "lower" else -change
                    line += f" vs earlier {change:+.3f}"
                    if worse > bound:
                        line += "  <-- worse than bound"
                        steady = False
            print(line)
    return steady


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(names), help="comma-separated (default: all)")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,11-13")
    parser.add_argument("--out", default=str(ROOT / ".bench_work" / "report.json"))
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    unknown = set(workloads) - set(names)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}")

    runs = []
    # seeds outermost, so slow drift of the machine touches every workload alike
    for seed in parse_seeds(args.seeds):
        for workload in workloads:
            runs.append(run_once(workload, seed, spec["run_seconds"]))
            result = runs[-1]["result"]
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(runs, indent=1) + "\n")
    against = json.loads(Path(args.against).read_text()) if args.against else None
    steady = summarize(runs, spec["end_to_end"], against)
    print("every spread below a third of its bound" if steady else "NOT steady: see the flagged lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
