"""The benchmark's traced child still reads what it needs from the package.

``bench/tracer.py --mode traced`` wraps the package's public functions and
derives its computed counts from their arguments: the ``.dim`` of the first
argument of ``oracle.diagonalize``, and the cache misses of
``states.sector_amplitude_matrix``.  A change to those values' shape breaks
the benchmark without failing any other test, so each subcommand the
benchmark runs is traced here once, in a fresh interpreter, at a small size.
``purity`` and ``negativity`` build no whole Gibbs state: they make one dense
call per field (``thermal.dense_purities``, ``entanglement.negativities``),
each over the field's temperatures, so their cases run three fields and pin
three calls.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# CLI argv -> records "<module>.<function>.<key>" that its traced run must hold: the count it must equal, or
# None for any count above 0
CASES = {
    "validate --n 4": {"oracle.diagonalize.dim": None, "states.sector_amplitude_matrix.dets": None},
    "negativity --n 4 --b-range -0.5:0.5:3 --t 0.5": {"entanglement.negativities.calls": 3},
    "purity --n 4 --b-range -0.5:0.5:3 --t-range 0:1:3 --format json": {"thermal.dense_purities.calls": 3},
    "spectrum --n 6 --b 0.2": {"spectrum.level_runs.calls": None, "spectrum.level_runs.levels": None},
}


@pytest.mark.parametrize("argv", CASES)
def test_traced_benchmark_run_records_its_counts(argv, tmp_path):
    result = tmp_path / "result.json"
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "tracer.py"), "--mode", "traced", "--result", str(result), "--",
         *argv.split()],
        cwd=tmp_path, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    record = json.loads(result.read_text())
    assert record["exit"] == 0
    for name, expected in CASES[argv].items():
        function, key = name.rsplit(".", 1)
        count = record["functions"][function].get(key, 0)
        assert count > 0 if expected is None else count == expected, (name, count)
