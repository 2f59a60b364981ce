"""The benchmark's traced child still reads what it needs from the package.

``bench/tracer.py --mode traced`` wraps the package's public functions and
derives its computed counts from their arguments: the ``.dim`` of the first
argument of ``oracle.diagonalize``, and the cache misses of
``states.sector_amplitude_matrix``.  A change to those values' shape breaks
the benchmark without failing any other test, so each subcommand the
benchmark runs is traced here once, in a fresh interpreter, at a small size.
``purity`` and ``negativity`` stream their Gibbs states' sector blocks
(``thermal.dense_purities``, ``entanglement.negativities``) and build no
whole state, so their cases read the streams' call counts.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# CLI argv -> records "<module>.<function>.<key>" that its traced run must hold, each above 0
CASES = {
    "validate --n 4": ["oracle.diagonalize.dim", "states.sector_amplitude_matrix.dets"],
    "negativity --n 4 --b 0.3 --t 0.5": ["entanglement.negativities.calls"],
    "purity --n 4 --b 0.3 --t-range 0:1:3 --format json": ["thermal.dense_purities.calls"],
    "spectrum --n 6 --b 0.2": ["spectrum.level_runs.calls", "spectrum.level_runs.levels"],
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
    for name in CASES[argv]:
        function, key = name.rsplit(".", 1)
        assert record["functions"][function].get(key, 0) > 0, name
