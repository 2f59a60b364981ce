"""Byte-for-byte CLI output against committed golden files and digests.

Each file under ``tests/golden/`` is the stdout of ``run(argv)`` for the argv
listed next to it, captured once and kept unchanged so that any refactor of
the library shows up here as a byte difference.  Regenerate a file only when
an output change is intended, by writing ``run(argv)``'s stdout to it.

``tests/golden/digests.json`` pins outputs too large to commit, at the sizes
where chunk and block boundaries are crossed, by argv, byte count and SHA-256.
``tests/golden/coupling_digests.json`` pins outputs at couplings j other than 1
the same way, at fields away from every crossing.  A coverage test asks for a
pin of every subcommand in every format, and one at j != 1 where --j is taken.
``validate`` runs in a fresh interpreter with one BLAS thread: the last digit
of its worst values depends on the thread count.  Its digests also hold under
the compensated float ``sum`` of Python 3.12 and later.  The golden argvs also
check that each column keeps one kind in every block, which the chunker relies on.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from xxchain.cli import _OPTION_GROUPS, _SUBCOMMANDS, run

GOLDEN_DIR = Path(__file__).parent / "golden"
DIGESTS = {name: entry for path in ("digests.json", "coupling_digests.json")
           for name, entry in json.loads((GOLDEN_DIR / path).read_text()).items()}
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CASES = {
    "spectrum_n3.csv": ["spectrum", "--n", "3", "--b-range", "-1:1:3"],
    "ground_state_n4_k2.csv": ["ground-state", "--n", "4", "--k", "2"],
    "ground_state_n4_k2.json": ["ground-state", "--n", "4", "--k", "2", "--format", "json"],
    "crossings_n4.csv": ["crossings", "--n", "4"],
    "thermal_n2.csv": ["thermal", "--n", "2", "--b-range", "-0.4:0.4:2", "--t-range", "0:1:2"],
    "purity_n4.csv": ["purity", "--n", "4", "--b-range", "-1:1:3", "--t-range", "0:2:3"],
    "purity_n4.json": ["purity", "--n", "4", "--b-range", "-1:1:3", "--t-range", "0:2:3", "--format", "json"],
    "purity_n6.json": ["purity", "--n", "6", "--b-range", "-1:1:3", "--t-range", "0:2:3", "--format", "json"],
    "purity_derivative_n3.csv": ["purity-derivative", "--n", "3", "--b-range", "-0.5:0.5:3", "--t-range", "0.5:1:2"],
    "negativity_n2.csv": ["negativity", "--n", "2", "--b-range", "0:0.5:2", "--t-range", "0.5:1.5:3"],
    "negativity_n4.csv": ["negativity", "--n", "4", "--b", "0.2", "--t-range", "0.2:1:3"],
    "thermo_limit.csv": ["thermo-limit", "--sizes", "4", "10", "--b-range", "-1:1:3"],
    "spectrum_n3.json": ["spectrum", "--n", "3", "--b", "0.5", "--format", "json"],
    "negativity_n2.json": ["negativity", "--n", "2", "--b", "0.3", "--t-range", "0.5:1.5:3", "--format", "json"],
    "thermo_limit.json": ["thermo-limit", "--sizes", "4", "--b", "0.5", "--format", "json"],
    "crossings_n4.json": ["crossings", "--n", "4", "--format", "json"],
    "purity_derivative_n3.json": ["purity-derivative", "--n", "3", "--b-range", "-0.5:0.5:3", "--t-range", "0.5:1:2",
                                  "--format", "json"],
    # above the dense cap: purity_dense is a blank cell in CSV and null in JSON
    "purity_n11.csv": ["purity", "--n", "11", "--b", "0.3", "--t-range", "0.5:1:2"],
    "purity_n11.json": ["purity", "--n", "11", "--b", "0.3", "--t-range", "0.5:1:2", "--format", "json"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden_file(name, capsys):
    assert run(CASES[name]) == 0
    expected = (GOLDEN_DIR / name).read_text()
    assert capsys.readouterr().out == expected


def _kind(value):
    return (value.dtype, value.shape[1:]) if isinstance(value, np.ndarray) else type(value)


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_column_keeps_one_kind_in_every_block(name):
    """The chunker joins consecutive blocks column by column without looking at kinds, so a column that changes
    kind (a float column with one None, say) makes the write fail or come out wrong."""
    blocks = []
    with mock.patch("xxchain.cli.emit", lambda rows, *_: blocks.extend(rows)):
        assert run(CASES[name]) == 0
    kinds = {column: {_kind(block[column]) for block in blocks} for column in blocks[0]}
    assert {column: found for column, found in kinds.items() if len(found) > 1} == {}


def _stdout_in_fresh_process(argv, command=("-m", "xxchain.cli")):
    env = {**os.environ, **ONE_BLAS_THREAD,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *command, *argv], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_cli_output_matches_digest(name, capsysbinary):
    entry = DIGESTS[name]
    if entry["argv"][0] == "validate":
        data = _stdout_in_fresh_process(entry["argv"])
    else:
        assert run(entry["argv"]) == 0
        data = capsysbinary.readouterr().out
    assert (len(data), hashlib.sha256(data).hexdigest()) == (entry["bytes"], entry["sha256"])


# the CLI with Python 3.12's float sum (Neumaier's compensated summation) as its sum; an int sum stays exact
COMPENSATED_SUM_CLI = """
import builtins, math, sys
import xxchain.cli

def compensated_sum(values, start=0):
    values = list(values)
    if not all(isinstance(value, float) for value in values):
        return builtins.sum(values, start)
    total, compensation = float(start), 0.0
    for value in values:
        step = total + value
        compensation += (total - step) + value if abs(total) >= abs(value) else (value - step) + total
        total = step
    return total + compensation if compensation and math.isfinite(compensation) else total

xxchain.cli.sum = compensated_sum
sys.exit(xxchain.cli.run(sys.argv[1:]))
"""


@pytest.mark.parametrize("name", sorted(name for name, entry in DIGESTS.items() if entry["argv"][0] == "validate"))
def test_validate_digest_holds_under_a_compensated_sum(name):
    """validate's sums add left to right, so its report does not depend on the interpreter's sum."""
    entry = DIGESTS[name]
    data = _stdout_in_fresh_process(entry["argv"], ("-c", COMPENSATED_SUM_CLI))
    assert (len(data), hashlib.sha256(data).hexdigest()) == (entry["bytes"], entry["sha256"])


def _pinned_kind(argv):
    """(subcommand, format, j) of a pinned argv."""
    def value(flag, default):
        return argv[argv.index(flag) + 1] if flag in argv else default
    return argv[0], value("--format", "csv"), float(value("--j", "1"))


def test_every_kind_of_output_is_pinned():
    """Each subcommand that writes data has a pin in every format, and each that takes --j one at j != 1."""
    pinned = {_pinned_kind(argv) for argv in [*CASES.values(), *(entry["argv"] for entry in DIGESTS.values())]}
    formats = dict(_OPTION_GROUPS["output"])[("--format",)]["choices"]
    missing = [(name, fmt) for name, spec in _SUBCOMMANDS.items() if "output" in spec.options for fmt in formats
               if not any(kind[:2] == (name, fmt) for kind in pinned)]
    missing += [(name, "j != 1") for name, spec in _SUBCOMMANDS.items() if "j" in spec.options
                if not any(kind[0] == name and kind[2] != 1 for kind in pinned)]
    assert missing == []
