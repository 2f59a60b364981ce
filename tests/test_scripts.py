"""Smoke test of the dataset script ``scripts/datasets.py``.

Its ``main()`` runs once into a temporary directory; every file its
docstring lists must exist and start with the CSV header of the subcommand
that writes it. ``tests/golden/datasets.json`` pins each file it writes, the
paper's datasets, by byte count and SHA-256.
"""

import hashlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

from xxchain.cli import _SUBCOMMANDS

SCRIPTS_DIR = Path(__file__).parent.parent / "scripts"
SCRIPT = "datasets.py"
PINS = json.loads((Path(__file__).parent / "golden" / "datasets.json").read_text())

# family -> {file pattern in the docstring: subcommand that writes it}. The
# two families are the level crossings at T = 0 and the thermal surfaces; each
# case keeps the name of the script that wrote its family before
# datasets.py wrote both.
CASES = {
    "level_crossing_study.py": {
        "spectrum_n4.csv": "spectrum",
        "crossings_n4.csv": "crossings",
        "thermal_n2_t*.csv": "thermal",
        "limit_overlay.csv": "thermo-limit",
    },
    "purity_surface.py": {
        "purity_n2.csv": "purity",
        "purity_deriv_n2.csv": "purity-derivative",
        "purity_n10.csv": "purity",
        "negativity_n2.csv": "negativity",
    },
}


def load_script(name):
    spec = importlib.util.spec_from_file_location(Path(name).stem, SCRIPTS_DIR / name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def script_run(tmp_path_factory):
    """The loaded script, the exit code of its ``main()`` and its output directory."""
    outdir = tmp_path_factory.mktemp("datasets")
    script = load_script(SCRIPT)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys, "argv", [SCRIPT, "--outdir", str(outdir)])
        code = script.main()
    return script, code, outdir


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_writes_every_listed_file(name, script_run):
    writers = CASES[name]
    script, code, outdir = script_run
    listed = re.findall(r"^  (\S+\.csv)\s", script.__doc__, flags=re.MULTILINE)
    assert sorted(listed) == sorted(pattern for family in CASES.values() for pattern in family)

    assert code == 0
    assert sorted(path.name for path in outdir.iterdir()) == sorted(PINS)

    for pattern, subcommand in writers.items():
        paths = sorted(outdir.glob(pattern))
        assert paths, pattern
        header = ",".join(_SUBCOMMANDS[subcommand].columns) + "\n"
        for path in paths:
            data = path.read_bytes()
            assert data.startswith(header.encode()), path.name
            assert {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()} == PINS[path.name], path.name
