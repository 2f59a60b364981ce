"""Smoke test of the dataset scripts under ``scripts/``.

Each script's ``main()`` runs into a temporary directory; every file its
docstring lists must exist and start with the CSV header of the subcommand
that writes it.
"""

import importlib.util
import re
import sys
from pathlib import Path

import pytest

from xxchain.cli import _SUBCOMMANDS

SCRIPTS_DIR = Path(__file__).parent.parent / "scripts"

# script -> {file pattern in the docstring: subcommand that writes it}
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


@pytest.mark.parametrize("name", sorted(CASES))
def test_script_writes_every_listed_file(name, tmp_path, monkeypatch):
    writers = CASES[name]
    script = load_script(name)
    listed = re.findall(r"^  (\S+\.csv)\s", script.__doc__, flags=re.MULTILINE)
    assert sorted(listed) == sorted(writers)

    monkeypatch.setattr(sys, "argv", [name, "--outdir", str(tmp_path)])
    assert script.main() == 0

    for pattern, subcommand in writers.items():
        paths = sorted(tmp_path.glob(pattern))
        assert paths, pattern
        header = ",".join(_SUBCOMMANDS[subcommand].columns) + "\n"
        for path in paths:
            with path.open() as handle:
                assert handle.readline() == header, path.name
