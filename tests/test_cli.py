import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xxchain.cli import _SUBCOMMANDS, emit, render_csv, run

CROSSINGS_N4 = (
    "k,b_k\n"
    "1,0.809016994\n"
    "2,0.309016994\n"
    "3,-0.309016994\n"
    "4,-0.809016994\n"
)


def test_crossings_golden_output(capsys):
    assert run(["crossings", "--n", "4"]) == 0
    assert capsys.readouterr().out == CROSSINGS_N4


def test_unknown_flag_is_usage_error(capsys):
    assert run(["crossings", "--n", "4", "--bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert run([]) == 1


def test_scalar_and_range_are_exclusive(capsys):
    assert run(["spectrum", "--n", "2", "--b", "0", "--b-range", "0:1:3"]) == 1
    assert run(["spectrum", "--n", "2"]) == 1


def test_bad_ranges_rejected(capsys):
    assert run(["spectrum", "--n", "2", "--b-range", "0:1"]) == 1
    assert run(["spectrum", "--n", "2", "--b-range", "1:0:5"]) == 1
    assert run(["spectrum", "--n", "2", "--b-range", "0:1:0"]) == 1
    assert run(["purity", "--n", "2", "--b", "0", "--t-range", "-1:2:4"]) == 1


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


NON_FINITE_ARGV = {
    "--b": lambda v: ["purity", "--n", "2", "--b", v, "--t", "1"],
    "--t": lambda v: ["purity", "--n", "2", "--b", "0", "--t", v],
    "--j": lambda v: ["purity", "--n", "2", "--j", v, "--b", "0", "--t", "1"],
    "--b-range min": lambda v: ["purity", "--n", "2", "--b-range", f"{v}:1:3", "--t", "1"],
    "--b-range max": lambda v: ["purity", "--n", "2", "--b-range", f"-1:{v}:3", "--t", "1"],
    "--t-range min": lambda v: ["purity", "--n", "2", "--b", "0", "--t-range", f"{v}:1:3"],
    "--t-range max": lambda v: ["purity", "--n", "2", "--b", "0", "--t-range", f"0:{v}:3"],
}


@given(flag=st.sampled_from(sorted(NON_FINITE_ARGV)), value=st.sampled_from(["nan", "inf", "-inf"]))
def test_non_finite_input_is_usage_error(flag, value):
    code, out, err = run_captured(NON_FINITE_ARGV[flag](value))
    assert (code, out) == (1, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["spectrum", "--n", "2", "--b", "0", "--j", "-1"],
    ["spectrum", "--n", "2", "--b", "0", "--j", "0"],
    ["spectrum", "--n", "0", "--b", "0"],
    ["ground-state", "--n", "0", "--k", "0"],
    ["validate", "--n", "-3"],
    ["thermo-limit", "--sizes", "4", "0", "--b", "0"],
    ["spectrum", "--n", "2", "--b", "1e308"],
    ["ground-state", "--n", "4", "--k", "5"],
    ["purity", "--n", "3", "--b", "0", "--t", "1", "--dense-cap", "-1"],
    ["purity", "--n", "3", "--b", "0", "--t", "1", "--dense-cap", "13"],
])
def test_out_of_domain_input_is_usage_error(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@settings(deadline=None)
@given(
    n=st.integers(1, 20),
    big=st.floats(min_value=1e300, max_value=1.7e308),
    sign=st.sampled_from([-1.0, 1.0]),
    on_field=st.booleans(),
)
def test_overflowing_input_is_usage_error(n, big, sign, on_field):
    j, b = (1.0, sign * big) if on_field else (big, sign * 0.5)
    code, out, err = run_captured(["thermo-limit", "--sizes", str(n), "--j", repr(j), "--b", repr(b)])
    if math.isfinite(n * (3 * abs(b) + 2 * j)):
        assert code == 0
        cells = [cell for line in out.splitlines()[1:] for cell in line.split(",")]
        assert all(math.isfinite(float(cell)) for cell in cells)
    else:
        assert (code, out) == (1, "")
        assert err.startswith("error:")


def test_size_error_exit_code(capsys):
    assert run(["spectrum", "--n", "25", "--b", "0"]) == 2
    assert "n <= 20" in capsys.readouterr().err


def test_memory_error_exit_code(monkeypatch):
    def exhausted(params):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr("xxchain.limits.ground_sector", exhausted)
    code, out, err = run_captured(["thermo-limit", "--sizes", "100000000000", "--b", "0"])
    assert code == 2
    assert out == ""
    assert err == "error: out of memory: Unable to allocate 745. GiB\n"


def test_spectrum_rows(capsys):
    assert run(["spectrum", "--n", "3", "--b", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,b,occupation,m,energy"
    assert len(lines) == 1 + 8


def test_ground_state_csv(capsys):
    assert run(["ground-state", "--n", "4", "--k", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,k,positions,amplitude"
    assert lines[1] == "4,1,1,0.371748034"
    assert lines[2] == "4,1,2,0.601500955"


def test_ground_state_positions_quoted_in_csv(capsys):
    assert run(["ground-state", "--n", "4", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert '"1,2",-0.223606798' in out


def test_ground_state_json(tmp_path):
    target = tmp_path / "state.json"
    assert run(["ground-state", "--n", "4", "--k", "2", "--format", "json", "-o", str(target)]) == 0
    document = json.loads(target.read_text())
    assert document["meta"]["subcommand"] == "ground-state"
    assert document["rows"][0]["positions"] == [1, 2]
    assert document["rows"][0]["amplitude"] == pytest.approx(-1 / (2 * math.sqrt(5)), abs=1e-12)


def test_thermal_rows_sum_to_one(capsys):
    assert run(["thermal", "--n", "2", "--b", "0", "--t", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,b,t,beta,l,r,m,energy,probability"
    rows = [line.split(",") for line in lines[1:]]
    assert [row[4] for row in rows] == ["1", "2", "3", "4"]
    assert sum(float(row[8]) for row in rows) == pytest.approx(1.0, abs=1e-9)


def test_purity_schema_and_dense_column(capsys):
    assert run(["purity", "--n", "3", "--b", "0.4", "--t", "0.8"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,b,t,beta,purity_analytic,purity_dense"
    cells = lines[1].split(",")
    assert cells[4] != "" and cells[5] != ""
    assert float(cells[4]) == pytest.approx(float(cells[5]), abs=1e-10)


def test_purity_dense_blank_above_cap(capsys):
    assert run(["purity", "--n", "11", "--b", "0.4", "--t", "0.8"]) == 0
    line = capsys.readouterr().out.strip().split("\n")[1]
    assert line.endswith(",")


def test_dense_cap_flag_and_env(capsys):
    assert run(["purity", "--n", "3", "--b", "0.4", "--t", "0.8", "--dense-cap", "2"]) == 0
    assert capsys.readouterr().out.strip().split("\n")[1].endswith(",")
    assert run(["purity", "--n", "3", "--b", "0.4", "--t", "0.8", "--dense-cap", "3"]) == 0
    assert not capsys.readouterr().out.strip().split("\n")[1].endswith(",")


def test_zero_temperature_maps_to_limit(capsys):
    assert run(["purity", "--n", "4", "--b", "0.6", "--t", "0"]) == 0
    line = capsys.readouterr().out.strip().split("\n")[1]
    cells = line.split(",")
    assert cells[3] == "inf"
    assert float(cells[4]) == 1.0


def test_purity_derivative_odd_in_field(capsys):
    assert run(["purity-derivative", "--n", "2", "--b-range", "-0.5:0.5:3", "--t", "0.5"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,b,t,beta,dpurity_db"
    left = float(lines[1].split(",")[4])
    middle = float(lines[2].split(",")[4])
    right = float(lines[3].split(",")[4])
    assert left == pytest.approx(-right, abs=1e-9)
    assert middle == pytest.approx(0.0, abs=1e-9)


def test_negativity_reports_critical_temperature(capsys):
    assert run(["negativity", "--n", "2", "--b", "0", "--t", "2"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "n,b,t,split,negativity,separable"
    assert lines[1].split(",")[3] == '"1|2"' or "1|2" in lines[1]
    assert lines[1].endswith("true")
    assert "kT_c = 1.134593" in captured.err


def test_negativity_json_meta_and_entangled_row(tmp_path):
    target = tmp_path / "neg.json"
    assert run(["negativity", "--n", "2", "--b", "0.3", "--t", "0.5", "--format", "json", "-o", str(target)]) == 0
    document = json.loads(target.read_text())
    assert document["meta"]["kt_c"] == pytest.approx(1 / math.log(1 + math.sqrt(2)), abs=1e-6)
    row = document["rows"][0]
    assert row["separable"] is False
    assert row["negativity"] > 0.01


def test_negativity_custom_split(capsys):
    assert run(["negativity", "--n", "3", "--split-a", "2", "--b", "0", "--t", "1"]) == 0
    assert "2|1,3" in capsys.readouterr().out
    assert run(["negativity", "--n", "3", "--split-a", "1,2,3", "--b", "0", "--t", "1"]) == 1


def test_thermo_limit_rows(capsys):
    assert run(["thermo-limit", "--sizes", "10", "50", "--b-range", "-1:1:5"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "n,b,energy_density,limit,deviation"
    assert len(lines) == 1 + 2 * 5
    for line in lines[1:]:
        cells = line.split(",")
        assert abs(float(cells[2]) - float(cells[3])) == pytest.approx(float(cells[4]), abs=1e-9)


def test_json_round_trips_rows(tmp_path):
    target = tmp_path / "purity.json"
    assert run(["purity", "--n", "2", "--b-range", "0:1:3", "--t", "0.7", "--format", "json", "-o", str(target)]) == 0
    document = json.loads(target.read_text())
    assert document["meta"]["b_range"] == {"min": 0.0, "max": 1.0, "steps": 3}
    from xxchain import ChainParams, purity_analytic

    for row, b in zip(document["rows"], (0.0, 0.5, 1.0)):
        assert row["b"] == b
        assert row["purity_analytic"] == purity_analytic(ChainParams(n=2, b=b), 1 / 0.7)


def test_identical_configs_are_byte_identical(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["purity", "--n", "4", "--b-range", "-1:1:7", "--t-range", "0.2:2:5"]
    assert run(argv + ["-o", str(first)]) == 0
    assert run(argv + ["-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes().endswith(b"\n")
    assert b"\r" not in first.read_bytes()


def test_unwritable_output_is_io_error(tmp_path, capsys):
    missing = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert run(["crossings", "--n", "2", "-o", str(missing)]) == 2


def test_validate_passes(capsys):
    assert run(["validate", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    assert "5 checks passed, 0 failed" in out


def test_emit_header_only_for_empty_rows(capsys):
    assert render_csv([], ["a", "b"]) == "a,b\n"


def test_csv_float_formatting_nine_significant_digits():
    text = render_csv([{"x": 0.8090169943749475, "y": 1 / 3}], ["x", "y"])
    assert text == "x,y\n0.809016994,0.333333333\n"


def test_readme_subcommand_table_matches_cli():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("| subcommand | emits |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = []
    for line in table.splitlines():
        name = re.match(r"\| `([^`]+)` \|", line).group(1)
        header = re.search(r"\(`([^`]*)`\)", line)
        documented.append((name, header.group(1) if header else ""))
    assert documented == [(name, ",".join(spec.columns)) for name, spec in _SUBCOMMANDS.items()]
