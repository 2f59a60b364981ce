import contextlib
import csv
import dataclasses
import gc
import io
import itertools
import json
import math
import os
import re
import stat
import tempfile
import threading
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import xxchain.cli
from xxchain.cli import _OPTION_GROUPS, _SUBCOMMANDS, AxisRange, RunConfig, emit, run
from xxchain.params import ChainParams, NumericalError
from xxchain.spectrum import crossing_fields, enumerate_levels
from xxchain.states import label_occupations
from xxchain.thermal import boltzmann_weights

CROSSINGS_N4 = (Path(__file__).parent / "golden" / "crossings_n4.csv").read_text()  # crossings --n 4


def test_unknown_flag_is_usage_error(capsys):
    assert run(["crossings", "--n", "4", "--bogus"]) == 1
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    assert run([]) == 1


def test_scalar_and_range_are_exclusive(capsys):
    assert run(["spectrum", "--n", "2", "--b", "0", "--b-range", "0:1:3"]) == 1
    assert run(["spectrum", "--n", "2"]) == 1


def test_help_shows_the_one_of_flags(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exited:
        run(["spectrum", "--help"])
    assert exited.value.code == 0
    usage = " ".join(capsys.readouterr().out.split("\n\n")[0].split())
    assert "(--b B | --b-range MIN:MAX:STEPS)" in usage


def test_bad_ranges_rejected(capsys):
    assert run(["spectrum", "--n", "2", "--b-range", "0:1"]) == 1
    assert run(["spectrum", "--n", "2", "--b-range"]) == 1  # the flag ends argv, so it has no value
    assert run(["spectrum", "--n", "2", "--b-range", "1:0:5"]) == 1
    assert run(["spectrum", "--n", "2", "--b-range", "0:1:0"]) == 1
    assert run(["purity", "--n", "2", "--b", "0", "--t-range", "-1:2:4"]) == 1
    assert run(["purity", "--n", "2", "--b", "0", "--t-range", "0:1:0"]) == 1
    assert run(["purity", "--n", "2", "--b", "0", "--t-range", "0:1:-1"]) == 1


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
    # finite range ends whose span max - min overflows, which np.linspace would turn into nan fields
    ["spectrum", "--n", "3", "--b-range", "-1e308:1e308:3"],
    ["thermo-limit", "--sizes", "4", "--b-range", "-1.5e308:1.5e308:2"],
    ["spectrum", "--n", "2", "--b-range", "0:1e308:2"],  # the last field overflows, not the first
    # text the parser cannot convert, and non-finite values: each error names the rule, not a helper
    ["spectrum", "--n", "x", "--b", "0"],
    ["spectrum", "--n", "2", "--b", "nan"],
    ["spectrum", "--n", "2", "--b", "x"],
    ["purity", "--n", "2", "--b", "0", "--t", "inf"],
    ["purity", "--n", "2", "--b", "0", "--t", "x"],
    ["spectrum", "--n", "2", "--b-range", "inf:1:3"],
    ["purity", "--n", "2", "--b", "0", "--t-range", "0:nan:2"],
    ["negativity", "--n", "2", "--b", "0", "--t", "1", "--split-a", "x"],
    ["spectrum", "--n", "2", "--b-range", "a:b:c"],
])
def test_out_of_domain_input_is_usage_error(argv, capsys):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1
    assert not re.search(r"\b_\w", captured.err), captured.err  # no private name


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
    assert run(["thermal", "--n", "21", "--b", "0", "--t", "1"]) == 2
    assert capsys.readouterr() == ("", "error: label order needs n <= 20, got n = 21\n")


def test_memory_error_exit_code(monkeypatch):
    def exhausted(params):
        raise MemoryError("Unable to allocate 745. GiB")

    monkeypatch.setattr("xxchain.spectrum.mode_signs", exhausted)
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


def test_dense_cap_flag(capsys):
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


@pytest.mark.parametrize("subcommand", ["thermal", "purity", "purity-derivative", "negativity"])
def test_negative_zero_temperature_is_the_zero_temperature_limit(subcommand, capsys):
    # -0.0 == 0, so beta is inf; a beta taken as 1.0 / t would be -inf.  b = 0 is a crossing of the n = 3 chain.
    argv = [subcommand, "--n", "3", "--b-range", "-0.5:0.5:3"]
    tables = []
    for t in ("0", "-0"):
        assert run([*argv, "--t", t]) == 0
        tables.append(list(csv.reader(io.StringIO(capsys.readouterr().out))))
    (header, *cold), (_, *signed) = tables
    column = dict(zip(header, itertools.count()))
    assert len(signed) == len(cold) > 0
    assert {row[column["t"]] for row in signed} == {"-0"}
    if "beta" in column:
        assert {row[column["beta"]] for row in signed} == {"inf"}
    for row in signed:
        row[column["t"]] = "0"
    assert signed == cold


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


@pytest.mark.parametrize("j, line", [("1e-7", "kT_c = 1.134593e-07"), ("1e300", "kT_c = 1.134593e+300")])
def test_critical_temperature_line_keeps_its_digits_at_any_coupling(capsys, j, line):
    assert run(["negativity", "--n", "2", "--j", j, "--b", "0", "--t", "1e-8"]) == 0
    assert capsys.readouterr().err == line + "\n"


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
    assert run(["negativity", "--n", "3", "--split-a", "3,1", "--b", "0", "--t", "1"]) == 0
    assert list(csv.reader(io.StringIO(capsys.readouterr().out)))[1][3] == "1,3|2"
    # a repeated site, a full side A and a site outside 1..n
    for sites in ["1,1", "1,2,3", "0", "4"]:
        code, out, err = run_captured(["negativity", "--n", "3", "--split-a", sites, "--b", "0", "--t", "1"])
        assert (code, out) == (1, ""), sites
        assert err.startswith("error: ") and len(err.splitlines()) == 1, sites


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
    err = capsys.readouterr().err
    assert f"No such file or directory: '{missing}'" in err and ".tmp" not in err  # the name that was given


def test_empty_output_path_is_a_usage_error_before_any_work(tmp_path, monkeypatch, capsys):
    # "" resolves to the working directory itself: the temporary file would go beside it, outside it
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    monkeypatch.setattr("xxchain.cli.level_runs", lambda params: pytest.fail("the output was computed"))
    assert run(["spectrum", "--n", "4", "--b", "0.3", "--output", ""]) == 1
    assert "--output" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [work] and list(work.iterdir()) == []


def test_output_through_symlink_writes_its_target(tmp_path):
    target, link = tmp_path / "real.csv", tmp_path / "link.csv"
    target.write_text("old\n")
    link.symlink_to(target.name)
    assert run(["crossings", "--n", "4", "-o", str(link)]) == 0
    assert link.is_symlink()
    assert target.read_text() == CROSSINGS_N4


def test_output_leaves_an_existing_temporary_name_alone(tmp_path):
    target = tmp_path / "out.csv"
    taken = tmp_path / f"out.csv.{os.getpid()}.0.tmp"
    taken.write_text("not ours\n")
    assert run(["crossings", "--n", "4", "-o", str(target)]) == 0
    assert target.read_text() == CROSSINGS_N4
    assert taken.read_text() == "not ours\n"
    assert sorted(tmp_path.iterdir()) == [target, taken]


def test_output_refuses_a_file_it_may_not_write(monkeypatch, tmp_path, capsys):
    target = tmp_path / "out.csv"
    target.write_text("old\n")
    monkeypatch.setattr(os, "access", lambda path, mode: False)  # a read-only file, also when run as root
    assert run(["crossings", "--n", "4", "-o", str(target)]) == 2
    assert "Permission denied" in capsys.readouterr().err
    assert target.read_text() == "old\n"
    assert list(tmp_path.iterdir()) == [target]


def test_output_to_a_pipe_is_written_in_place(tmp_path):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run(["crossings", "--n", "4", "-o", str(fifo)]) == 0
    reader.join(timeout=10)
    assert received == [CROSSINGS_N4]
    assert stat.S_ISFIFO(fifo.stat().st_mode)


def test_validate_passes(capsys):
    assert run(["validate", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 5
    assert "FAIL" not in out
    assert "5 checks passed, 0 failed" in out


@pytest.mark.parametrize("j", ["160", "1000"])
def test_validate_passes_where_the_partition_sum_overflows(j):
    # exp(-beta E) of the ground level overflows a float from j = 160 at n = 4
    code, out, err = run_captured(["validate", "--n", "4", "--j", j])
    assert (code, err) == (0, "")
    assert out.endswith("5 checks passed, 0 failed\n")


def validate_report(n, j):
    """Exit code of `validate --n n --j j` and its (verdict, check, tolerance) lines, from stdout or stderr."""
    code, out, err = run_captured(["validate", "--n", n, "--j", j])
    lines = (err if code else out).splitlines()[1:6]
    return code, [(line.split()[0], line.split()[1], float(line.split("(tol ")[1][:-1])) for line in lines]


def test_validate_rejects_a_coupling_whose_crossing_chains_overflow():
    # the crossing-degeneracy check builds chains at |b| = j cos(pi/(n+1)), whose level bound overflows here
    code, out, err = run_captured(["validate", "--n", "2", "--j", "4e307"])
    assert (code, out) == (1, "")
    assert err.startswith("error: level energies overflow") and len(err.splitlines()) == 1
    code, checks = validate_report("2", "2e307")
    assert (code, [verdict for verdict, _, _ in checks]) == (0, ["PASS"] * 5)


@pytest.mark.parametrize("n, j", [("6", "1e7"), ("4", "1e17")])
def test_validate_gates_the_eigenpair_residual_relative_to_the_largest_entry(n, j):
    # each argv failed while the gate compared the absolute residual with 1e-8: no report, only its error
    code, checks = validate_report(n, j)
    assert [verdict for verdict, name, _ in checks if name.startswith("eigen")] == ["PASS", "PASS"]


@pytest.mark.parametrize("n, j", [("6", "1e12"), ("4", "1e17")])
def test_validate_caps_the_dimensionless_tolerances(n, j):
    # with its tolerance scaled by j, up to 1 and 1e5 here, a Z off by 100% passed
    code, checks = validate_report(n, j)
    assert code == 2
    assert [(verdict, name) for verdict, name, _ in checks if verdict == "FAIL"] == [("FAIL", "partition-function")]


VALIDATE_COUPLINGS = ["1e-300", "1e-100", "1e-10", "1", "1e4", "1e8", "1e12", "1e16", "1e20", "1e100", "1e200", "1e300"]


@pytest.mark.parametrize("n", ["2", "4", "6"])
def test_validate_fails_at_most_the_partition_function_at_any_coupling(n):
    # from beta*|E| ~ 1e16, log Z keeps no digit of Z, so partition-function alone may fail
    for j in VALIDATE_COUPLINGS:
        code, checks = validate_report(n, j)
        failed = [name for verdict, name, _ in checks if verdict == "FAIL"]
        assert (len(checks), code) == (5, 2 if failed else 0), j
        assert failed in ([], ["partition-function"]), j
        assert max(tol for _, name, tol in checks if name in ("purity-identity", "partition-function")) <= 1e-6, j


@pytest.mark.parametrize("n", ["3", "5"])
def test_validate_at_odd_n_fails_at_most_purity_identity_and_partition_function(n):
    # odd n has a mode 2b - 2J cos(pi/2) of size O(b), which the dense Gibbs state takes as the difference of two
    # O(nJ) level energies: from J ~ 1e11 its error passes purity-identity's 1e-6, and never without Z's
    for j in VALIDATE_COUPLINGS:
        code, checks = validate_report(n, j)
        failed = [name for verdict, name, _ in checks if verdict == "FAIL"]
        assert (len(checks), code) == (5, 2 if failed else 0), j
        assert failed in ([], ["partition-function"], ["purity-identity", "partition-function"]), j


@pytest.mark.parametrize("j", ["1e100", "1e200"])
def test_validate_fails_a_partition_function_that_overflows_cleanly(j):
    # beta*|E| ~ j: log Z keeps no digit of Z, and exp of it overflowed into an uncaught OverflowError;
    # the scaled residuals must not overflow either (RuntimeWarning is an error here)
    code, out, err = run_captured(["validate", "--n", "4", "--j", j])
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert [line.split()[0] for line in lines[1:6]] == ["PASS", "PASS", "PASS", "FAIL", "PASS"]
    assert lines[4].startswith("FAIL partition-function     worst = inf ")
    assert lines[-1] == "error: 1 of 5 validation checks failed"


@pytest.mark.parametrize("n, j", [("6", "3000"), ("4", "1e4"), ("1", "1e6")])
def test_validate_tolerances_scale_with_the_coupling(n, j):
    # each argv failed one or more checks while the tolerances were absolute
    code, out, err = run_captured(["validate", "--n", n, "--j", j])
    assert (code, err) == (0, "")
    assert [line.split()[0] for line in out.splitlines()[1:6]] == ["PASS"] * 5


def test_failing_validate_report_goes_to_stderr(monkeypatch):
    # at n = 2 and j = 1e150 the eigenpair gate passes and crossing-degeneracy's worst is about 1.8e134
    monkeypatch.setitem(xxchain.cli._VALIDATE_TOLERANCES, "crossing-degeneracy", 0.0)
    code, out, err = run_captured(["validate", "--n", "2", "--j", "1e150"])
    assert (code, out) == (2, "")
    lines = err.splitlines()
    assert lines[0] == "validate n=2 j=1e+150"
    assert [line.split()[0] for line in lines[1:6]] == ["PASS", "PASS", "PASS", "PASS", "FAIL"]
    assert lines[6:] == ["4 checks passed, 1 failed", "error: 1 of 5 validation checks failed"]


def test_emit_header_only_for_empty_rows(capsys):
    emit(iter([]), ["a", "b"], RunConfig("test"))
    assert capsys.readouterr().out == "a,b\n"


def test_csv_float_formatting_nine_significant_digits(capsys):
    emit(iter([{"x": 0.8090169943749475, "y": 1 / 3}]), ["x", "y"], RunConfig("test"))
    assert capsys.readouterr().out == "x,y\n0.809016994,0.333333333\n"


# one strategy per scalar type; ints >= 0, as in the CLI's columns: int scalars that differ from block to block are
# joined into an int column
SCALARS = [st.none(), st.booleans(), st.integers(0, 10**6), st.floats(), st.text(alphabet=',"|x1\n', max_size=4)]


@st.composite
def column_blocks(draw):
    """Up to four blocks over columns a, b, c, each column of one kind in all of them, as in every CLI builder:
    scalars of one type, float or non-negative int arrays, or 2-D int arrays of one width."""
    kinds = {}
    for name in "abc":
        kind = draw(st.sampled_from(["scalar", "float", "int", "list"]))
        # a scalar column's strategy, or a list column's width
        kinds[name] = kind, draw(st.sampled_from(SCALARS) if kind == "scalar" else st.integers(0, 3))
    blocks = []
    for size in draw(st.lists(st.integers(0, 5), max_size=4)):
        block = {}
        for name, (kind, detail) in kinds.items():
            if kind == "scalar":
                block[name] = draw(detail)
            elif kind == "float":
                block[name] = np.array(draw(st.lists(st.floats(), min_size=size, max_size=size)), dtype=float)
            else:
                width = detail if kind == "list" else 1
                low = -99 if kind == "list" else 0  # the CLI's 1-D int columns are counts and labels
                cells = draw(st.lists(st.integers(low, 99), min_size=size * width, max_size=size * width))
                block[name] = np.array(cells, dtype=np.int64).reshape((size, width) if kind == "list" else (size,))
        blocks.append(block)
    return blocks


def _rows_of(block):
    arrays = [value for value in block.values() if isinstance(value, np.ndarray)]
    count = len(arrays[0]) if arrays else 1
    return [{name: value.tolist()[i] if isinstance(value, np.ndarray) else value for name, value in block.items()}
            for i in range(count)]


def _reference_csv_cell(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.9g" % value
    if isinstance(value, list):
        return ",".join(str(item) for item in value)
    return str(value)


@settings(deadline=None, max_examples=40)
@given(blocks=column_blocks(), cells=st.integers(1, 12))
@example(blocks=[{"a": 7, "b": None, "c": None}, {"a": 123456, "b": None, "c": None}], cells=12)  # one int column
def test_streamed_output_matches_whole_document_rendering(blocks, cells):
    # a budget of 1-12 cells over three columns breaks chunks every 1-4 rows
    rows = [row for block in blocks for row in _rows_of(block)]
    expected_csv = io.StringIO()
    writer = csv.writer(expected_csv, lineterminator="\n")
    writer.writerow("abc")
    writer.writerows([_reference_csv_cell(row[name]) for name in "abc"] for row in rows)
    as_json = RunConfig("test", format="json")
    extra = {"subcommand": "test", "note": [1, 2]}
    expected_json = json.dumps({"meta": {**dataclasses.asdict(as_json), **extra}, "rows": rows}, indent=2) + "\n"
    with mock.patch("xxchain.cli.CHUNK_ENTRIES", cells):
        for config, extra_meta, expected in [(RunConfig("test"), None, expected_csv.getvalue()),
                                             (as_json, extra, expected_json)]:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                emit(iter(blocks), ["a", "b", "c"], config, extra_meta)
            assert out.getvalue() == expected


# edge values per flag; n stays small but for the cap cases 13 and 21
FLAG_VALUES = {
    "--n": ["1", "2", "3", "4", "6", "0", "-1", "13", "21", "x"],
    "--j": ["1", "0.5", "-0", "0", "-1", "5e-324", "160", "1e150", "1e200", "1e300", "4e307", "1e308", "nan", "inf"],
    "--b": ["0", "-0", "0.3", "-1.5", "5e-324", "1e17", "1e300", "1e308", "-1e308", "nan", "x"],
    "--t": ["0", "0.05", "1", "-0.5", "1e-300", "1e-308", "5e-324", "1e308", "inf"],
    "--b-range": ["-1:1:3", "0:0:1", "1:-1:2", "0:1:0", "-1e308:1e308:3", "0:1", "a:b:c"],
    "--t-range": ["0:1:2", "0.1:2:3", "1:0.5:2", "0:1:-1", "0:1e308:2", "x"],
    "--k": ["0", "1", "2", "-1", "7"],
    "--sizes": [["4"], ["4", "50"], ["1000"], ["0"], ["x"]],
    "--split-a": ["1", "1,2", "2,1,2", "0", "9", "x"],
    "--dense-cap": ["0", "4", "12", "13", "-1", "2.5"],
    "--format": ["csv", "json", "xml"],
}


@st.composite
def cli_argv(draw):
    """A subcommand and a subset of its flags, each with an edge value; sometimes a flag of another."""
    name = draw(st.sampled_from(sorted(_SUBCOMMANDS)))
    flags = [flags[0] for group in _SUBCOMMANDS[name].options for flags, _ in _OPTION_GROUPS[group]
             if flags[0] != "--output"]
    argv = [name]
    for flag in draw(st.lists(st.sampled_from(flags + ["--k"]), unique=True)):
        value = draw(st.sampled_from(FLAG_VALUES[flag]))
        argv += [flag, *value] if isinstance(value, list) else [flag, value]
    return argv


@settings(deadline=None, max_examples=80)
@given(argv=cli_argv())
@example(argv=["purity", "--n", "2", "--b", "0.3", "--t", "1e-308"])
@example(argv=["thermal", "--n", "2", "--b", "1e17", "--t", "1e-300"])
@example(argv=["negativity", "--n", "2", "--j", "5e-324", "--b", "0", "--t", "1"])
def test_run_exits_cleanly_and_writes_all_or_nothing(argv):
    code, out, err = run_captured(argv)
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [err.splitlines()[-1]]
    elif "output" in _SUBCOMMANDS[argv[0]].options:
        with tempfile.TemporaryDirectory() as directory:
            target = os.path.join(directory, "out")
            assert run_captured(argv + ["-o", target])[:2] == (0, "")
            if "json" in argv:  # the JSON meta records the output path
                out = out.replace('"output": null', f'"output": {json.dumps(target)}', 1)
            assert Path(target).read_bytes() == out.encode()


SCALED_CELLS = {"b": 1, "t": 1, "energy": 1, "beta": -1}  # the power of lambda each scales by; the rest are unit-free


def _json_rows(argv):
    code, out, err = run_captured(argv + ["--format", "json"])
    assert code == 0, err
    document = json.loads(out)
    return document["rows"], document["meta"].get("kt_c")


@st.composite
def unit_free_case(draw):
    """A Gibbs-state subcommand at n = 2-6 over temperatures 0, t/2 and t; the field is generic or a crossing."""
    name = draw(st.sampled_from(["purity", "thermal", "negativity"]))
    n = draw(st.integers(2, 6))
    j = draw(st.floats(0.25, 4))
    crossing = draw(st.none() | st.integers(0, n - 1))
    b = draw(st.floats(-2, 2)) if crossing is None else float(crossing_fields(n, j).fields_b[crossing])
    lam = 2.0 ** draw(st.integers(-60, 60))
    # a subnormal field, or one that lam scales to a subnormal, rounds in one run and not the other
    assume(b == 0 or min(abs(b), abs(lam * b)) >= 2.0 ** -1022)
    return name, n, j, b, draw(st.floats(0.05, 2)), lam


def _unit_free_argv(name, n, j, b, t):
    return [name, "--n", str(n), "--j", repr(j), "--b", repr(b), "--t-range", f"0:{t!r}:3"]


@settings(deadline=None, max_examples=60)
@given(case=unit_free_case())
@example(case=("purity", 4, 1.0, 0.3, 0.5, 2.0 ** -60))  # every scaled |lam_k| is below an absolute 1e-12
@example(case=("thermal", 3, 3.0, 0.2, 1.0, 2.0 ** 40))  # at j = 3 a mode energy without its factor j cannot scale
def test_gibbs_rows_scale_with_the_unit_of_energy_and_are_even_in_the_field(case):
    """(j, b, t) -> lambda (j, b, t) with lambda a power of two scales energies by lambda and beta by 1/lambda,
    bit for bit, and leaves every other cell as it is; b -> -b, a global spin flip, keeps the level multiset,
    purity and negativity within a few ulps of the exponents' rounding."""
    name, n, j, b, t, lam = case
    rows, kt_c = _json_rows(_unit_free_argv(name, n, j, b, t))
    scaled_rows, scaled_kt_c = _json_rows(_unit_free_argv(name, n, lam * j, lam * b, lam * t))
    assert scaled_kt_c == (None if kt_c is None else lam * kt_c)
    for row, scaled in zip(rows, scaled_rows, strict=True):
        assert scaled == {key: value * lam ** SCALED_CELLS[key] if key in SCALED_CELLS else value
                          for key, value in row.items()}

    flipped_rows, flipped_kt_c = _json_rows(_unit_free_argv(name, n, j, -b, t))
    assert flipped_kt_c == kt_c
    eps = np.finfo(float).eps
    for temperature in (0.0, t / 2, t):
        ulps = 16 * eps * (1 + (temperature and 1 / temperature) * (abs(b) + 2 * j))  # beta times lam's rounding
        at_t = [row for row in rows if row["t"] == temperature]
        flipped = [row for row in flipped_rows if row["t"] == temperature]
        for key in ("purity_analytic", "purity_dense", "negativity"):
            if key in at_t[0]:
                assert [row[key] for row in flipped] == pytest.approx([row[key] for row in at_t], rel=0, abs=ulps)
        if "energy" in at_t[0]:
            levels, flipped_levels = (np.sort([row["energy"] for row in rows]) for rows in (at_t, flipped))
            np.testing.assert_allclose(flipped_levels, levels, rtol=0, atol=4 * eps * n * (abs(b) + 2 * j))


@settings(deadline=None, max_examples=25)
@given(n=st.integers(1, 199), j=st.floats(0.25, 4))
def test_crossings_are_odd_under_the_spin_flip(n, j):
    """b -> -b maps the k-th crossing onto the (n+1-k)-th: b_k = -b_{n+1-k} within a few ulps of j."""
    fields = np.array([row["b_k"] for row in _json_rows(["crossings", "--n", str(n), "--j", repr(j)])[0]])
    np.testing.assert_allclose(fields, -fields[::-1], rtol=0, atol=4 * np.finfo(float).eps * j)


@settings(deadline=None, max_examples=25)
@given(n=st.integers(1, 8), j=st.floats(0.25, 4), b=st.floats(-2, 2), t=st.floats(0.05, 2))
def test_purity_derivative_is_odd_in_the_field(n, j, b, t):
    """Purity is even in b, so its centered difference is odd, up to the rounding of the difference over 2h."""
    rows, flipped = (_json_rows(["purity-derivative", "--n", str(n), "--j", repr(j), "--b", repr(field),
                                 "--t-range", f"0:{t!r}:3"])[0] for field in (b, -b))
    assert [-row["dpurity_db"] for row in flipped] == pytest.approx([row["dpurity_db"] for row in rows],
                                                                    rel=0, abs=1e-9)


@st.composite
def split_case(draw):
    """A chain of n = 2-6 sites and a side A that leaves side B non-empty."""
    n = draw(st.integers(2, 6))
    sites_a = draw(st.sets(st.integers(1, n), min_size=1, max_size=n - 1))
    return n, sorted(sites_a), draw(st.floats(0.25, 4)), draw(st.floats(-2, 2)), draw(st.floats(0.05, 2))


@settings(deadline=None, max_examples=15)
@given(case=split_case())
def test_negativity_is_the_same_for_the_mirrored_and_the_swapped_split(case):
    """The mirror l -> n+1-l of the chain, and A|B -> B|A, leave the negativity as it is, within a few ulps."""
    n, sites_a, j, b, t = case
    mirrored = sorted(n + 1 - site for site in sites_a)
    sites_b = [site for site in range(1, n + 1) if site not in sites_a]
    base, *others = ([row["negativity"] for row in _json_rows(
        ["negativity", "--n", str(n), "--j", repr(j), "--b", repr(b), "--t-range", f"0:{t!r}:3",
         "--split-a", ",".join(map(str, sites))])[0]] for sites in (sites_a, mirrored, sites_b))
    for other in others:
        assert other == pytest.approx(base, rel=0, abs=1e-14)


def _csv_column(values: np.ndarray) -> list[str]:
    """The cells emit writes for one array column."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        emit(iter([{"x": values}]), ["x"], RunConfig("test"))
    return out.getvalue().split("\n")[1:-1]


# each side of the fixed/exponent switch after rounding, and the ends of the float range
FLOAT_EDGES = [9.9999999995e-05, 9.9999999994e-05, 999999999.5, 999999999.4, 0.0001, 1e9, -0.0, 0.0, 5e-324,
               2.2250738585072014e-308, 1e-300, 1e308, -1.7976931348623157e308, math.inf, -math.inf, math.nan]
# a nine-digit decimal, then a 5: a tie at nine significant digits, exact in binary from 1e8 to 1e10
DECIMAL_TIES = st.builds(lambda digits, exponent: float(f"{digits}5e{exponent}"),
                         st.integers(10**8, 10**9 - 1), st.integers(-330, 298))
# one ulp below a power of ten, where log10 rounds up to the next decade: across the fixed/exponent switch and far out
ULP_BELOW_POWERS = [sign * float(np.nextafter(10.0**k, 0)) for k in [*range(-5, 10), -300, 308] for sign in (1, -1)]
INT_EDGES = [10**k + step for k in range(19) for step in (-1, 0, 1)] + [2**63 - 1]


@settings(deadline=None, max_examples=300)
@given(st.lists(st.one_of(st.floats(), st.sampled_from(FLOAT_EDGES + ULP_BELOW_POWERS), DECIMAL_TIES,
                          DECIMAL_TIES.map(lambda tie: tie * 10**-9)), min_size=1, max_size=30))
@example(ULP_BELOW_POWERS)
@example([0.5, 1.25, 3.0])  # no decade fix, carry, exponent or fallback cell
@example([1e-05, -2.5e20, 3.75e-100])  # every cell in exponent form
@example([999999999.6, -0.09999999996, 9999999999.7])  # every cell carries to the next decade
def test_csv_float_cells_match_printf(values):
    assert _csv_column(np.array(values)) == ["%.9g" % value for value in values]


@settings(deadline=None, max_examples=100)
@given(st.lists(st.one_of(st.integers(0, 2**63 - 1), st.sampled_from(INT_EDGES)), min_size=1, max_size=30))
@example([7, 123456789, 10000])  # groups of four digits all NUL, with leading NULs, and in full
def test_csv_int_cells_match_str(values):
    assert _csv_column(np.array(values, dtype=np.int64)) == list(map(str, values))
    assert _csv_column(np.array(values, dtype=np.uint64)) == list(map(str, values))
    assert _csv_column(np.array(values, dtype=np.int64).astype(np.uint8)) == [str(value % 256) for value in values]


def _reference_document(config, columns, rows):
    """The whole document at once: csv.writer rows, or one json.dumps."""
    if config.format == "json":
        return json.dumps({"meta": dataclasses.asdict(config), "rows": rows}, indent=2) + "\n"
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_reference_csv_cell(row[name]) for name in columns] for row in rows)
    return text.getvalue()


def _reference_level_rows(config):
    """spectrum or thermal rows from whole arrays: enumerate_levels per field, the whole label order."""
    n, axis = config.n, config.b_range
    fields = np.linspace(axis.min, axis.max, axis.steps).tolist()
    if config.subcommand == "spectrum":
        return [{"n": n, "b": b, "occupation": v, "m": bin(v).count("1"), "energy": energy}
                for b in fields for v, energy in enumerate(enumerate_levels(ChainParams(n=n, b=b)).tolist())]
    occupations = label_occupations(n)
    sectors = [bin(v).count("1") for v in occupations.tolist()]
    first = {}  # sector -> its first label
    ranks = [l - first.setdefault(m, l) + 1 for l, m in enumerate(sectors, 1)]
    beta = math.inf if config.t == 0 else 1.0 / config.t
    rows = []
    for b in fields:
        params = ChainParams(n=n, b=b)
        columns = zip(ranks, sectors, enumerate_levels(params)[occupations].tolist(),
                      boltzmann_weights(params, beta).probabilities.tolist())
        rows += [{"n": n, "b": b, "t": config.t, "beta": beta, "l": l, "r": r, "m": m, "energy": energy,
                  "probability": probability} for l, (r, m, energy, probability) in enumerate(columns, 1)]
    return rows


def _first_difference(text, expected):
    """None, or (line number, line, expected line) at the first difference: cheap to report, unlike a text diff."""
    pairs = itertools.zip_longest(text.split("\n"), expected.split("\n"))
    return next(((number, *pair) for number, pair in enumerate(pairs, 1) if pair[0] != pair[1]), None)


# (lo, hi, steps) of --b-range; -0.0:-0.0:2 is the grid [0.0, -0.0], two chains that compare equal
FIELD_RANGES = st.one_of(st.sampled_from([(-0.0, -0.0, 1), (-0.0, -0.0, 2)]),
                         st.tuples(st.floats(-2, 0), st.floats(0, 2), st.integers(1, 2)))


@settings(deadline=None, max_examples=20)
@given(subcommand=st.sampled_from(["spectrum", "thermal"]), n=st.integers(1, 14), field_range=FIELD_RANGES,
       t=st.sampled_from([0.0, 0.5, 1.7]), fmt=st.sampled_from(["csv", "json"]), cells=st.integers(1, 40))
@example("spectrum", 15, (-0.0, -0.0, 1), 0.0, "csv", 40)
@example("spectrum", 14, (-0.0, -0.0, 2), 0.0, "json", 7)
@example("thermal", 12, (-0.0, -0.0, 2), 0.0, "csv", 1)
def test_streamed_level_rows_match_whole_array_rendering(subcommand, n, field_range, t, fmt, cells):
    # spectrum streams runs of 2^floor(log2(2^14/n)) levels (32 runs of 1,024 at n = 15) and thermal blocks of
    # CHUNK_ENTRIES labels; a budget of a few cells cuts thermal into blocks of 1-40 rows and both into text
    # chunks of 1-8 rows
    lo, hi, steps = field_range
    config = RunConfig(subcommand, n=n, b_range=AxisRange(lo, hi, steps), t=t if subcommand == "thermal" else None,
                       format=fmt)
    argv = [subcommand, "--n", str(n), "--b-range", f"{lo!r}:{hi!r}:{steps}", "--format", fmt]
    argv += ["--t", repr(t)] if subcommand == "thermal" else []
    with mock.patch("xxchain.cli.CHUNK_ENTRIES", cells):
        code, streamed, _ = run_captured(argv)
    assert code == 0
    code, default_chunks, _ = run_captured(argv)
    assert code == 0
    assert _first_difference(streamed, default_chunks) is None
    reference = _reference_document(config, _SUBCOMMANDS[subcommand].columns, _reference_level_rows(config))
    assert _first_difference(streamed, reference) is None


def _traced_peak(argv):
    tracemalloc.start()
    try:
        assert run(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_spectrum_memory_does_not_grow_with_n(tmp_path):
    # one run of 1,024 levels (512 at n = 18) and one text chunk of 2^14 cells at a time; whole 2^n columns took
    # 10.3 MB at n = 18
    target = str(tmp_path / "spectrum.csv")
    assert run_captured(["spectrum", "--n", "2", "--b", "0"])[0] == 0  # one-time set-up is not part of a run's peak
    small = _traced_peak(["spectrum", "--n", "14", "--b-range", "-1:1:2", "-o", target])
    large = _traced_peak(["spectrum", "--n", "18", "--b-range", "-1:1:2", "-o", target])
    assert large < 2 << 20
    assert large < small + (1 << 18)


def test_thermal_memory_holds_no_whole_label_column(tmp_path):
    # energy and probability are whole 2^n columns, while l, r and m are built per block: from n = 15 to 16
    # the peak grows by two 2^15-entry columns, and by five when l, r and m were whole as well
    target = str(tmp_path / "thermal.csv")
    peaks = []
    for n, b in ((15, 0.29), (16, 0.31)):  # two chains, so each run computes its label energies
        label_occupations(n)  # cached for the process, not per run
        peaks.append(_traced_peak(["thermal", "--n", str(n), "--b", str(b), "--t", "0.5", "-o", target]))
    assert peaks[1] - peaks[0] < 3 * (8 << 15)


def test_dense_purity_holds_less_than_one_whole_gibbs_state(tmp_path):
    # one sector block (462 x 462 at n = 11) and its gemm temporary; the whole state is 8 C(22, 11) B = 5.6 MB,
    # and building it first peaked at that plus a 1.7 MB temporary
    argv = ["purity", "--n", "11", "--dense-cap", "11", "--b", "0.3", "--t", "0.5", "-o", str(tmp_path / "p.csv")]
    assert run(argv) == 0  # the sector tables are cached for the process, not per run
    assert _traced_peak(argv) < 8 * math.comb(22, 11)


def test_json_output_memory_is_chunked_by_cells(tmp_path):
    # thermal writes 9 columns; 2^14 whole rows per chunk held about 33 MB of JSON values and text at n = 14
    target = tmp_path / "thermal.json"
    tracemalloc.start()
    try:
        code = run(["thermal", "--n", "14", "--b", "0.3", "--t", "0.5", "--format", "json", "-o", str(target)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(json.loads(target.read_text())["rows"]) == 1 << 14
    assert peak < 8 << 20


def test_cap_error_writes_no_byte(capsys):
    assert run(["spectrum", "--n", "21", "--b", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: level enumeration needs n <= 20, got n = 21\n"


def _fail_after_first_block(monkeypatch):
    """Make spectrum's builder raise after its first block."""
    spec = _SUBCOMMANDS["spectrum"]

    def build(config):
        yield next(spec.build(config))
        raise NumericalError("injected failure")

    monkeypatch.setitem(_SUBCOMMANDS, "spectrum", dataclasses.replace(spec, build=build))


def test_failure_mid_stream_leaves_no_output_file(monkeypatch, tmp_path, capsys):
    _fail_after_first_block(monkeypatch)
    target = tmp_path / "spectrum.csv"
    assert run(["spectrum", "--n", "3", "--b-range", "0:1:2", "-o", str(target)]) == 2
    assert capsys.readouterr().err == "error: injected failure\n"
    assert list(tmp_path.iterdir()) == []


def test_failure_mid_stream_keeps_existing_output(monkeypatch, tmp_path, capsys):
    _fail_after_first_block(monkeypatch)
    target = tmp_path / "spectrum.csv"
    target.write_bytes(b"old bytes\n")
    assert run(["spectrum", "--n", "3", "--b-range", "0:1:2", "-o", str(target)]) == 2
    assert target.read_bytes() == b"old bytes\n"
    assert list(tmp_path.iterdir()) == [target]


def test_written_block_is_not_held_for_the_rest_of_the_run(monkeypatch, capsys):
    energies = []  # a weak reference to each block's energy column
    first_alive_at_third = []

    def build(config):
        for b in (0.0, 0.5, 1.0):
            gc.collect()
            if len(energies) == 2:
                first_alive_at_third.append(energies[0]() is not None)
            block = {"n": 2, "b": b, "occupation": np.arange(4), "m": np.arange(4), "energy": np.full(4, b)}
            energies.append(weakref.ref(block["energy"]))
            yield block

    monkeypatch.setitem(_SUBCOMMANDS, "spectrum", dataclasses.replace(_SUBCOMMANDS["spectrum"], build=build))
    monkeypatch.setattr("xxchain.cli.CHUNK_ENTRIES", 10)  # two rows of five cells: blocks of four share no chunk
    assert run(["spectrum", "--n", "2", "--b", "0"]) == 0
    assert capsys.readouterr().out.count("\n") == 13
    assert first_alive_at_third == [False]


def test_readme_subcommand_table_matches_cli():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    table = readme.split("| subcommand | emits |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    documented = []
    for line in table.splitlines():
        name = re.match(r"\| `([^`]+)` \|", line).group(1)
        header = re.search(r"\(`([^`]*)`\)", line)
        documented.append((name, header.group(1) if header else ""))
    assert documented == [(name, ",".join(spec.columns)) for name, spec in _SUBCOMMANDS.items()]
