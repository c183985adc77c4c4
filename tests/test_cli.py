import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toepspec
from toepspec import cli
from toepspec.symbol import PiecewiseSymbol, TrigPoly, preset_singular


def run_capture(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_multiplicity_regular(capsys):
    code, out, _ = run_capture(capsys, ["multiplicity", "--symbol", "regular", "--interval=-0.5,0.5"])
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 1 and data["n_plus"] == 1 and data["s_plus"] == 0


def test_multiplicity_inadmissible(capsys):
    code, _, err = run_capture(capsys, ["multiplicity", "--symbol", "regular", "--interval=-2,2"])
    assert code == 2
    assert "analysis error" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_capture(capsys, ["multiplicity", "--symbol", "regular", "--bogus", "1"])
    assert code == 1
    assert "usage" in err


@pytest.mark.parametrize("argv", [
    ["xi", "--symbol", "regular", "--z", "abc", "--lambda", "0.1"],
    ["density", "--symbol", "regular", "--interval=-0.5,0.5", "--points", "0,zz"],
    ["multiplicity", "--symbol", "regular", "--interval=a,0.5"],
    # each beside an argument that the analysis would refuse: the usage error comes first
    ["eigenfun", "--symbol", "regular", "--lambda=5", "--zgrid=bad"],
    ["density", "--symbol", "regular", "--interval=-2,0.5", "--points=zz"],
])
def test_malformed_number_is_usage_error(capsys, argv):
    code, _, err = run_capture(capsys, argv)
    assert code == 1
    assert "usage error" in err


@pytest.mark.parametrize("argv", [
    ["xi", "--symbol", "regular", "--z", "nan", "--lambda", "0.1"],
    ["xi", "--symbol", "regular", "--z", "inf", "--lambda", "0.1"],
    ["xi", "--symbol", "regular", "--z", "0.3+nanj", "--lambda", "0.1"],
    ["xi", "--symbol", "regular", "--z", "0.3", "--lambda", "inf"],
    ["phase", "--symbol", "regular", "--z", "nan", "--lambda", "0"],
    ["density", "--symbol", "regular", "--interval=-0.5,0.5", "--points", "nan"],
    ["density", "--symbol", "regular", "--interval=-0.5,0.5", "--points", "0", "--grid", "0"],
    ["density", "--symbol", "regular", "--interval=nan,0.5", "--points", "0"],
    ["levelset", "--symbol", "regular", "--lambda", "nan"],
    ["eigenfun", "--symbol", "regular", "--lambda", "0", "--zgrid", "0.5,0"],
    ["eigenfun", "--symbol", "regular", "--lambda", "0", "--zgrid", "nan,4"],
    ["eigenfun", "--symbol", "regular", "--lambda", "0", "--branch", "1.5"],
    ["diagonalize", "--symbol", "regular", "--interval=-0.5,0.5", "--vector", "v.json",
     "--grid", "-3"],
    ["validate", "--symbol", "regular", "--interval=-0.5,0.5", "--n", "512,0"],
])
def test_non_finite_or_empty_input_is_usage_error(capsys, argv):
    code, out, err = run_capture(capsys, argv)
    assert code == 1
    assert out == ""
    assert "usage error" in err


def run_outcome(capsys, argv):
    """run_capture, with the exit of ``--help`` as the code."""
    try:
        code = cli.run(argv)
    except SystemExit as exc:
        code = ("exit", exc.code)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_one_parser_per_process_answers_as_a_fresh_one(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "vec.json").write_text(json.dumps({"terms": [{"c": [1.0, 0.0], "z": [0.0, 0.0]}]}))
    calls = [
        ["levelset", "--symbol", "regular"],                              # missing option
        ["spectrum", "--symbol", "regular"],
        ["xi", "--symbol", "regular", "--z", "abc", "--lambda", "0.1"],   # malformed number
        ["levelset", "--symbol", "regular", "--lambda", "0.25"],
        ["bogus", "--symbol", "regular"],                                 # unknown subcommand
        ["multiplicity", "--symbol", "regular", "--interval=-0.5,0.5"],
        ["spectrum", "--symbol", "regular", "--output", "no_dir/out.json"],
        ["xi", "--symbol", "regular", "--z", "0.3+0.2i", "--lambda", "0.1"],
        ["eigenfun", "--symbol", "regular", "--lambda", "0", "--zgrid", "0.5,0"],
        ["phase", "--symbol", "regular", "--z", "0.2", "--lambda", "0"],
        ["density", "--symbol", "regular", "--interval=-0.5,0.5", "--grid", "4",
         "--points", "0,0.3+0.2i"],
        ["eigenfun", "--symbol", "regular", "--lambda", "0", "--zgrid", "0.5,4"],
        ["diagonalize", "--symbol", "regular", "--interval=-0.5,0.5", "--vector", "vec.json",
         "--grid", "8"],
        ["validate", "--symbol", "regular", "--interval=-0.5,0.5", "--n", "64,128"],
        ["multiplicity", "--symbol", "regular"],
        ["eigenfun", "--help"],
        ["spectrum", "--symbol", "regular"],
    ]
    assert {argv[0] for argv in calls} >= set(cli._COMMANDS)
    built = []
    init = cli._Parser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    cli._build_parser.cache_clear()
    reused = [run_outcome(capsys, argv) for argv in calls]
    # one parser and its subcommands' parsers, however many calls
    assert built.count("toepspec") == 1
    assert len(built) == 1 + len(cli._COMMANDS)
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    for argv, outcome in zip(calls, reused):
        assert run_outcome(capsys, argv) == outcome, argv
    assert [code for code, _, _ in reused] == [1, 0, 1, 0, 1, 0, 2, 0, 1, 0, 0, 0, 0, 0, 1,
                                               ("exit", 0), 0]


def test_complex_parser_keeps_inf_and_reads_the_unit():
    with pytest.raises(cli.UsageError, match="non-finite complex value 'inf'"):
        cli._parse_complex("inf")
    assert cli._parse_complex(" -0.25+0.5i ") == complex(-0.25, 0.5)
    assert cli._parse_complex("i") == 1j


def run_module(*argv):
    """``python -m toepspec.cli`` in a fresh interpreter on this checkout."""
    src = str(Path(toepspec.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "toepspec.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_main():
    proc = run_module("xi", "--symbol", "regular", "--z", "abc", "--lambda", "0.1")
    assert proc.returncode == 1
    assert "usage error" in proc.stderr
    proc = run_module("spectrum", "--symbol", "regular")
    assert proc.returncode == 0
    data = json.loads(proc.stdout)
    assert data["gamma1"] == pytest.approx(-1.0) and data["gamma2"] == pytest.approx(1.0)


def test_spectrum_and_levelset(capsys):
    code, out, _ = run_capture(capsys, ["spectrum", "--symbol", "singular:0:3.141592653589793"])
    assert code == 0
    data = json.loads(out)
    assert data["gamma1"] == 0.0 and data["gamma2"] == 1.0
    assert data["admissible_intervals"] == [[0.0, 1.0]]

    code, out, _ = run_capture(capsys, ["levelset", "--symbol", "regular", "--lambda", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["measure"] == pytest.approx(0.5, abs=1e-12)
    assert data["arcs"][0]["alpha_kind"] == "root"


def test_levelset_exceptional_level(capsys):
    code, _, err = run_capture(capsys, ["levelset", "--symbol", "regular", "--lambda", "1.0"])
    assert code == 2


def test_xi_reports_quadrature_info(capsys):
    code, out, _ = run_capture(capsys, ["xi", "--symbol", "regular", "--z", "0.3+0.2i", "--lambda", "0.1"])
    assert code == 0
    data = json.loads(out)
    z = complex(0.3, 0.2)
    ref = (2.0 / (1.0 - 0.2 * z + z * z)) ** 0.5
    assert complex(data["value"]["re"], data["value"]["im"]) == pytest.approx(ref, abs=1e-9)
    assert data["achieved_tol"] < 1e-10
    assert data["roots"] == 2


def test_phase_both_forms(capsys):
    code, out, _ = run_capture(capsys, ["phase", "--symbol", "regular", "--z", "0.2", "--lambda", "0"])
    assert code == 0
    data = json.loads(out)
    assert data["measure"] == pytest.approx(0.5, abs=1e-12)
    assert data["integral"]["re"] == pytest.approx(data["closed"]["re"], abs=1e-13)
    assert data["integral"]["im"] == pytest.approx(data["closed"]["im"], abs=1e-13)


def test_phase_exterior_point(capsys):
    code, out, _ = run_capture(capsys, ["phase", "--symbol", "regular", "--z", "2.0", "--lambda", "0"])
    assert code == 0
    data = json.loads(out)
    assert "closed" not in data and "integral" in data


def test_density_csv_deterministic(capsys):
    argv = ["density", "--symbol", "regular", "--interval=-0.5,0.5", "--grid", "4",
            "--points", "0,0.3+0.2i"]
    code1, out1, _ = run_capture(capsys, argv)
    code2, out2, _ = run_capture(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0].split(",")[0] == "lambda"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[1]) > 0.0  # density(0,0) positive


def test_eigenfun_csv(capsys):
    code, out, _ = run_capture(capsys, ["eigenfun", "--symbol", "regular", "--lambda", "0",
                                        "--branch", "1", "--zgrid", "0.5,4"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    ref = math.sqrt(2.0 / math.pi) / (1.0 + 0.25)
    assert float(row[2]) == pytest.approx(ref, abs=1e-10)


def test_diagonalize_roundtrip(tmp_path, capsys):
    vec = tmp_path / "vec.json"
    vec.write_text(json.dumps({"terms": [{"c": [1.0, 0.0], "z": [0.0, 0.0]}]}))
    code, out, _ = run_capture(capsys, ["diagonalize", "--symbol", "regular",
                                        "--interval=-0.5,0.5", "--vector", str(vec),
                                        "--grid", "8"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,phi_1_re,phi_1_im"
    assert len(lines) == 9


def test_symbol_file_roundtrip(tmp_path, capsys):
    sym = preset_singular(0.3, 2.1)
    path = tmp_path / "sym.json"
    path.write_text(sym.serialize())
    code, out, _ = run_capture(capsys, ["multiplicity", "--symbol", str(path), "--interval=0.2,0.8"])
    assert code == 0
    assert json.loads(out)["m"] == 1


def test_missing_symbol_file(capsys):
    code, _, err = run_capture(capsys, ["spectrum", "--symbol", "no_such_file.json"])
    assert code == 2


@pytest.mark.parametrize("name, cause", [
    ("singular:0:0", "proper sub-arc"),
    ("singular:a:1", "could not convert"),
    ("singular:1", "'singular:theta1:theta2'"),
])
def test_preset_errors_keep_their_cause(capsys, tmp_path, monkeypatch, name, cause):
    monkeypatch.chdir(tmp_path)
    code, _, err = run_capture(capsys, ["spectrum", "--symbol", name])
    assert code == 2
    assert err.startswith(f"cannot load symbol {name!r}: ")
    assert cause in err and "Errno" not in err
    path = tmp_path / "sym.json"
    path.write_text(preset_singular(0.3, 2.1).serialize())
    assert run_capture(capsys, ["spectrum", "--symbol", str(path)])[0] == 0


def test_levelset_and_phase_print_one_measure(capsys, tmp_path):
    # two arcs of cos 2 theta: the commands must agree to the last bit
    path = tmp_path / "cos2.json"
    path.write_text(PiecewiseSymbol([(0.0, 2.0 * math.pi, TrigPoly([0.0, 0.0, 1.0]))]).serialize())
    lam = ["--symbol", str(path), "--lambda", "-0.95"]
    code, out, _ = run_capture(capsys, ["levelset"] + lam)
    assert code == 0
    level = json.loads(out)
    code, out, _ = run_capture(capsys, ["phase", "--z", "0.2"] + lam)
    assert code == 0
    assert len(level["arcs"]) == 2
    assert json.loads(out)["measure"] == level["measure"]


def test_unwritable_csv_fails_before_the_eigensolves(capsys, tmp_path, monkeypatch):
    def never(*args):
        raise AssertionError("validate ran before the csv path was checked")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli.oracle, "validate", never)
    code, _, err = run_capture(capsys, ["validate", "--symbol", "regular", "--interval=-0.5,0.5",
                                        "--n", "64,128", "--csv", "no_dir/table.csv"])
    assert code == 2
    assert err.startswith("analysis error: cannot write 'no_dir/table.csv': ")


_GOOD_PIECE = {"theta_start": 0.0, "theta_end": 2.0 * math.pi, "a": [0.0, 1.0]}


@pytest.mark.parametrize("argv, named", [
    (["validate", "--symbol", "regular", "--interval=-0.5,0.5", "--n", "64,1"], "'1' is below 2"),
    (["density", "--symbol", "regular", "--interval=-0.5,0.5", "--points", "0.2,1.0"], "'1.0'"),
    (["validate", "--symbol", "regular", "--interval=-0.5,0.5", "--points", "0.2, 1.5"], "'1.5'"),
    (["density", "--symbol", "regular", "--interval=-0.5,0.5", "--points", "0.6+0.8i"],
     "'0.6+0.8i'"),
])
def test_section_sizes_and_disk_points_are_checked_before_loading(capsys, monkeypatch, argv, named):
    def never(path):
        raise AssertionError("symbol loaded")

    monkeypatch.setattr(cli, "load_symbol", never)
    code, out, err = run_capture(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and named in err


@pytest.mark.parametrize("command", ["xi", "phase"])
def test_points_outside_the_disk_stay_valid_for_xi_and_phase(capsys, command):
    code, out, _ = run_capture(capsys, [command, "--symbol", "regular", "--z", "1.5",
                                        "--lambda", "0.1"])
    assert code == 0 and json.loads(out)["lambda"] == 0.1


@pytest.mark.parametrize("files, argv", [
    ({"sym.json": {"pieces": [{"theta_start": 0.0, "theta_end": 2.0 * math.pi}]}},
     ["spectrum", "--symbol", "sym.json"]),
    ({"sym.json": {"pieces": 5}}, ["spectrum", "--symbol", "sym.json"]),
    ({"sym.json": {"pieces": [dict(_GOOD_PIECE, theta_end=3.0)]}},
     ["spectrum", "--symbol", "sym.json"]),
    ({"sym.json": {"pieces": [dict(_GOOD_PIECE, a=[1.0])]}},
     ["spectrum", "--symbol", "sym.json"]),
    ({"sym.json": {"pieces": [dict(_GOOD_PIECE, a=[0.0, 1e308, 1e308])]}},
     ["spectrum", "--symbol", "sym.json"]),
    ({"sym.json": {"pieces": [dict(_GOOD_PIECE, a=[0.0, 1e-320])]}},
     ["spectrum", "--symbol", "sym.json"]),
    ({"sym.json": {"pieces": [dict(_GOOD_PIECE, a="01")]}},
     ["spectrum", "--symbol", "sym.json"]),
    ({}, ["diagonalize", "--symbol", "regular", "--interval=-0.5,0.5",
          "--vector", "vec.json"]),
    ({"vec.json": {"terms": [{"c": [1.0, 0.0]}]}},
     ["diagonalize", "--symbol", "regular", "--interval=-0.5,0.5", "--vector", "vec.json"]),
    ({"vec.json": [{"c": [1.0, 0.0], "z": [0.1, 0.0]}]},
     ["diagonalize", "--symbol", "regular", "--interval=-0.5,0.5", "--vector", "vec.json"]),
    ({}, ["spectrum", "--symbol", "regular", "--output", "no_dir/out.json"]),
    ({}, ["validate", "--symbol", "regular", "--interval=-0.5,0.5", "--n", "64,128",
          "--csv", "no_dir/table.csv"]),
], ids=["symbol-missing-key", "symbol-wrong-type", "symbol-not-tiling", "symbol-constant",
        "symbol-derivative-overflow", "symbol-subnormal", "symbol-string-coefficients",
        "vector-missing-file", "vector-term-without-z", "vector-top-level-list",
        "output-no-dir", "csv-no-dir"])
def test_bad_files_and_paths_exit_two(capsys, tmp_path, monkeypatch, files, argv):
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        (tmp_path / name).write_text(json.dumps(content))
    code, _, err = run_capture(capsys, argv)
    assert code == 2
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(("cannot load ", "analysis error: "))


def test_validate_small(capsys, tmp_path):
    csvpath = tmp_path / "table.csv"
    code, out, _ = run_capture(capsys, ["validate", "--symbol", "regular", "--interval=-0.5,0.5",
                                        "--n", "64,128,256", "--csv", str(csvpath)])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert csvpath.read_text().splitlines()[0].startswith("N,")


def test_validate_fault_injection(capsys, monkeypatch):
    # corrupting the Fourier coefficients must break the oracle agreement
    true_fn = PiecewiseSymbol.fourier_coefficients

    def corrupted(self, N):
        val = true_fn(self, N)
        val[1:] *= 0.99
        return val

    monkeypatch.setattr(PiecewiseSymbol, "fourier_coefficients", corrupted)
    code, out, _ = run_capture(capsys, ["validate", "--symbol", "regular", "--interval=-0.5,0.5",
                                        "--n", "64,128"])
    assert code == 3
    assert json.loads(out)["pass"] is False
