import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toepspec
from toepspec import cli
from toepspec.symbol import PiecewiseSymbol, preset_singular


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
])
def test_malformed_number_is_usage_error(capsys, argv):
    code, _, err = run_capture(capsys, argv)
    assert code == 1
    assert "usage error" in err


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
    assert data["panels"] > 0


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


def test_validate_small(capsys, tmp_path):
    csvpath = tmp_path / "table.csv"
    code, out, _ = run_capture(capsys, ["validate", "--symbol", "regular", "--interval=-0.5,0.5",
                                        "--n", "64,128,256", "--csv", str(csvpath)])
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert csvpath.read_text().splitlines()[0].startswith("N,")


def test_validate_fault_injection(capsys, monkeypatch):
    # corrupting one Fourier coefficient must break the oracle agreement
    true_fn = PiecewiseSymbol.fourier_coefficient

    def corrupted(self, n):
        val = true_fn(self, n)
        if n != 0:
            return val * 0.99
        return val

    monkeypatch.setattr(PiecewiseSymbol, "fourier_coefficient", corrupted)
    code, out, _ = run_capture(capsys, ["validate", "--symbol", "regular", "--interval=-0.5,0.5",
                                        "--n", "64,128"])
    assert code == 3
    assert json.loads(out)["pass"] is False
