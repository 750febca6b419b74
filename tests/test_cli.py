"""End-to-end command line behavior via main(argv)."""
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import porism
from porism.cli import main
from porism.plane import ConicParam, ProjLine
from porism.scene import SceneDocument, load_scene, save_scene, serialize


def _x0_scene_path(tmp_path, chains=()):
    scene = SceneDocument((ProjLine(1, 0, -1), ProjLine(0, 1, 0)), chains=chains)
    path = str(tmp_path / "x0.scene")
    save_scene(scene, path)
    return path


def test_verify_pass(capsys):
    assert main(["verify", "pascal", "--trials", "5", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "suite pascal:" in out
    assert "failures=0" in out


def test_verify_unknown_suite(capsys):
    assert main(["verify", "sextic", "--trials", "5"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_porism_closing_scene(tmp_path, capsys):
    path = _x0_scene_path(tmp_path)
    assert main(["porism", path, "--starts", "5", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "porism_holds=true" in out
    assert "chains closed: 5/5" in out
    assert "agreement: ok" in out


def test_porism_open_scene(tmp_path, capsys):
    # params {2, 3} are not swapped by 1/t, so the porism fails here
    scene = SceneDocument((ProjLine(1, 0, -1), ProjLine(6, -5, 1)))
    path = str(tmp_path / "open.scene")
    save_scene(scene, path)
    assert main(["porism", path, "--starts", "5", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "porism_holds=false" in out
    assert "chains closed: 0/5" in out


def test_porism_float_backend(tmp_path, capsys):
    path = _x0_scene_path(tmp_path)
    assert main(["porism", path, "--starts", "4", "--seed", "2",
                 "--backend", "float"]) == 0
    out = capsys.readouterr().out
    assert "porism_holds=true" in out
    assert "(float backend)" in out


def test_porism_missing_file(tmp_path, capsys):
    assert main(["porism", str(tmp_path / "absent.scene")]) == 2
    assert "error:" in capsys.readouterr().err


def test_porism_bad_scene(tmp_path, capsys):
    path = str(tmp_path / "bad.scene")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("not a scene\n")
    assert main(["porism", path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("n", [2, 3, 4])
def test_construct_then_porism(tmp_path, capsys, n):
    path = str(tmp_path / f"closing{n}.scene")
    assert main(["construct", str(n), "--seed", "7", "--out", path]) == 0
    scene = load_scene(path)
    assert len(scene.lines) == n
    assert scene.chains and scene.chains[0][0] == scene.chains[0][-1]
    assert main(["porism", path, "--starts", "4"]) == 0
    out = capsys.readouterr().out
    assert "porism_holds=true" in out


def test_construct_deterministic(tmp_path):
    a = str(tmp_path / "a.scene")
    b = str(tmp_path / "b.scene")
    assert main(["construct", "3", "--seed", "5", "--out", a]) == 0
    assert main(["construct", "3", "--seed", "5", "--out", b]) == 0
    assert serialize(load_scene(a)) == serialize(load_scene(b))


def test_twolines_roots(capsys):
    assert main(["twolines", "--mode", "roots", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert "n=3" in out
    assert "x = 1 (exact)" in out and "x = -1 (exact)" in out


def test_twolines_roots_irrational(capsys):
    assert main(["twolines", "--mode", "roots", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert "1.414214" in out


def test_twolines_roots_are_the_closed_form_at_n_48(capsys):
    assert main(["twolines", "--mode", "roots", "--n", "48"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "closure parameter values for n=48:"
    assert len(rows[1:]) == 47
    exact_rows = []
    for k, row in zip(range(47, 0, -1), rows[1:]):
        expected = 2 * math.cos(k * math.pi / 48)
        if row.endswith("(exact)"):
            exact_rows.append(row)
        else:
            assert row.endswith("(irrational)")
            expected = round(expected, 6)  # the printed precision
        assert abs(float(row.split()[2]) - expected) < 1e-12
    assert exact_rows == ["  x = -1 (exact)", "  x = 0 (exact)", "  x = 1 (exact)"]


def test_cli_import_leaves_numpy_unloaded():
    src = str(Path(porism.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    probe = "import sys, porism.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_python_dash_m_porism_runs_the_cli():
    src = str(Path(porism.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-m", "porism", "--help"], env=env, capture_output=True,
        text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "usage: porism" in result.stdout


def test_twolines_check(capsys):
    assert main(["twolines", "--mode", "check", "--n", "2", "--x", "0"]) == 0
    assert "closes at n=2: true" in capsys.readouterr().out
    assert main(["twolines", "--mode", "check", "--n", "4", "--x", "0"]) == 0
    assert "closes at n=4: false" in capsys.readouterr().out
    assert main(["twolines", "--mode", "check", "--n", "3", "--x", "1/1"]) == 0
    assert "closes at n=3: true" in capsys.readouterr().out


def test_twolines_usage_errors(capsys):
    assert main(["twolines", "--mode", "check", "--n", "3"]) == 2
    assert "needs --x" in capsys.readouterr().err
    assert main(["twolines", "--mode", "roots", "--n", "1"]) == 2
    assert main(["twolines", "--mode", "check", "--n", "3", "--x", "x+1"]) == 2


def test_plot_deterministic(tmp_path, capsys):
    chain = tuple(ConicParam(Fraction(v)) for v in
                  (3, Fraction(1, 3), Fraction(-1, 3), -3, 3))
    path = _x0_scene_path(tmp_path, chains=(chain,))
    out_a = str(tmp_path / "a.svg")
    out_b = str(tmp_path / "b.svg")
    assert main(["plot", path, "--out", out_a]) == 0
    assert main(["plot", path, "--out", out_b]) == 0
    with open(out_a, encoding="utf-8") as fh:
        first = fh.read()
    with open(out_b, encoding="utf-8") as fh:
        second = fh.read()
    assert first == second
    assert first.startswith("<svg ")
    assert 'class="edge"' in first


def test_plot_bad_samples(tmp_path, capsys):
    path = _x0_scene_path(tmp_path)
    assert main(["plot", path, "--out", str(tmp_path / "o.svg"),
                 "--samples", "4"]) == 2
    assert "error:" in capsys.readouterr().err
