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
from porism.closure import (
    LineConfiguration,
    TangentClosure,
    TwoLineSystem,
    dual_chain,
    validate,
)
from porism.conic import line_conic_params
from porism.involution import DualMoebiusReport, MoebiusReport, fregier
from porism.plane import INFINITY, ConicParam, ProjLine, ProjPoint
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
    scene = _x0_scene_path(tmp_path)
    for argv in (
        ["porism", str(tmp_path / "absent.scene")],
        ["porism", os.path.join(scene, "z")],
        ["plot", scene, "--out", os.path.join(scene, "x.svg")],
    ):
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("starts", ["0", "-1"])
def test_porism_without_starts(tmp_path, capsys, backend, starts):
    path = _x0_scene_path(tmp_path)
    assert main(["porism", path, "--starts", starts, "--backend", backend]) == 0
    assert "chains closed: 0/0" in capsys.readouterr().out


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


def test_construct_then_porism_at_n_128(tmp_path, capsys):
    path = str(tmp_path / "big.scene")
    assert main(["construct", "128", "--seed", "0", "--out", path]) == 0
    assert main(["porism", path]) == 0
    assert "chains closed: 20/20 (exact backend)" in capsys.readouterr().out


def test_float_backend_closes_every_chain_at_n_32(tmp_path, capsys):
    # the float walk steps each edge by the involution read off its line,
    # so its chains stay inside the 1e-9 closure test at n = 32
    path = str(tmp_path / "n32.scene")
    assert main(["construct", "32", "--seed", "1", "--out", path]) == 0
    assert main(["porism", path, "--backend", "float"]) == 0
    out = capsys.readouterr().out
    assert "chains closed: 20/20 (float backend)" in out
    assert "agreement: ok" in out


def test_construct_without_an_admissible_start_fails(tmp_path, capsys, monkeypatch):
    from porism import closure
    from porism.errors import DegenerateStart

    def no_chain(config, start):
        raise DegenerateStart("no admissible start")

    monkeypatch.setattr(closure, "dual_chain", no_chain)
    path = tmp_path / "none.scene"
    assert main(["construct", "3", "--seed", "1", "--out", str(path)]) == 1
    assert "could not sample an admissible start" in capsys.readouterr().err
    assert not path.exists()


def test_construct_refuses_a_scene_past_the_digit_limit(tmp_path, capsys, digit_limit_640):
    # the chain parameters of a 300-line scene reach about 7.5 * 300 bits,
    # some 680 digits, past the lowered limit; the lines stay below it
    path = tmp_path / "big.scene"
    assert main(["construct", "300", "--seed", "0", "--out", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot store a scalar of ")
    assert err.endswith("the interpreter's limit for integer string conversion is 640 digits\n")
    assert int(err.split()[6]) > 640
    assert not path.exists()


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


_FOOTPRINT = (
    "import sys\n"
    "from porism.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(' '.join(sorted(m for m in sys.modules\n"
    "                      if m.startswith('porism') or m == 'dataclasses')))\n"
    "sys.exit(code)\n"
)


def _probe(code: str, args=(), cwd=None) -> str:
    """Standard output of a fresh interpreter running code against this
    checkout's package."""
    src = str(Path(porism.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, cwd=cwd,
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def _footprint(args, cwd=None) -> set:
    """The porism modules, and dataclasses if loaded, after one CLI command."""
    return set(_probe(_FOOTPRINT, args, cwd).splitlines()[-1].split())


def test_package_import_loads_no_submodule():
    probe = "import sys, porism; print(sorted(m for m in sys.modules if 'porism' in m))"
    assert _probe(probe).strip() == "['porism']"


def test_twolines_loads_no_geometry_module():
    assert _footprint(["twolines", "--n", "12"]) == {
        "porism", "porism.cli", "porism.errors"
    }


def test_scene_commands_load_neither_suites_nor_dataclasses(tmp_path):
    commands = (
        ["construct", "5", "--seed", "1", "--out", "s.scene"],
        ["porism", "s.scene"],
        ["plot", "s.scene", "--out", "s.svg"],
    )
    for args in commands:
        loaded = _footprint(args, cwd=tmp_path)
        assert "porism.suites" not in loaded, args
        assert "dataclasses" not in loaded, args
        # generating and deciding read the maps off the lines
        assert "porism.involution" not in loaded, args
    assert "porism.closure" not in loaded  # plot builds no configuration


def test_star_import_binds_every_export():
    namespace = {}
    exec("from porism import *", namespace)
    assert len(porism.__all__) == 77
    assert set(porism.__all__) <= set(namespace)
    assert set(porism.__all__) <= set(dir(porism))
    from porism import closure, svg

    assert namespace["dual_chain"] is closure.dual_chain
    assert namespace["render_scene"] is svg.render_scene
    assert namespace["__version__"] == porism.__version__


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        porism.no_such_name


def _records():
    """One instance of each record type, with its repr at the time the
    records were frozen dataclasses."""
    config = LineConfiguration([ProjLine(1, 0, -1), ProjLine(0, 1, 0)])
    point = ProjPoint(1, 0, 1)
    return [
        (line_conic_params(ProjLine(1, 0, -1)),
         "ParamRoots(params=(ConicParam(-1), ConicParam(1)), discriminant=4, "
         "double=False)"),
        (fregier(ProjPoint(0, 1, 0)),
         "FregierInvolution(center=ProjPoint(0:1:0), "
         "map=MobiusMap([[1, 0], [0, -1]]))"),
        (MoebiusReport((ProjPoint(1, 0, 0), ProjPoint(0, 1, 0)), False, None),
         "MoebiusReport(points=(ProjPoint(1:0:0), ProjPoint(0:1:0)), "
         "hypothesis_met=False, conclusion=None)"),
        (DualMoebiusReport((ProjLine(1, 0, 0),), True, True,
                           MoebiusReport((ProjPoint(1, 0, 0),), True, True)),
         "DualMoebiusReport(diagonals=(ProjLine(1:0:0),), hypothesis_met=True, "
         "conclusion=True, primal=MoebiusReport(points=(ProjPoint(1:0:0),), "
         "hypothesis_met=True, conclusion=True))"),
        (validate(config),
         "ValidityReport(valid=True, tangent_members=(), repeated_params=(), "
         "params=((ConicParam(-1), ConicParam(1)), (ConicParam(inf), ConicParam(0))))"),
        (dual_chain(config, ConicParam(3)),
         "PolygonChain(mode='dual', params=(ConicParam(3), ConicParam(1/3), "
         "ConicParam(-1/3), ConicParam(-3), ConicParam(3)), vertices=(), "
         "closed=True, steps=4)"),
        (TangentClosure((point,), (INFINITY,), ProjLine(0, 0, 1), True, 0),
         "TangentClosure(vertices=(ProjPoint(1:0:1),), edge_params=(ConicParam(inf),), "
         "closing_line=ProjLine(0:0:1), closing_tangent=True, discriminant=0)"),
        (TwoLineSystem.at(2),
         "TwoLineSystem(x=Fraction(2, 1), mat_u=Mat2(0, 1, 1, 0), "
         "mat_v=Mat2(1, 0, Fraction(2, 1), -1))"),
        (SceneDocument((ProjLine(1, 0, -1),), (("A", point),)),
         "SceneDocument(lines=(ProjLine(1:0:-1),), points=(('A', ProjPoint(1:0:1)),), "
         "chains=())"),
    ]


def test_records_keep_their_repr_equality_and_hash():
    records = _records()
    assert len({type(record) for record, _ in records}) == 9
    for (record, text), (again, _) in zip(records, _records()):
        assert repr(record) == text
        assert record == again
        # a frozen dataclass hashed the tuple of its fields, in order
        values = tuple(getattr(record, name) for name in record._fields)
        assert hash(record) == hash(again) == hash(values)


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
    capsys.readouterr()
    assert main(["twolines", "--mode", "check", "--n", "3", "--x", "1/0"]) == 2
    assert "error:" in capsys.readouterr().err


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
