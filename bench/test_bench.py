"""Tests of the benchmark itself: every check rejects a corrupted output, and
the independent arithmetic agrees with small cases worked by hand.

    python3 -m pytest -q bench
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import math
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import workloads  # noqa: E402

PZ = workloads.Porism()

from porism import cli, closure, plane, suites  # noqa: E402

# The two-line configuration x0 = x2, x1 = 0 closes; swapping the second
# line for 6 x0 - 5 x1 + x2 = 0 opens it (parameters {2, 3} are not swapped
# by t -> 1/t).
CLOSING = [(1, 0, -1), (0, 1, 0)]
OPENING = [(1, 0, -1), (6, -5, 1)]


# ---------------------------------------------------- hand-computed arithmetic


def test_pole_matrices_and_trace_by_hand():
    # pole of (1, 0, -1) is (-2, 0, 2): t -> 1/t; pole of (0, 1, 0) is (0, -1, 0): t -> -t
    assert oracle.pole_matrix((1, 0, -1)) == ((0, -2), (-2, 0))
    assert oracle.pole_matrix((0, 1, 0)) == ((-1, 0), (0, 1))
    assert oracle.chain_product(oracle.pole_matrix(l) for l in CLOSING) == ((0, 2), (-2, 0))
    assert oracle.product_trace(CLOSING) == 0
    # (6, -5, 1) has pole (2, 5, 12): [[5, -12], [2, -5]]; the product is [[24, -10], [10, -4]]
    assert oracle.product_trace(OPENING) == 20


def test_walk_by_hand():
    # 2 -> 1/2 -> -1/2 -> -2 -> 2 under t -> 1/t, t -> -t, twice around
    points = oracle.walk(CLOSING, (2, 1), 4)
    assert points == [(2, 1), (1, 2), (-1, 2), (-2, 1), (2, 1)]
    assert oracle.first_return(points) == 4
    # infinity -> 0 -> 0 is a fixed point of t -> -t: the walk stalls
    assert oracle.walk(CLOSING, (1, 0), 2) == [(1, 0), (0, 1), (0, 1)]
    # 2 -> 1/2 -> (5/2 - 12) / (1 - 5) = 19/8 ... never comes back within 2n steps
    opened = oracle.walk(OPENING, (2, 1), 4)
    assert opened[:3] == [(2, 1), (1, 2), (19, 8)]
    assert oracle.first_return(opened) is None


def test_dual_vertices_and_incidence_by_hand():
    # the square 2, 1/2, -1/2, -2 has its vertices two on each line
    points = oracle.walk(CLOSING, (2, 1), 4)
    vertices = oracle.dual_vertices(points)
    assert vertices[0] == oracle.pole(oracle.chord((2, 1), (1, 2)))
    assert oracle.chord((2, 1), (1, 2)) == (2, -5, 2)
    assert oracle.carries_two_each(CLOSING, vertices)
    assert not oracle.carries_two_each(OPENING, vertices)


def test_small_cases_by_hand():
    assert oracle.chord((0, 1), (1, 0)) == (0, -1, 0)  # t = 0 and infinity: x1 = 0
    assert oracle.tangent((1, 1)) == (1, -2, 1)
    assert oracle.cross_ratio(0, 4, 1, -2) == -1
    assert oracle.det3((1, 0, 0), (0, 1, 0), (1, 1, 0)) == 0
    assert oracle.int_vector([Fraction(1, 2), Fraction(-3, 4), 0]) == (2, -3, 0)
    assert oracle.q_mul((1, 1), (1, -1), 2) == (-1, 0)  # (1 + r2)(1 - r2) = -1
    assert oracle.q_tangent(((1, 0), (-2, 0), (1, 0)), 2)  # (t - 1)^2
    assert not oracle.q_tangent(((1, 0), (0, 0), (-2, 0)), 2)  # t^2 = 2 has two roots
    assert oracle.chebyshev_roots(4) == pytest.approx([-math.sqrt(2), 0, math.sqrt(2)])
    # t1 = 1, t2 = -1: t -> 1/t
    assert oracle.fixing_matrix(1, -1) == ((0, 2), (2, 0))


def test_oracle_agrees_with_the_program_on_a_closing_configuration():
    config = closure.generate_closing(5, 3)
    lines = [workloads._int_coords(l) for l in config.lines]
    assert closure.porism_holds(config) and oracle.product_trace(lines) == 0
    chain = closure.dual_chain(config, plane.ConicParam(Fraction(7, 3)))
    own = oracle.walk(lines, (7, 3), 10)
    assert own == [workloads._param_pair(t) for t in chain.params]


# ------------------------------------------------ checks reject corruptions


def _twolines_text(n):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.main(["twolines", "--mode", "roots", "--n", str(n)]) == 0
    return out.getvalue()


def test_twolines_check_rejects_a_perturbed_value():
    text = _twolines_text(12)
    assert workloads.check_twolines_text(text, 12)
    rows = text.splitlines()
    rows[1] = rows[1].replace("1.931852", "1.931862")
    assert rows[1] != text.splitlines()[1]
    assert not workloads.check_twolines_text("\n".join(rows) + "\n", 12)
    assert not workloads.check_twolines_text("\n".join(rows[:-1]) + "\n", 12)


def test_twolines_check_fails_on_the_known_fault_at_n_48():
    assert not workloads.check_twolines_text(_twolines_text(48), 48)


def test_only_the_known_twolines_fault_counts_as_failed_but_not_wrong(tmp_path, monkeypatch):
    import run

    monkeypatch.setattr(workloads, "WORK", tmp_path)
    wl = workloads.setup("cli")
    op = next(o for o in wl.pool[0] if o.known_fault)
    n = int(op.arg[-1])
    text = _twolines_text(n)
    rows = text.splitlines()
    outputs = {  # case: (what the op returns, whether it is wrong)
        "the misplaced values alone": ((0, text, 0), False),
        "a nonzero exit": ((1, text, 0), True),
        "a value missing": ((0, "\n".join(rows[:-1]) + "\n", 0), True),
        "another header": ((0, text.replace(f"n={n}:", f"n={n + 1}:"), 0), True),
        "a malformed value": ((0, "\n".join([rows[0], "  x ~ abc (irrational)", *rows[2:]]), 0),
                              True),
        "an exception": (None, True),
    }
    for case, (out, wrong) in outputs.items():
        def fake(op, out=out):
            if out is None:
                raise RuntimeError("the op raised")
            return out

        wl.run = fake
        rec = {"latency": [], "labels": [], "failed": 0, "wrong": [], "bits": 0, "rss_kb": 0}
        run._one_op(wl, op, 0, rec, None, ())
        assert rec["failed"] == 1, case
        assert bool(rec["wrong"]) == wrong, case


def test_chain_checks_reject_a_chain_that_does_not_close():
    config = closure.generate_closing(4, 1)
    lines = [workloads._int_coords(l) for l in config.lines]
    chains = workloads.walk_chains(PZ, config, random.Random(0))
    assert workloads.check_configuration(config, True, chains, True)
    broken = chains[0]
    params = list(broken.params)
    params[-1] = plane.ConicParam(params[-1].value + 1)
    fake = closure.PolygonChain("dual", tuple(params), broken.vertices, False, broken.steps)
    pairs = [workloads._param_pair(t) for t in params]
    assert not workloads.check_walk(lines, pairs, True)
    assert not workloads.check_walk(lines, pairs, False)
    assert not workloads.check_configuration(config, True, [fake], True)
    # a verdict that disagrees with the trace is rejected
    assert not workloads.check_configuration(config, False, chains, True)


def test_scene_check_rejects_a_nonzero_trace(tmp_path):
    path = tmp_path / "c.scene"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["construct", "6", "--seed", "2", "--out", str(path)]) == 0
    text = path.read_text()
    assert workloads.check_scene_text(text, 6)
    rows = text.splitlines()
    i = next(k for k, r in enumerate(rows) if r.startswith("line "))
    tokens = rows[i].split()
    tokens[1] = str(Fraction(tokens[1]) + 1)
    rows[i] = " ".join(tokens)
    lines, _ = workloads.parse_scene_text("\n".join(rows))
    assert oracle.product_trace(lines) != 0
    assert not workloads.check_scene_text("\n".join(rows) + "\n", 6)


def test_plot_check_rejects_a_changed_svg_byte(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "WORK", tmp_path)
    wl = workloads.setup("cli")
    cycle = wl.pool[0]
    construct, plot = cycle[0], cycle[3]
    for op in (construct, plot):
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(op.arg) == 0
        stdout = out.getvalue()
    assert wl.check(plot, (0, stdout, 0))
    svg = Path(plot.arg[-1])
    data = bytearray(svg.read_bytes())
    data[len(data) // 2] ^= 1
    svg.write_bytes(bytes(data))
    assert not wl.check(plot, (0, stdout, 0))
    assert not wl.check(plot, (1, stdout, 0))


def test_primal_check_rejects_corrupted_walks():
    wl = workloads.setup("primal-backends")
    op = wl.pool[0][0]
    assert wl.check(op, wl.run(op))
    exact, floating = wl.run(op)[0]
    config = op.arg[0][0]
    assert workloads.check_primal(config, exact, floating)
    moved = list(floating.vertices)
    x0, x1, x2 = moved[3].coords
    moved[3] = plane.ProjPoint(x0, x1 + 1e-6, x2)
    drifted = closure.PolygonChain("primal", floating.params, tuple(moved), True, floating.steps)
    assert not workloads.check_primal(config, exact, drifted)
    short = closure.PolygonChain(
        "primal", exact.params, exact.vertices[:-1] + (exact.vertices[1],), True, exact.steps
    )
    assert not workloads.check_primal(config, short, floating)


def test_suite_checks_reject_corrupted_instances():
    rng = random.Random(suites.trial_seed(0, 0))
    two = suites.make_two_instance(rng)
    assert workloads.check_two_instance(PZ, two)
    b1, b2 = two.pair_b
    bad = suites.TwoInvolutionInstance(two.pair_a, (b1, plane.ConicParam(b2.value + 1)),
                                       two.locus_param)
    assert not workloads.check_two_instance(PZ, bad)

    # centers knocked off their common line break the odd-product theorem
    aligned = suites.make_aligned_instance(random.Random(3), length=3)
    assert workloads.check_aligned_instance(PZ, aligned)

    class OffLine:
        @staticmethod
        def point_on_line(line, t):
            x0, x1, x2 = plane.point_on_line(line, t).coords
            return plane.ProjPoint(x0, x1, x2 + x0 * x0 + 1)

    class Skewed:
        plane = OffLine

    assert not workloads.check_aligned_instance(Skewed, aligned)
    assert not workloads.check_moebius_instance(
        Skewed, suites.make_moebius_instance(random.Random(4), n=4))

    # a round whose report carries a failure is rejected
    wl = workloads.setup("suites")
    op = wl.pool[0][0]
    reports, walls = wl.run(op)
    assert wl.check(op, (reports, walls))
    failing = dict(reports)
    failing["pascal"] = dataclasses.replace(
        reports["pascal"], failures=(suites.TrialFailure(0, 0, "x"),))
    assert not wl.check(op, (failing, walls))

    for name, check in workloads.SUITE_CHECKS.items():
        instance = suites.SUITES[name].generate(random.Random(suites.trial_seed(5, 1)))
        assert check(PZ, instance), name


# ------------------------------------------------------------- the harness


def test_tracer_restores_every_binding():
    import tracing

    from porism import involution

    modules = [sys.modules[m] for m in sorted(sys.modules)
               if m == "porism" or m.startswith("porism.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    product = vars(involution.InvolutionChain)["product"]
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        config = closure.generate_closing(4, 1)
        closure.porism_holds(config)
        suites.run_suite("pascal", 2, 0)
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after == before
    assert vars(involution.InvolutionChain)["product"] is product
    assert "__init__" not in vars(plane.ProjPoint)
    agg = tracer.aggregate()
    assert agg["closure.generate_closing"][0] == 1
    assert agg["suites.pascal.generate"][0] == 2
    for calls, errors, total, own in agg.values():
        assert 0 <= errors <= calls and own <= total + 1e-9


def test_run_exits_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suites", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
