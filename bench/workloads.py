"""The benchmark's workloads: fixed inputs, the timed op, and its check.

A workload is a pool of cycles; a cycle is a short list of ops that run in
order (one op for the in-process workloads, the seven-command script for
`cli`). Every input is seeded by its index in the pool, so every pass over
the pool does identical work; the run's --seed only sets the order of the
passes. Checks use `oracle`, never the program's own verdicts alone.

Run as a script (`python3 bench/workloads.py WORKLOAD`), this module builds
the workload's fixed inputs in a fresh interpreter and prints the monotonic
clock reading at which the first op could start; `run.py` takes setup_s
from it.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
import re
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import oracle

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"

SUITE_NAMES = ("two", "pascal", "aligned", "moebius", "dual-moebius", "dalignes")
SUITE_TRIALS = 2  # K: trials per suite in one round
LARGE_N = 32
CHAIN_WALKS = 3  # dual chains walked per configuration in porism-large-n
CHAIN_TRIES = 60  # seeded starts tried per chain before giving up
PRIMAL_N = 6
PRIMAL_CONFIGS = 4
PRIMAL_STARTS = 16  # per configuration, one per bundle
# `construct 8 --seed 5` is left out: `porism --backend float` exits 1 on it
# (see FOUND in CHANGES.md), which would fail one op in every pass
CLI_SCENES = (1, 2, 3, 4, 6)
CLI_N = 8
CLI_TRIALS = 20  # `verify pascal --trials`
CLI_STARTS = 20  # the `porism` command's default --starts
TWOLINES_TOL = 1e-6
FLOAT_TOL = 1e-9


def import_porism():
    """Import the package from this checkout's src/, and nowhere else."""
    if not (SRC / "porism" / "__init__.py").is_file():
        raise SystemExit(f"error: no porism package under {SRC}")
    sys.path.insert(0, str(SRC))
    import porism

    if Path(porism.__file__).resolve().parent != (SRC / "porism").resolve():
        raise SystemExit(f"error: porism imported from {porism.__file__}")
    return porism


@dataclass
class Op:
    """One timed unit of work. `known_fault` names a program fault that makes
    this op fail on every run; when the workload's `known_failure` finds that
    fault and nothing else in the output, the op counts as failed, not as
    wrong."""

    label: str
    arg: Any
    known_fault: Optional[str] = None


@dataclass
class Workload:
    name: str
    pool: list  # list of cycles, each a list of Op
    run: Callable[[Op], Any]
    check: Callable[[Op, Any], bool]
    bits: Callable[[Op, Any], int] = lambda op, out: 0
    # whether a failed op's output shows its known fault and no other
    known_failure: Callable[[Op, Any], bool] = lambda op, out: False
    # traced runs only: the in-process call traced for this op, and extra
    # per-layer samples taken outside the timed span
    inproc: Optional[Callable[[Op], Any]] = None
    layer_sample: Callable[[Op, Any], dict] = lambda op, out: {}


def coeff_bits(values) -> int:
    """Largest numerator or denominator, in bits, of rationals or of the
    rational parts of Q(sqrt d) elements; None entries are skipped."""
    top = 0
    for v in values:
        if v is None:
            continue
        parts = (v.a, v.b) if hasattr(v, "d") else (Fraction(v),)
        for f in parts:
            top = max(top, abs(f.numerator).bit_length(), f.denominator.bit_length())
    return top


# ------------------------------------------------------------------- suites


def _suites_workload(pz) -> Workload:
    from porism import suites

    def run(op):
        walls = {}
        reports = {}
        for name in SUITE_NAMES:
            t0 = time.perf_counter()
            reports[name] = suites.run_suite(name, SUITE_TRIALS, seed=op.arg)
            walls[name] = time.perf_counter() - t0
        return reports, walls

    def instances(name, round_seed):
        generate = suites.SUITES[name].generate
        return [
            generate(random.Random(suites.trial_seed(round_seed, i)))
            for i in range(SUITE_TRIALS)
        ]

    def check(op, out):
        reports, _ = out
        for name in SUITE_NAMES:
            report = reports[name]
            if report.trials != SUITE_TRIALS or report.failures:
                return False
            if not all(SUITE_CHECKS[name](pz, x) for x in instances(name, op.arg)):
                return False
        return True

    def layer_sample(op, out):
        reports, walls = out
        sample = {f"suites.{n}.resamples": reports[n].resamples for n in SUITE_NAMES}
        sequential = 0.0
        for name in SUITE_NAMES:
            t0 = time.perf_counter()
            for i in range(SUITE_TRIALS):
                suites.run_trial(name, suites.trial_seed(op.arg, i))
            sequential += time.perf_counter() - t0
        sample["suites.pool_overhead_ms"] = 1000 * (sum(walls.values()) - sequential)
        return sample

    pool = [[Op("round", r)] for r in range(16)]
    return Workload("suites", pool, run, check, layer_sample=layer_sample)


def _param_pair(t):
    return oracle.pair(None if t.is_infinite else t.value)


def _int_coords(p):
    return oracle.int_vector(p.coords)


def check_pascal_instance(pz, x) -> bool:
    p1, p2, p3, q3, q2, q1 = (_param_pair(t) for t in x.params)
    ps, qs = (p1, p2, p3), (q1, q2, q3)
    points = [
        oracle.cross(oracle.chord(ps[i], qs[j]), oracle.chord(ps[j], qs[i]))
        for i, j in ((0, 1), (0, 2), (1, 2))
    ]
    return oracle.det3(*points) == 0


def check_two_instance(pz, x) -> bool:
    (a1, a2), (b1, b2) = ([t.value for t in pr] for pr in (x.pair_a, x.pair_b))
    if oracle.cross_ratio(a1, a2, b1, b2) != -1:
        return False
    u, v = oracle.fixing_matrix(a1, a2), oracle.fixing_matrix(b1, b2)
    return oracle.trace(oracle.mat_mul(v, u)) == 0


def _centers(pz, line, params):
    return [_int_coords(pz.plane.point_on_line(line, s)) for s in params]


def check_aligned_instance(pz, x) -> bool:
    line = _int_coords(x.line)
    centers = _centers(pz, x.line, x.center_params)
    if any(oracle.dot(line, c) != 0 for c in centers):
        return False
    m = oracle.chain_product(oracle.center_matrix(c) for c in centers)
    if oracle.trace(m) != 0:
        return False
    # center (c : a : -b) of the involution [[a, b], [c, -a]]
    return oracle.dot(line, (m[1][0], m[0][0], -m[0][1])) == 0


def _moebius_polygons(pz, x):
    matrices = [oracle.center_matrix(c) for c in _centers(pz, x.line, x.center_params)]
    xs = [_param_pair(x.seeds[0])]
    ys = [_param_pair(x.seeds[1])]
    for m in matrices:
        xs.append(oracle.apply(m, xs[-1]))
        ys.append(oracle.apply(m, ys[-1]))
    return xs, ys


def check_moebius_instance(pz, x) -> bool:
    xs, ys = _moebius_polygons(pz, x)
    n = x.n
    ch = oracle.chord
    points = [oracle.cross(ch(xs[j], xs[j + 1]), ch(ys[j], ys[j + 1])) for j in range(n - 1)]
    if n % 2 == 1:
        points.append(oracle.cross(ch(xs[n - 1], ys[0]), ch(ys[n - 1], xs[0])))
    else:
        points.append(oracle.cross(ch(xs[n - 1], xs[0]), ch(ys[n - 1], ys[0])))
    return oracle.collinear(points)


def check_dual_moebius_instance(pz, x) -> bool:
    xs, ys = _moebius_polygons(pz, x)
    n = x.n
    tangents = [oracle.tangent(t) for t in xs + ys]
    w = [oracle.cross(tangents[i], tangents[(i + 1) % (2 * n)]) for i in range(2 * n)]
    diagonals = [oracle.cross(w[j], w[j + n]) for j in range(n - 1)]
    if n % 2 == 1:
        diagonals.append(oracle.cross(w[n - 1], w[2 * n - 1]))
    else:
        w_a = oracle.cross(tangents[n - 1], tangents[0])
        w_b = oracle.cross(tangents[2 * n - 1], tangents[n])
        diagonals.append(oracle.cross(w_a, w_b))
    # concurrent lines are collinear points of the dual plane
    return oracle.collinear(diagonals)


def check_dalignes_instance(pz, x) -> bool:
    walk = pz.closure.concurrent_tangent_chain(x.lines, x.start)
    coords = [c for v in walk.vertices for c in v.coords]
    d = oracle.field_of(coords) or Fraction(0)
    vs = [tuple(oracle.as_pair(c, d) for c in v.coords) for v in walk.vertices]
    lines = [tuple(oracle.as_pair(c, d) for c in l.coords) for l in x.lines]
    m = len(lines)
    if any(not oracle.q_is_zero(oracle.q_dot(lines[k % m], v, d)) for k, v in enumerate(vs)):
        return False
    edges = [oracle.q_cross(vs[k], vs[k + 1], d) for k in range(len(vs) - 1)]
    closing = oracle.q_cross(vs[-1], vs[0], d)
    return all(oracle.q_tangent(e, d) for e in edges + [closing])


SUITE_CHECKS = {
    "two": check_two_instance,
    "pascal": check_pascal_instance,
    "aligned": check_aligned_instance,
    "moebius": check_moebius_instance,
    "dual-moebius": check_dual_moebius_instance,
    "dalignes": check_dalignes_instance,
}


# ----------------------------------------------------------- porism-large-n


def seeded_start(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-60, 60), rng.randint(1, 20))


def walk_chains(pz, config, rng):
    closure, plane, errors = pz.closure, pz.plane, pz.errors
    chains = []
    for _ in range(CHAIN_WALKS):
        for _ in range(CHAIN_TRIES):
            try:
                chains.append(closure.dual_chain(config, plane.ConicParam(seeded_start(rng))))
                break
            except errors.DegenerateStart:
                continue
        else:
            raise errors.GenerationExhausted("no admissible dual-chain start")
    return chains


def check_walk(lines, params, closes: bool) -> bool:
    """Re-walk a dual chain, given as homogeneous pairs, with integer Möbius
    arithmetic: it must return to its start after exactly 2n steps, well
    inscribed, when the porism holds, and never return otherwise."""
    n = len(lines)
    own = oracle.walk(lines, params[0], 2 * n)
    if own != params:
        return False
    first = oracle.first_return(own)
    if not closes:
        return first is None
    return first == 2 * n and oracle.carries_two_each(lines, oracle.dual_vertices(own))


def check_configuration(config, holds, chains, closes: bool) -> bool:
    lines = [_int_coords(l) for l in config.lines]
    if holds != closes or oracle.is_involution(oracle.pole_product(lines)) != closes:
        return False
    return all(
        chain.closed == closes
        and check_walk(lines, [_param_pair(t) for t in chain.params], closes)
        for chain in chains
    )


def _large_n_workload(pz) -> Workload:
    closure = pz.closure

    def run(op):
        rng = random.Random(op.arg)
        closing = closure.LineConfiguration(closure.generate_closing(LARGE_N, op.arg).lines)
        holds = closure.porism_holds(closing)
        closing_chains = walk_chains(pz, closing, rng)
        opened = closure.LineConfiguration(closure.random_configuration(LARGE_N, op.arg).lines)
        opened_holds = closure.porism_holds(opened)
        opened_chains = walk_chains(pz, opened, rng)
        return (closing, holds, closing_chains), (opened, opened_holds, opened_chains)

    def check(op, out):
        (c1, h1, ch1), (c2, h2, ch2) = out
        return check_configuration(c1, h1, ch1, True) and check_configuration(c2, h2, ch2, False)

    def bits(op, out):
        values = []
        for config, _, chains in out:
            values += [c for l in config.lines for c in l.coords]
            values += [t.value for ch in chains for t in ch.params]
        return coeff_bits(values)

    tries_cache = {}

    def layer_sample(op, out):
        if op.arg not in tries_cache:
            tries_cache[op.arg] = generate_tries(pz, LARGE_N, op.arg)
        return {"closure.generate_tries": tries_cache[op.arg], "closure.generate_calls": 1}

    pool = [[Op("closing+random", k)] for k in range(16)]
    return Workload("porism-large-n", pool, run, check, bits=bits, layer_sample=layer_sample)


def generate_tries(pz, n: int, seed: int) -> int:
    """Candidates generate_closing(n, seed) draws before it accepts one: the
    least max_tries that succeeds (the sampler is deterministic in the seed)."""
    closure, errors = pz.closure, pz.errors

    def succeeds(k):
        try:
            closure.generate_closing(n, seed, max_tries=k)
            return True
        except errors.GenerationExhausted:
            return False

    hi = 1
    while not succeeds(hi):
        hi *= 2
    lo = hi // 2  # fails (or 0)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if succeeds(mid):
            hi = mid
        else:
            lo = mid
    return hi


# ---------------------------------------------------------- primal-backends


def _primal_pool(pz):
    """Bundles of one rational start on line 1 of each closing 6-line
    configuration. Starts are kept outside the conic, off the other lines,
    off the chart's line at infinity, and where the float walk is admissible
    (it cannot take the parameter at infinity). A bundle spans every
    configuration because walk costs differ by configuration: a pool of
    single walks has a multimodal latency whose median jumps between runs."""
    closure, plane, errors = pz.closure, pz.plane, pz.errors
    starts = []
    for k in range(PRIMAL_CONFIGS):
        config = closure.generate_closing(PRIMAL_N, k)
        lines = [_int_coords(l) for l in config.lines]
        rng = random.Random(1000 + k)
        found = []
        while len(found) < PRIMAL_STARTS:
            s = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
            start = plane.point_on_line(config.lines[0], plane.ConicParam(s))
            x0, x1, x2 = _int_coords(start)
            if x1 * x1 - x0 * x2 <= 0 or x0 == 0:
                continue
            if any(oracle.dot(l, (x0, x1, x2)) == 0 for l in lines[1:]):
                continue
            fstart = plane.ProjPoint(*(float(c) for c in start.coords))
            try:
                closure.primal_chain(config, fstart)
            except errors.DegenerateStart:
                continue
            found.append((config, start, fstart))
        starts.append(found)
    return [[Op("bundle", bundle)] for bundle in zip(*starts)]


def check_primal(config, exact, floating) -> bool:
    """The exact walk closes with every edge tangent and every line carrying
    two vertices; the float vertices match the exact ones within FLOAT_TOL."""
    n = config.n
    if not (exact.closed and floating.closed):
        return False
    if len(exact.vertices) != 2 * n + 1 or len(floating.vertices) != 2 * n + 1:
        return False
    coords = [c for v in exact.vertices for c in v.coords]
    d = oracle.field_of(coords) or Fraction(0)
    vs = [tuple(oracle.as_pair(c, d) for c in v.coords) for v in exact.vertices]
    if not oracle.q_proportional(vs[-1], vs[0], d):
        return False
    if not all(oracle.q_tangent(oracle.q_cross(vs[i], vs[i + 1], d), d) for i in range(2 * n)):
        return False
    lines = [tuple(oracle.as_pair(c, d) for c in l.coords) for l in config.lines]
    for line in lines:
        if sum(1 for v in vs[:-1] if oracle.q_is_zero(oracle.q_dot(line, v, d))) != 2:
            return False
    return all(
        oracle.float_close([oracle.q_float(c, d) for c in v], f.coords, FLOAT_TOL)
        for v, f in zip(vs, floating.vertices)
    )


def _primal_workload(pz) -> Workload:
    closure = pz.closure

    def run(op):
        return [
            (closure.primal_chain(config, start), closure.primal_chain(config, fstart))
            for config, start, fstart in op.arg
        ]

    def check(op, out):
        return all(check_primal(arg[0], *walks) for arg, walks in zip(op.arg, out))

    def bits(op, out):
        return coeff_bits(
            [c for exact, _ in out for v in exact.vertices for c in v.coords]
            + [c for config, _, _ in op.arg for l in config.lines for c in l.coords]
        )

    return Workload("primal-backends", _primal_pool(pz), run, check, bits=bits)


# ---------------------------------------------------------------------- cli


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


IMPORT_TIMER = "import time; t = time.perf_counter(); import {}; print(time.perf_counter() - t)"


def spawn(argv, env, out_path: Path, err_path: Path):
    """Run argv to completion with stdout and stderr in files; returns
    (exit code, rusage of the child)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    pid = os.posix_spawn(
        argv[0],
        argv,
        env,
        file_actions=[
            (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o600),
            (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o600),
        ],
    )
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage


def spawn_and_read(argv, env, work: Path) -> tuple[str, float, float]:
    """Run a short child to completion; its stdout, spawn time, exit time."""
    out, err = work / "probe.out", work / "probe.err"
    t0 = time.monotonic()
    code, _ = spawn(argv, env, out, err)
    t1 = time.monotonic()
    if code != 0:
        raise RuntimeError(f"{argv} exited {code}: {err.read_text()}")
    return out.read_text(), t0, t1


def import_split(modules, probes: int, work: Path) -> dict:
    """Median ms, over `probes` fresh interpreters, of importing each module,
    and of a bare interpreter's start to exit (key "startup")."""
    env = cli_env()
    found = {key: [] for key in (*modules, "startup")}
    for _ in range(probes):
        for module in modules:
            text, _, _ = spawn_and_read(
                [sys.executable, "-c", IMPORT_TIMER.format(module)], env, work)
            found[module].append(1000 * float(text))
        _, t0, t1 = spawn_and_read([sys.executable, "-c", "pass"], env, work)
        found["startup"].append(1000 * (t1 - t0))
    return {key: statistics.median(v) for key, v in found.items()}


def cli_script(seed: int, work: Path) -> list:
    scene = str(work / f"scene{seed}.scene")
    svg = str(work / f"scene{seed}.svg")
    return [
        Op("construct", ["construct", str(CLI_N), "--seed", str(seed), "--out", scene]),
        Op("porism_exact", ["porism", scene, "--seed", str(seed)]),
        Op("porism_float", ["porism", scene, "--seed", str(seed), "--backend", "float"]),
        Op("plot", ["plot", scene, "--out", svg]),
        Op("twolines_12", ["twolines", "--mode", "roots", "--n", "12"]),
        Op(
            "twolines_48",
            ["twolines", "--mode", "roots", "--n", "48"],
            known_fault="np.roots misplaces closure values for n >= 32",
        ),
        Op("verify", ["verify", "pascal", "--trials", str(CLI_TRIALS), "--seed", str(seed)]),
    ]


def parse_scene_text(text: str):
    """Integer lines and rational dual chains of a scene file."""
    lines, chains = [], []
    for record in text.splitlines():
        tokens = record.split()
        if tokens and tokens[0] == "line":
            lines.append(oracle.int_vector(Fraction(t) for t in tokens[1:]))
        elif tokens[:2] == ["chain", "dual"]:
            chains.append([oracle.pair(None if t == "inf" else Fraction(t)) for t in tokens[2:]])
    return lines, chains


def check_scene_text(text: str, n: int) -> bool:
    lines, chains = parse_scene_text(text)
    return (
        len(lines) == n
        and bool(chains)
        and oracle.is_involution(oracle.pole_product(lines))
        and all(check_walk(lines, chain, True) for chain in chains)
    )


_VALUE = re.compile(r"^\s+x ([=~]) (\S+) \((exact|irrational)\)$")


def parse_twolines_text(text: str, n: int):
    """The sorted closure values of `twolines --mode roots --n n`, or None
    unless the output is the header and one well-formed row per value
    2cos(k pi/n) expected."""
    rows = text.splitlines()
    if not rows or rows[0] != f"closure parameter values for n={n}:":
        return None
    values = []
    for row in rows[1:]:
        match = _VALUE.match(row)
        try:
            values.append(float(Fraction(match.group(2))))
        except (AttributeError, ValueError, ZeroDivisionError):
            return None
    if len(values) != len(oracle.chebyshev_roots(n)):
        return None
    return sorted(values)


def _twolines_misplaced(values, n: int) -> list:
    return [abs(v - e) > TWOLINES_TOL for v, e in zip(values, oracle.chebyshev_roots(n))]


def check_twolines_text(text: str, n: int) -> bool:
    values = parse_twolines_text(text, n)
    return values is not None and not any(_twolines_misplaced(values, n))


def twolines_values_only_misplaced(text: str, n: int) -> bool:
    """The known `np.roots` fault and nothing else: well-formed output whose
    only flaw is that some values lie more than the tolerance from 2cos(k pi/n)."""
    values = parse_twolines_text(text, n)
    return values is not None and any(_twolines_misplaced(values, n))


def check_porism_text(text: str, backend: str) -> bool:
    return text == (
        "porism_holds=true\n"
        f"chains closed: {CLI_STARTS}/{CLI_STARTS} ({backend} backend)\n"
        "agreement: ok\n"
    )


_VERIFY = re.compile(
    rf"^suite pascal: trials={CLI_TRIALS} failures=0 resamples=\d+ elapsed=\d+\.\d\ds$"
)


def _cli_workload(pz) -> Workload:
    from porism import scene as scene_mod
    from porism import suites, svg

    work = WORK / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    env = cli_env()
    out_path, err_path = work / "stdout", work / "stderr"
    pool = [cli_script(seed, work) for seed in CLI_SCENES]

    def run(op):
        code, usage = spawn(
            [sys.executable, "-m", "porism.cli", *op.arg], env, out_path, err_path
        )
        return code, out_path.read_text(encoding="utf-8"), usage.ru_maxrss

    def check(op, out):
        code, stdout, _ = out
        if code != 0:
            return False
        argv = op.arg
        if op.label == "construct":
            text = Path(argv[-1]).read_text(encoding="utf-8")
            return stdout == f"wrote {CLI_N}-line closing scene to {argv[-1]}\n" and \
                check_scene_text(text, CLI_N)
        if op.label.startswith("porism"):
            return check_porism_text(stdout, "float" if "float" in argv else "exact")
        if op.label == "plot":
            scene_text = Path(argv[1]).read_text(encoding="utf-8")
            again = svg.render_scene(scene_mod.parse(scene_text)).encode("utf-8")
            return stdout == f"wrote figure to {argv[-1]}\n" and \
                Path(argv[-1]).read_bytes() == again
        if op.label.startswith("twolines"):
            return check_twolines_text(stdout, int(argv[-1]))
        if op.label == "verify":
            seed = int(argv[-1])
            generate = suites.SUITES["pascal"].generate
            return bool(_VERIFY.match(stdout.rstrip("\n"))) and all(
                check_pascal_instance(pz, generate(random.Random(suites.trial_seed(seed, i))))
                for i in range(CLI_TRIALS)
            )
        return False

    def known_failure(op, out):
        code, stdout, _ = out
        return code == 0 and op.label.startswith("twolines") and \
            twolines_values_only_misplaced(stdout, int(op.arg[-1]))

    def bits(op, out):
        if op.label != "construct":
            return 0
        lines, chains = parse_scene_text(Path(op.arg[-1]).read_text(encoding="utf-8"))
        return max(max(abs(c).bit_length() for l in lines for c in l),
                   max(abs(c).bit_length() for ch in chains for p in ch for c in p))

    def inproc(op):
        """The same command through main(argv) in this process, writing its
        files beside the subprocess's."""
        from porism import cli

        argv = list(op.arg)
        if "--out" in argv:
            argv[argv.index("--out") + 1] += ".inproc"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def layer_sample(op, out):
        if op.label == "construct":
            return {"scene.bytes": Path(op.arg[-1]).stat().st_size}
        if op.label == "plot":
            return {"svg.bytes": Path(op.arg[-1]).stat().st_size}
        return {}

    return Workload("cli", pool, run, check, bits=bits, known_failure=known_failure,
                    inproc=inproc, layer_sample=layer_sample)


# -------------------------------------------------------------------- setup


class Porism:
    """The program's modules, looked up at call time so that a traced run's
    wrappers are seen."""

    def __init__(self):
        import_porism()
        from porism import closure, errors, plane

        self.closure, self.errors, self.plane = closure, errors, plane


BUILDERS = {
    "suites": _suites_workload,
    "porism-large-n": _large_n_workload,
    "primal-backends": _primal_workload,
    "cli": _cli_workload,
}


def setup(name: str) -> Workload:
    """Import the package (`porism.cli` for cli) and build the fixed inputs."""
    pz = Porism()
    if name == "cli":
        import porism.cli  # noqa: F401  -- the import every cli op pays
    return BUILDERS[name](pz)


if __name__ == "__main__":
    setup(sys.argv[1])
    print(repr(time.monotonic()))
    with contextlib.suppress(OSError):
        (WORK / str(os.getpid())).rmdir()
