"""Command-line workbench: property suites, porism runs, scene tools.

Exit codes: 0 all checks passed, 1 a property check failed, 2 input or
validation error (bad scene, unknown suite, bad arguments).

Each command imports the modules it runs inside its own function: every
invocation starts a fresh interpreter, so `twolines` loads no geometry
module and `construct`, `porism` and `plot` never load the suite runner.
"""
from __future__ import annotations

import argparse
import math
import random
import sys
from fractions import Fraction

from .errors import (
    DegenerateStart,
    FieldInsufficient,
    GenerationExhausted,
    InvalidConfiguration,
    MixedBackend,
    ParseError,
    UnknownSuite,
)

_CHAIN_TRIES = 60
_NO_START = "could not sample an admissible start"
# the roots of P_{n-1} are 2cos(k pi/n), k = 1 .. n-1; by Niven's theorem the
# only rational ones are 0, 1 and -1, at k/n = 1/2, 1/3 and 2/3
_RATIONAL_ROOTS = {Fraction(1, 2): 0, Fraction(1, 3): 1, Fraction(2, 3): -1}


def _dual_walk(config, rng: random.Random):
    """The dual chain of config from a seeded rational start."""
    from .closure import dual_chain
    from .sampling import _random_param

    return dual_chain(config, _random_param(rng, 60, 20))


def cmd_verify(args) -> int:
    from .suites import run_suite

    report = run_suite(args.suite, args.trials, args.seed)
    print(
        f"suite {report.suite}: trials={report.trials} "
        f"failures={len(report.failures)} resamples={report.resamples} "
        f"elapsed={report.elapsed:.2f}s"
    )
    for failure in report.failures:
        print(f"  trial {failure.index} seed {failure.seed}: {failure.instance}")
    return 0 if report.passed else 1


def cmd_porism(args) -> int:
    from .closure import porism_holds, primal_chain
    from .plane import ConicParam, point_on_line
    from .sampling import _redraw
    from .scene import load_scene

    scene = load_scene(args.scene)
    config = scene.configuration()
    holds = porism_holds(config)
    rng = random.Random(args.seed)
    if args.backend == "exact":
        walk, skip = (lambda: _dual_walk(config, rng)), DegenerateStart
    else:
        line = config.as_float().lines[0]

        def walk():
            start = point_on_line(line, ConicParam(rng.uniform(-8.0, 8.0)))
            return primal_chain(config, start)

        skip = (DegenerateStart, FieldInsufficient)
    chains = [_redraw(walk, _CHAIN_TRIES, _NO_START, skip) for _ in range(args.starts)]
    closed = sum(chain.closed for chain in chains)
    agree = closed == (len(chains) if holds else 0)
    print(f"porism_holds={'true' if holds else 'false'}")
    print(f"chains closed: {closed}/{len(chains)} ({args.backend} backend)")
    print(f"agreement: {'ok' if agree else 'MISMATCH'}")
    return 0 if agree else 1


def cmd_construct(args) -> int:
    from .closure import generate_closing
    from .sampling import _redraw
    from .scene import SceneDocument, save_scene

    config = generate_closing(args.n, args.seed)
    rng = random.Random(args.seed)
    chain = _redraw(lambda: _dual_walk(config, rng), _CHAIN_TRIES, _NO_START, DegenerateStart)
    scene = SceneDocument.from_configuration(config, chains=[chain.params])
    save_scene(scene, args.out)
    print(f"wrote {args.n}-line closing scene to {args.out}")
    return 0


def cmd_twolines(args) -> int:
    if args.mode == "check":
        if args.x is None:
            print("error: check mode needs --x", file=sys.stderr)
            return 2
        from .closure import two_line_closure

        try:
            x = Fraction(args.x)
        except ZeroDivisionError:
            print(f"error: --x {args.x} has a zero denominator", file=sys.stderr)
            return 2
        verdict = two_line_closure(x, args.n)
        print(f"closes at n={args.n}: {'true' if verdict else 'false'}")
        return 0
    if args.n < 2:
        print("error: roots mode needs --n >= 2", file=sys.stderr)
        return 2
    print(f"closure parameter values for n={args.n}:")
    for k in range(args.n - 1, 0, -1):  # ascending values
        exact = _RATIONAL_ROOTS.get(Fraction(k, args.n))
        if exact is not None:
            print(f"  x = {exact} (exact)")
        else:
            print(f"  x ~ {2 * math.cos(k * math.pi / args.n):.6f} (irrational)")
    return 0


def cmd_plot(args) -> int:
    from .scene import load_scene
    from .svg import render_scene

    scene = load_scene(args.scene)
    svg = render_scene(scene, samples=args.samples)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)
    print(f"wrote figure to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="porism",
        description="exact projective workbench for conic closure theorems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a seeded property suite")
    p.add_argument("suite", help="two|pascal|aligned|moebius|dual-moebius|dalignes")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("porism", help="test closure of a scene's configuration")
    p.add_argument("scene", help="scene file path")
    p.add_argument("--starts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--backend", choices=("exact", "float"), default="exact")
    p.set_defaults(func=cmd_porism)

    p = sub.add_parser("construct", help="generate a closing configuration scene")
    p.add_argument("n", type=int, help="number of lines, >= 2")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("twolines", help="closure analysis of the two-line system")
    p.add_argument("--mode", choices=("roots", "check"), default="roots")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--x", help="rational closure parameter, check mode only")
    p.set_defaults(func=cmd_twolines)

    p = sub.add_parser("plot", help="render a scene to SVG")
    p.add_argument("scene", help="scene file path")
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=256)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        ParseError,
        UnknownSuite,
        InvalidConfiguration,
        MixedBackend,
        OSError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GenerationExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
