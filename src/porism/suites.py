"""Seeded property suites over random exact instances.

Each suite splits into a generator (rng -> instance, redrawn by
sampling._redraw until the instance is degeneracy-free) and a pure check
(instance -> bool).
A trial failure records the per-trial seed, and replaying that seed alone
rebuilds the identical instance and verdict, so failures travel well.

The per-trial seed derivation is fixed: trial k of master seed s uses
(s + (k + 1) * 0x9E3779B97F4A7C15) mod 2^64.
"""
from __future__ import annotations

import random
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Callable, Optional, Union

from .algebra import det3
from .closure import concurrent_tangent_chain
from .conic import is_tangent, on_conic
from .errors import (
    CenterOnConic,
    DegeneratePolygon,
    DegenerateStart,
    GenerationExhausted,
    UnknownSuite,
)
from .involution import (
    InvolutionChain,
    aligned_centers_involutive,
    center_of,
    closing_center_locus,
    dual_moebius_check,
    fregier,
    harmonic_product_test,
    involution_from_fixed,
    moebius_check,
    pascal_line,
    share_fixed_point,
)
from .plane import (
    ConicParam,
    ProjLine,
    ProjPoint,
    _points_on_line,
    cross_ratio,
    fixed_points,
    incident,
    join,
    point_on_line,
)
from .sampling import _random_param, _random_point, _redraw

GOLDEN = 0x9E3779B97F4A7C15
MAX_RESAMPLES = 200
SPAN = 12  # numerators in [-SPAN, SPAN], denominators in [1, SPAN]


def trial_seed(seed: int, index: int) -> int:
    return (seed + (index + 1) * GOLDEN) % (1 << 64)


@dataclass
class ResampleTally:
    """Mutable count of degenerate candidates a generator threw away."""

    resamples: int = 0


def _distinct_params(rng: random.Random, count: int) -> list:
    drawn = {}
    for _ in range(50 * count):
        drawn[_random_param(rng, SPAN)] = None
        if len(drawn) == count:
            return list(drawn)
    raise GenerationExhausted("cannot sample distinct parameters")


def _random_secant_line(rng: random.Random) -> ProjLine:
    while True:
        p = _random_point(rng, SPAN)
        q = _random_point(rng, SPAN)
        if p != q:
            return join(p, q)


# ---------------------------------------------------------------- suite: two


@dataclass(frozen=True)
class TwoInvolutionInstance:
    """Direction (a): pair_a and pair_b are harmonic fixed-point pairs.
    Direction (b): a center sampled on the closing locus of the pair_a
    involution, addressed by its parameter on that line."""

    pair_a: tuple[ConicParam, ConicParam]
    pair_b: tuple[ConicParam, ConicParam]
    locus_param: ConicParam


def _harmonic_fourth(a: Fraction, b: Fraction, c: Fraction) -> Optional[Fraction]:
    """d with cross-ratio (a, b; c, d) = -1, or None when degenerate."""
    den = a + b - 2 * c
    if den == 0:
        return None
    return (b * (a - c) + a * (b - c)) / den


def make_two_instance(
    rng: random.Random, tally: Optional[ResampleTally] = None
) -> TwoInvolutionInstance:
    def draw():
        t1, t2, t3 = (t.value for t in _distinct_params(rng, 3))
        t4 = _harmonic_fourth(t1, t2, t3)
        if t4 is None or t4 in (t1, t2, t3):
            return None
        pair_a = (ConicParam(t1), ConicParam(t2))
        pair_b = (ConicParam(t3), ConicParam(t4))
        u = involution_from_fixed(*pair_a)
        locus = closing_center_locus(InvolutionChain([u]))
        s = _random_param(rng, SPAN)
        center = point_on_line(locus, s)
        if on_conic(center) or share_fixed_point(u, fregier(center)):
            return None
        return TwoInvolutionInstance(pair_a, pair_b, s)

    return _redraw(draw, MAX_RESAMPLES, "two-involution sampling kept degenerating", tally=tally)


def check_two(instance: TwoInvolutionInstance) -> bool:
    u = involution_from_fixed(*instance.pair_a)
    v = involution_from_fixed(*instance.pair_b)
    # (a) harmonic pairs must compose to an involution, exactly
    if cross_ratio(*instance.pair_a, *instance.pair_b) != Fraction(-1):
        return False
    if not harmonic_product_test(u, v):
        return False
    # (b) a locus-sampled partner must have harmonic fixed points, exactly
    locus = closing_center_locus(InvolutionChain([u]))
    center = point_on_line(locus, instance.locus_param)
    w = fregier(center)
    roots = fixed_points(w.map)
    if len(roots.params) != 2:
        return False
    cr = cross_ratio(*instance.pair_a, roots.params[0], roots.params[1])
    return cr == Fraction(-1)


# ------------------------------------------------------------- suite: pascal


@dataclass(frozen=True)
class PascalInstance:
    params: tuple[ConicParam, ...]


def make_pascal_instance(
    rng: random.Random, tally: Optional[ResampleTally] = None
) -> PascalInstance:
    return PascalInstance(tuple(_distinct_params(rng, 6)))


def check_pascal(instance: PascalInstance) -> bool:
    points, verdict = pascal_line(*instance.params)
    if not verdict:
        return False
    # independent oracle: the exact 3x3 determinant of the meets
    a, b, c = points
    return det3(a.coords, b.coords, c.coords) == 0


# ------------------------------------------------------------ suite: aligned


@dataclass(frozen=True)
class AlignedInstance:
    line: ProjLine
    center_params: tuple[ConicParam, ...]


def make_aligned_instance(
    rng: random.Random,
    length: Optional[int] = None,
    tally: Optional[ResampleTally] = None,
) -> AlignedInstance:
    def draw():
        k = length if length is not None else rng.choice((3, 5, 7))
        line = _random_secant_line(rng)
        params = _distinct_params(rng, k)
        if any(map(on_conic, _points_on_line(line, params))):
            return None
        return AlignedInstance(line, tuple(params))

    return _redraw(draw, MAX_RESAMPLES, "aligned-center sampling kept degenerating", tally=tally)


def _aligned_chain(instance: AlignedInstance) -> InvolutionChain:
    centers = _points_on_line(instance.line, instance.center_params)
    return InvolutionChain([fregier(c) for c in centers])


def check_aligned(instance: AlignedInstance) -> bool:
    chain = _aligned_chain(instance)
    if not aligned_centers_involutive(chain):
        return False
    # the composite is again centered on the same line
    return incident(instance.line, center_of(chain.product))


# ------------------------------------------------------------ suite: moebius


@dataclass(frozen=True)
class MoebiusInstance:
    """Two seed parameters pushed through n - 1 involutions with collinear
    centers; the cross-chord points a_1 .. a_{n-1} then land on the line."""

    n: int
    line: ProjLine
    center_params: tuple[ConicParam, ...]
    seeds: tuple[ConicParam, ConicParam]


def _moebius_polygons(centers, seeds) -> tuple[list, list]:
    """The two polygons pushed from the seeds through the involutions at
    the centers."""
    xs = [seeds[0]]
    ys = [seeds[1]]
    for inv in map(fregier, centers):
        xs.append(inv(xs[-1]))
        ys.append(inv(ys[-1]))
    return xs, ys


def make_moebius_instance(
    rng: random.Random,
    n: Optional[int] = None,
    tally: Optional[ResampleTally] = None,
) -> MoebiusInstance:
    def draw():
        size = n if n is not None else rng.choice((3, 4, 5, 6))
        line = _random_secant_line(rng)
        params = _distinct_params(rng, size - 1)
        centers = _points_on_line(line, params)
        if any(map(on_conic, centers)):
            return None
        seeds = _distinct_params(rng, 2)
        xs, ys = _moebius_polygons(centers, seeds)
        if len(set(xs + ys)) != 2 * size:
            return None
        # the dual check runs moebius_check(xs, ys) too; a degenerate pair raises
        dual_moebius_check(tuple(xs) + tuple(ys))
        return MoebiusInstance(size, line, tuple(params), tuple(seeds))

    return _redraw(draw, MAX_RESAMPLES, "inscribed-polygon sampling kept degenerating",
                   (CenterOnConic, DegeneratePolygon), tally)


def check_moebius(instance: MoebiusInstance) -> bool:
    centers = _points_on_line(instance.line, instance.center_params)
    xs, ys = _moebius_polygons(centers, instance.seeds)
    report = moebius_check(xs, ys)
    if not (report.hypothesis_met and report.conclusion):
        return False
    # generator invariant: the first n - 1 points are the centers themselves
    if any(report.points[j] != centers[j] for j in range(instance.n - 1)):
        return False
    return incident(instance.line, report.points[-1])


# ------------------------------------------------------- suite: dual-moebius


def check_dual_moebius(instance: MoebiusInstance) -> bool:
    centers = _points_on_line(instance.line, instance.center_params)
    xs, ys = _moebius_polygons(centers, instance.seeds)
    report = dual_moebius_check(tuple(xs) + tuple(ys))
    return bool(
        report.hypothesis_met and report.conclusion and report.agrees_with_primal
    )


# ----------------------------------------------------------- suite: dalignes


@dataclass(frozen=True)
class DalignesInstance:
    lines: tuple[ProjLine, ...]
    start: ProjPoint


def make_dalignes_instance(
    rng: random.Random,
    count: Optional[int] = None,
    tally: Optional[ResampleTally] = None,
) -> DalignesInstance:
    def draw():
        m = count if count is not None else rng.choice((3, 5))
        apex = _random_point(rng, SPAN)
        pencil = {}  # an ordered set
        for _ in range(50 * m):
            other = _random_point(rng, SPAN)
            if other != apex and not is_tangent(l := join(apex, other)):
                pencil[l] = None
                if len(pencil) == m:
                    break
        else:
            return None
        lines = tuple(pencil)
        start = point_on_line(lines[0], _random_param(rng, SPAN))
        if on_conic(start) or any(incident(l, start) for l in lines[1:]):
            return None
        concurrent_tangent_chain(lines, start)  # DegenerateStart is a rejection
        return DalignesInstance(lines, start)

    return _redraw(draw, MAX_RESAMPLES, "concurrent-pencil sampling kept degenerating",
                   DegenerateStart, tally)


def check_dalignes(instance: DalignesInstance) -> bool:
    closure = concurrent_tangent_chain(instance.lines, instance.start)
    return closure.closing_tangent and closure.discriminant == 0


# ------------------------------------------------------------------- runner


@dataclass(frozen=True)
class Suite:
    name: str
    description: str
    generate: Callable[..., Any]
    check: Callable[[Any], bool]

    def broken(self, check: Callable[[Any], bool]) -> "Suite":
        """A copy with a different oracle, for mutation testing."""
        return replace(self, check=check)


SUITES: dict[str, Suite] = {
    "two": Suite(
        "two",
        "products of two involutions: harmonic pairs <-> involutive product",
        make_two_instance,
        check_two,
    ),
    "pascal": Suite(
        "pascal",
        "hexagon cross-chord points are exactly collinear",
        make_pascal_instance,
        check_pascal,
    ),
    "aligned": Suite(
        "aligned",
        "odd products over collinear centers are involutions on the same line",
        make_aligned_instance,
        check_aligned,
    ),
    "moebius": Suite(
        "moebius",
        "inscribed polygon pairs: n-th cross point joins the collinear n-1",
        make_moebius_instance,
        check_moebius,
    ),
    "dual-moebius": Suite(
        "dual-moebius",
        "circumscribed polygon diagonals concur, agreeing with the polar check",
        make_moebius_instance,
        check_dual_moebius,
    ),
    "dalignes": Suite(
        "dalignes",
        "odd concurrent pencils close with a tangent line",
        make_dalignes_instance,
        check_dalignes,
    ),
}


@dataclass(frozen=True)
class TrialFailure:
    index: int
    seed: int
    instance: str


@dataclass(frozen=True)
class TrialReport:
    suite: str
    trials: int
    failures: tuple[TrialFailure, ...]
    resamples: int
    elapsed: float

    @property
    def passed(self) -> bool:
        return not self.failures


def resolve_suite(suite: Union[str, Suite]) -> Suite:
    if isinstance(suite, Suite):
        return suite
    try:
        return SUITES[suite]
    except KeyError:
        raise UnknownSuite(
            f"unknown suite {suite!r}; available: {', '.join(sorted(SUITES))}"
        ) from None


def run_trial(
    suite: Union[str, Suite], seed: int, tally: Optional[ResampleTally] = None
) -> tuple[Any, bool]:
    """Rebuild one trial from its recorded per-trial seed."""
    resolved = resolve_suite(suite)
    rng = random.Random(seed)
    instance = resolved.generate(rng, tally=tally)
    return instance, resolved.check(instance)


def run_suite(suite: Union[str, Suite], trials: int, seed: int) -> TrialReport:
    """Run the seeded trials in index order, sharing one resample tally.

    Each trial depends only on its own derived seed, so a recorded failure
    replays from that seed alone.
    """
    resolved = resolve_suite(suite)
    if trials < 1:
        raise ValueError("need at least one trial")
    started = time.perf_counter()
    tally = ResampleTally()
    failures = []
    for index in range(trials):
        tseed = trial_seed(seed, index)
        instance, ok = run_trial(resolved, tseed, tally)
        if not ok:
            failures.append(TrialFailure(index, tseed, repr(instance)))
    elapsed = time.perf_counter() - started
    return TrialReport(resolved.name, trials, tuple(failures), tally.resamples, elapsed)
