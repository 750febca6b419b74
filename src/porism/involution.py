"""Involutions of the conic with a center, and the theorems they satisfy.

An involution with center c = (c0 : c1 : c2) off the conic swaps the two
intersections of every chord through c; on parameters it is the trace-zero
map [[c1, -c2], [c0, -c1]]. This module builds those maps, composes chains
of them, and checks the classical statements: the harmonicity criterion for
a product of two, collinearity criteria for products of three or more,
Pascal's theorem, and the n-gon collinearity theorem with its tangent-line
dual.
"""
from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .algebra import Mat2
from .conic import chord, pole, tangent_at
from .errors import (
    CoincidentLines,
    CoincidentPoints,
    DegenerateConstruction,
    DegenerateHexagon,
    DegeneratePolygon,
    CenterOnConic,
    EqualParameters,
    IdentityMap,
    NotInvolution,
    SharedFixedPoint,
)
from .plane import (
    ConicParam,
    MobiusMap,
    ProjLine,
    ProjPoint,
    _fixed_point_quadratic,
    _repeats,
    collinear,
    concurrent,
    is_involution,
    join,
    meet,
    mobius_apply,
    mobius_compose,
)


class FregierInvolution(NamedTuple):
    """A conic involution together with the center realizing it."""

    center: ProjPoint
    map: MobiusMap

    def __call__(self, t: ConicParam) -> ConicParam:
        return mobius_apply(self.map, t)


def fregier(center: ProjPoint) -> FregierInvolution:
    """The involution with the given center: s and fregier(s) span a chord
    through the center. Matrix [[c1, -c2], [c0, -c1]].

    A rational center is primitive, so off the conic this matrix is
    primitive and nonsingular already; it only takes a positive lead."""
    c0, c1, c2 = center.coords
    if c0 * c2 == c1 * c1:
        raise CenterOnConic(f"{center!r} lies on the conic")
    if center.kind == "exact" and center._pairs is None:
        if (c1 or -c2) < 0:  # c0 > 0 leads when c1 = c2 = 0
            c0, c1, c2 = -c0, -c1, -c2
        return FregierInvolution(center, MobiusMap._from_canonical(Mat2(c1, -c2, c0, -c1)))
    return FregierInvolution(center, MobiusMap(c1, -c2, c0, -c1))


def center_of(g: MobiusMap) -> ProjPoint:
    """The center of an involution [[a, b], [c, -a]]: the point (c : a : -b)."""
    if not is_involution(g):
        raise NotInvolution(f"{g!r} has nonzero trace or is the identity")
    m = g.mat
    return ProjPoint(m.c, m.a, -m.b)


def involution_from_fixed(t1: ConicParam, t2: ConicParam) -> FregierInvolution:
    """The unique involution fixing two distinct parameters; its center is the
    meet of the tangents there."""
    if t1 == t2:
        raise EqualParameters(f"fixed points must be distinct, got {t1!r} twice")
    return fregier(meet(tangent_at(t1), tangent_at(t2)))


def share_fixed_point(u: FregierInvolution, v: FregierInvolution) -> bool:
    """Whether the two involutions fix a common parameter, decided by the
    resultant of their fixed-point quadratics (no square roots needed)."""
    a1, b1, c1 = _fixed_point_quadratic(u.map)
    a2, b2, c2 = _fixed_point_quadratic(v.map)
    r = a1 * c2 - a2 * c1
    return r * r == (a1 * b2 - a2 * b1) * (b1 * c2 - b2 * c1)


def harmonic_product_test(u: FregierInvolution, v: FregierInvolution) -> bool:
    """Whether uv is again an involution, which happens exactly when the two
    fixed-point pairs divide the conic harmonically."""
    if share_fixed_point(u, v):
        raise SharedFixedPoint("fixed-point sets are not disjoint")
    return is_involution(mobius_compose(u.map, v.map))


class InvolutionChain:
    """An ordered chain of involutions with its right-to-left product.

    product applies members[0] first, then members[1], and so on: the matrix
    is M_k ... M_1.
    """

    __slots__ = ("members", "_product")

    def __init__(self, members: Sequence[FregierInvolution]):
        members = tuple(members)
        if not members:
            raise ValueError("empty chain")
        self.members = members
        self._product: Optional[MobiusMap] = None

    @property
    def product(self) -> MobiusMap:
        if self._product is None:
            a, b, c, d = self.members[0].map.mat.entries()
            for f in self.members[1:]:
                p, q, r, s = f.map.mat.entries()
                a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d
            self._product = MobiusMap(a, b, c, d)
        return self._product

    @property
    def centers(self) -> tuple[ProjPoint, ...]:
        return tuple(f.center for f in self.members)

    def __len__(self):
        return len(self.members)

    def extended(self, f: FregierInvolution) -> "InvolutionChain":
        """The chain with f appended."""
        return InvolutionChain(self.members + (f,))


def aligned_centers_involutive(chain: InvolutionChain) -> bool:
    """Whether an odd-length chain composes to an involution.

    When the centers are collinear this is guaranteed; in general it just
    reports is_involution of the product.
    """
    if len(chain) % 2 == 0:
        raise ValueError("aligned-centers test needs an odd-length chain")
    centers = chain.centers
    if len(set(centers)) != len(centers):
        raise ValueError("centers must be pairwise distinct")
    return is_involution(chain.product)


def pascal_line(
    p1: ConicParam,
    p2: ConicParam,
    p3: ConicParam,
    q3: ConicParam,
    q2: ConicParam,
    q1: ConicParam,
) -> tuple[tuple[ProjPoint, ProjPoint, ProjPoint], bool]:
    """Pascal's theorem for the hexagon p1 q2 p3 q1 p2 q3.

    Returns the three cross-chord meets x12, x13, x23, where
    xij = chord(pi, qj) ^ chord(pj, qi), and whether they are collinear.
    The bool is always true on valid input; returning it keeps the check
    honest instead of assuming the theorem.
    """
    repeated = _repeats((p1, p2, p3, q3, q2, q1))
    if repeated:
        raise DegenerateHexagon(f"repeated parameter {repeated[0]!r}")
    ps = (p1, p2, p3)
    qs = (q1, q2, q3)
    try:
        points = tuple(
            meet(chord(ps[i], qs[j]), chord(ps[j], qs[i]))
            for (i, j) in ((0, 1), (0, 2), (1, 2))
        )
    except (EqualParameters, CoincidentLines) as exc:
        raise DegenerateHexagon(str(exc)) from exc
    return points, collinear(points)


class MoebiusReport(NamedTuple):
    """Outcome of the inscribed-polygon collinearity check.

    points are a_1 .. a_n; hypothesis_met says whether a_1 .. a_{n-1} are
    collinear (vacuously true at n = 3); conclusion is whether a_n joins them
    on the same line, or None when the hypothesis failed.
    """

    points: tuple[ProjPoint, ...]
    hypothesis_met: bool
    conclusion: Optional[bool]


def moebius_check(xs: Sequence[ConicParam], ys: Sequence[ConicParam]) -> MoebiusReport:
    """Collinearity theorem for two n-gons inscribed in the conic.

    a_j = chord(x_j, x_{j+1}) ^ chord(y_j, y_{j+1}) for j < n; the last point
    pairs across the two polygons: (x_n y_1) ^ (y_n x_1) for odd n,
    (x_n x_1) ^ (y_n y_1) for even n. If a_1 .. a_{n-1} are collinear, the
    theorem puts a_n on the same line.
    """
    xs = tuple(xs)
    ys = tuple(ys)
    n = len(xs)
    if n < 3 or len(ys) != n:
        raise ValueError("need two parameter lists of equal length n >= 3")
    repeated = _repeats(xs + ys)
    if repeated:
        raise DegenerateConstruction(f"repeated parameter {repeated[0]!r}")
    try:
        points = [
            meet(chord(xs[j], xs[j + 1]), chord(ys[j], ys[j + 1]))
            for j in range(n - 1)
        ]
        if n % 2 == 1:
            last = meet(chord(xs[n - 1], ys[0]), chord(ys[n - 1], xs[0]))
        else:
            last = meet(chord(xs[n - 1], xs[0]), chord(ys[n - 1], ys[0]))
        points.append(last)
    except (EqualParameters, CoincidentLines) as exc:
        raise DegenerateConstruction(str(exc)) from exc
    points = tuple(points)
    hypothesis = n == 3 or collinear(points[: n - 1])
    return MoebiusReport(points, hypothesis, collinear(points) if hypothesis else None)


class DualMoebiusReport(NamedTuple):
    """Outcome of the circumscribed-polygon concurrency check, with the
    transported inscribed-polygon verdict it must agree with."""

    diagonals: tuple[ProjLine, ...]
    hypothesis_met: bool
    conclusion: Optional[bool]
    primal: MoebiusReport

    @property
    def agrees_with_primal(self) -> bool:
        if len(self.diagonals) != len(self.primal.points):
            return False
        pole_match = all(
            pole(d) == a for d, a in zip(self.diagonals, self.primal.points)
        )
        return (
            pole_match
            and self.hypothesis_met == self.primal.hypothesis_met
            and self.conclusion == self.primal.conclusion
        )


def dual_moebius_check(ts: Sequence[ConicParam]) -> DualMoebiusReport:
    """Concurrency theorem for a 2n-gon circumscribed about the conic.

    The tangents at t_1 .. t_{2n} form a polygon with vertices
    W_i = tangent_i ^ tangent_{i+1} (cyclically). Main diagonals are
    join(W_j, W_{j+n}) for j < n; the last diagonal pairs across as in the
    inscribed version: join(W_n, W_{2n}) for odd n, and for even n the join
    of tangent_n ^ tangent_1 with tangent_{2n} ^ tangent_{n+1}. If n - 1
    diagonals are concurrent, so is the last.

    Implemented alongside the polar transport: each diagonal is the polar of
    the corresponding inscribed-check point, and the report carries both
    verdicts for the agreement test.
    """
    ts = tuple(ts)
    if len(ts) < 6 or len(ts) % 2 != 0:
        raise ValueError("need an even number of parameters, at least 6")
    n = len(ts) // 2
    try:
        primal = moebius_check(ts[:n], ts[n:])
    except DegenerateConstruction as exc:
        raise DegeneratePolygon(str(exc)) from exc
    tangents = [tangent_at(t) for t in ts]
    try:
        vertices = [
            meet(tangents[i], tangents[(i + 1) % (2 * n)]) for i in range(2 * n)
        ]
        diagonals = [join(vertices[j], vertices[j + n]) for j in range(n - 1)]
        if n % 2 == 1:
            diagonals.append(join(vertices[n - 1], vertices[2 * n - 1]))
        else:
            w_a = meet(tangents[n - 1], tangents[0])
            w_b = meet(tangents[2 * n - 1], tangents[n])
            diagonals.append(join(w_a, w_b))
    except (CoincidentLines, CoincidentPoints) as exc:
        raise DegeneratePolygon(str(exc)) from exc
    diagonals = tuple(diagonals)
    hypothesis = n == 3 or concurrent(diagonals[: n - 1])
    conclusion = concurrent(diagonals) if hypothesis else None
    return DualMoebiusReport(diagonals, hypothesis, conclusion, primal)


def closing_center_locus(chain: InvolutionChain) -> ProjLine:
    """The line of centers c for which appending the involution at c makes the
    chain's product an involution.

    trace(M_c . w) = c0 w_b + c1 (w_a - w_d) - c2 w_c is linear in c, so the
    locus is the line (w_b : w_a - w_d : -w_c).
    """
    w = chain.product
    if w.is_identity_class():
        raise IdentityMap("every center closes an identity product")
    m = w.mat
    return ProjLine(m.b, m.a - m.d, -m.c)
