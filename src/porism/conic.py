"""The canonical smooth conic x0*x2 = x1^2 and its parameter calculus.

Everything here is specialized to the one hard-coded conic: its rational
parametrization t -> (1 : t : t^2) with infinity at (0 : 0 : 1), chords,
tangents, the pole/polar correspondence of the symmetric form
Q = [[0,0,-1],[0,2,0],[-1,0,0]], and line-conic intersection in parameter
space. Arbitrary smooth conics are reached by transporting configurations
through a projectivity, never by generalizing these formulas.
"""
from __future__ import annotations

from .errors import EqualParameters, NotIncident, NotOnConic, PointOnConic
from .fields import FLOAT_TOL, _quotient
from .plane import (
    INFINITY,
    ConicParam,
    ParamRoots,
    ProjLine,
    ProjPoint,
    _pairs_quadric_zero,
    _quadratic_params,
    _triple,
    incident,
)


def conic_form(p: ProjPoint):
    """The defining form x0*x2 - x1^2 evaluated on canonical coordinates."""
    x0, x1, x2 = p.coords
    return x0 * x2 - x1 * x1


def on_conic(p: ProjPoint) -> bool:
    """Whether p satisfies x0*x2 = x1^2 (exact, or within 3 FLOAT_TOL for
    floats)."""
    if p._pairs is not None:
        return _pairs_quadric_zero(p, 1)
    value = conic_form(p)
    if p.kind == "exact":
        return value == 0
    return abs(value) <= FLOAT_TOL * 3


def tangency_discriminant(l: ProjLine):
    """l1^2 - 4 l0 l2, the discriminant of the parameter quadratic
    l2 t^2 + l1 t + l0 whose roots are where l meets the conic."""
    l0, l1, l2 = l.coords
    return l1 * l1 - 4 * l0 * l2


def is_tangent(l: ProjLine) -> bool:
    """Whether l touches the conic: a zero tangency discriminant (exact, or
    within 10 FLOAT_TOL for floats, whose coordinates have max-norm 1)."""
    if l._pairs is not None:
        return _pairs_quadric_zero(l, 4)
    disc = tangency_discriminant(l)
    if l.kind == "exact":
        return disc == 0
    return abs(disc) <= FLOAT_TOL * 10


def veronese(t: ConicParam) -> ProjPoint:
    """The parametrization point (1 : t : t^2); infinity maps to (0 : 0 : 1).

    A rational t is a coprime pair (u, v) with v >= 0, so (v^2, uv, u^2) is
    primitive with a positive lead and skips _normalize."""
    u, v = t.pair()
    if type(u) is int:
        return ProjPoint._from_primitive((v * v, u * v, u * u))
    return ProjPoint(v * v, u * v, u * u)


def parameter_of(p: ProjPoint) -> ConicParam:
    """Inverse of veronese on the conic."""
    if not on_conic(p):
        raise NotOnConic(f"{p!r} is not on the conic")
    x0, x1, _ = p.coords
    at_infinity = x0 == 0 if p.kind == "exact" else abs(x0) <= FLOAT_TOL
    if at_infinity:
        return INFINITY
    return ConicParam(_quotient(x1, x0))


def chord(s: ConicParam, t: ConicParam) -> ProjLine:
    """The line through veronese(s) and veronese(t): (st : -(s+t) : 1)."""
    if s == t:
        raise EqualParameters(f"chord needs distinct parameters, got {s!r} twice")
    u1, v1 = s.pair()
    u2, v2 = t.pair()
    return ProjLine(u1 * u2, -(u1 * v2 + u2 * v1), v1 * v2)


def tangent_at(t: ConicParam) -> ProjLine:
    """The tangent line at veronese(t): (t^2 : -2t : 1)."""
    u, v = t.pair()
    return ProjLine(u * u, -2 * u * v, v * v)


def polar(p: ProjPoint) -> ProjLine:
    """The polar line Q.p = (-x2 : 2 x1 : -x0)."""
    x0, x1, x2 = p.coords
    return _triple(ProjLine, (-x2, 2 * x1, -x0))


def pole(l: ProjLine) -> ProjPoint:
    """The pole of a line; inverse of polar."""
    l0, l1, l2 = l.coords
    return _triple(ProjPoint, (2 * l2, -l1, 2 * l0))


def line_conic_params(l: ProjLine) -> ParamRoots:
    """Parameters where l meets the conic: roots of l2 t^2 + l1 t + l0 = 0.

    A double root signals tangency; two roots in Q(sqrt(disc)) appear when the
    discriminant is a rational non-square; no roots are reported when the
    scalar field cannot express them (float backend with negative disc).
    """
    l0, l1, l2 = l.coords
    return _quadratic_params(l2, l1, l0)


def _other_root(a, b, c, t: ConicParam) -> ConicParam:
    """Given a root t of a u^2 + b uv + c v^2, the other one, via Vieta on
    the pair (u : v) of t: (-(b v + a u) : a v), or (c u : -(b u + c v))
    at v = 0. A float root keeps the affine -b/a - t, infinity when a = 0."""
    u, v = t.pair()
    if isinstance(u, float):
        return INFINITY if a == 0 else ConicParam(-b / a - u)
    if v:
        return ConicParam._from_pair(-(b * v + a * u), a * v)
    return ConicParam._from_pair(c * u, -(b * u + c * v))


def _float_image(x, kind: str):
    """x, or the float image of a rational x when kind is float: a float
    quadratic's root at infinity is the exact INFINITY, whose point and
    tangent are exact."""
    if kind == "float" and x.kind == "exact" and x._pairs is None:
        return type(x)(*(float(c) for c in x.coords))
    return x


def second_intersection(l: ProjLine, s: ConicParam) -> ConicParam:
    """The other parameter of l on the conic, via Vieta; equals s iff tangent.

    Stays inside the field generated by l and s, so chains that start in one
    quadratic extension never need a second one.
    """
    if not incident(l, _float_image(veronese(s), l.kind)):
        raise NotIncident(f"{s!r} is not an intersection parameter of {l!r}")
    l0, l1, l2 = l.coords
    return _other_root(l2, l1, l0, s)


def tangents_from(p: ProjPoint) -> ParamRoots:
    """Tangency parameters of the tangent lines through p, off the conic.

    Roots of p0 t^2 - 2 p1 t + p2 = 0; agrees with line_conic_params(polar(p)).
    """
    if on_conic(p):
        raise PointOnConic(f"{p!r} lies on the conic; tangency is not a pair")
    x0, x1, x2 = p.coords
    return _quadratic_params(x0, -2 * x1, x2)


def other_tangent_param(p: ProjPoint, t_in: ConicParam) -> ConicParam:
    """Given that tangent_at(t_in) passes through p, the other tangency
    parameter from p, via Vieta on p0 t^2 - 2 p1 t + p2 = 0.

    This is the workhorse of primal chains: it never leaves the field of the
    inputs, unlike tangents_from which may need a square root.
    """
    if not incident(_float_image(tangent_at(t_in), p.kind), p):
        raise NotIncident(f"tangent at {t_in!r} does not pass through {p!r}")
    x0, x1, x2 = p.coords
    return _other_root(x0, -2 * x1, x2, t_in)
