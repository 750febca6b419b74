"""The canonical smooth conic x0*x2 = x1^2 and its parameter calculus.

Everything here is specialized to the one hard-coded conic: its rational
parametrization t -> (1 : t : t^2) with infinity at (0 : 0 : 1), chords,
tangents, the pole/polar correspondence of the symmetric form
Q = [[0,0,-1],[0,2,0],[-1,0,0]], and line-conic intersection in parameter
space. Arbitrary smooth conics are reached by transporting configurations
through a projectivity, never by generalizing these formulas.
"""
from __future__ import annotations

from .errors import EqualParameters, NotIncident, PointOnConic
from .fields import FLOAT_TOL
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


def chord(s: ConicParam, t: ConicParam) -> ProjLine:
    """The line through veronese(s) and veronese(t): (st : -(s+t) : 1)."""
    if s == t:
        raise EqualParameters(f"chord needs distinct parameters, got {s!r} twice")
    u1, v1 = s.pair()
    u2, v2 = t.pair()
    return _triple(ProjLine, (u1 * u2, -(u1 * v2 + u2 * v1), v1 * v2))


def tangent_at(t: ConicParam) -> ProjLine:
    """The tangent line at veronese(t): (t^2 : -2t : 1)."""
    u, v = t.pair()
    return _triple(ProjLine, (u * u, -2 * u * v, v * v))


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

    It never leaves the field of the inputs, unlike tangents_from, which may
    need a square root.
    """
    tangent = tangent_at(t_in)
    if p.kind == "float" and tangent.kind == "exact" and tangent._pairs is None:
        # a float quadratic's root at infinity is the exact INFINITY
        tangent = ProjLine(*(float(c) for c in tangent.coords))
    if not incident(tangent, p):
        raise NotIncident(f"tangent at {t_in!r} does not pass through {p!r}")
    x0, x1, x2 = p.coords
    a, b, c = x0, -2 * x1, x2  # the quadratic a u^2 + b uv + c v^2 in (u : v)
    u, v = t_in.pair()
    if isinstance(u, float):  # the affine root -b/a - t, infinity when a = 0
        return INFINITY if a == 0 else ConicParam(-b / a - u)
    if v:  # the pair (-(b v + a u) : a v), or (c u : -(b u + c v)) at v = 0
        return ConicParam._from_pair(-(b * v + a * u), a * v)
    return ConicParam._from_pair(c * u, -(b * u + c * v))
