"""Canonical conic: parametrization, chords, tangents, duality, intersections."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from porism.conic import (
    chord,
    conic_form,
    is_tangent,
    line_conic_params,
    on_conic,
    other_tangent_param,
    polar,
    pole,
    tangency_discriminant,
    tangent_at,
    tangents_from,
    veronese,
)
from porism.errors import (
    EqualParameters,
    NotIncident,
    PointOnConic,
)
from porism.fields import QuadExt, sqrt_scalar
from porism.plane import (
    INFINITY,
    ConicParam,
    MobiusMap,
    ParamRoots,
    ProjLine,
    ProjPoint,
    cross_ratio,
    fixed_points,
    incident,
    mobius_apply,
)

fractions = st.fractions(min_value=-30, max_value=30, max_denominator=8)
params = st.builds(ConicParam, fractions)
all_params = st.one_of(params, st.just(INFINITY))


def test_veronese_frozen():
    assert veronese(ConicParam(Fraction(0))) == ProjPoint(1, 0, 0)
    assert veronese(ConicParam(Fraction(2))) == ProjPoint(1, 2, 4)
    assert veronese(INFINITY) == ProjPoint(0, 0, 1)


@given(all_params)
def test_veronese_lands_on_conic(t):
    assert on_conic(veronese(t))


@given(st.one_of(st.builds(ConicParam, st.fractions()), st.just(INFINITY)))
def test_veronese_of_a_rational_parameter_is_the_normalized_point(t):
    # a rational parameter skips _normalize; the point must be the one it gives
    u, v = t.pair()
    point, normalized = veronese(t), ProjPoint(v * v, u * v, u * u)
    assert point == normalized and hash(point) == hash(normalized)
    assert (point._coords, point._pairs, point._D, point.kind) == (
        normalized._coords, normalized._pairs, normalized._D, normalized.kind
    )


def test_on_conic_frozen():
    assert on_conic(ProjPoint(1, 3, 9))
    assert not on_conic(ProjPoint(0, 1, 0))
    assert on_conic(ProjPoint(0, 0, 1))
    assert conic_form(ProjPoint(1, 1, 2)) == 1


def test_chord_frozen():
    assert chord(ConicParam(Fraction(1)), ConicParam(Fraction(2))) == ProjLine(2, -3, 1)
    assert chord(ConicParam(Fraction(0)), INFINITY) == ProjLine(0, 1, 0)
    with pytest.raises(EqualParameters):
        chord(ConicParam(Fraction(1)), ConicParam(Fraction(1)))


@given(params.filter(lambda t: t.value != 0))
def test_chords_through_fixed_point(t):
    # chords pairing t with -1/t all pass through (1:0:1)
    partner = ConicParam(-1 / t.value)
    assert incident(chord(t, partner), ProjPoint(1, 0, 1))


@given(all_params, all_params)
def test_chord_contains_both_ends(s, t):
    if s == t:
        return
    l = chord(s, t)
    assert incident(l, veronese(s)) and incident(l, veronese(t))


def test_tangent_at_frozen():
    assert tangent_at(ConicParam(Fraction(0))) == ProjLine(0, 0, 1)
    assert tangent_at(ConicParam(Fraction(1))) == ProjLine(1, -2, 1)
    assert tangent_at(INFINITY) == ProjLine(1, 0, 0)


@given(all_params)
def test_tangent_is_polar_of_point(t):
    assert tangent_at(t) == polar(veronese(t))
    roots = line_conic_params(tangent_at(t))
    assert roots.double and roots.params == (t,)
    assert is_tangent(tangent_at(t))


@given(st.tuples(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6),
                 st.integers(-10**6, 10**6)).filter(any))
def test_pole_is_on_the_conic_exactly_for_tangents(coords):
    # on the raw pole (2 l2 : -l1 : 2 l0), x0 x2 - x1^2 = -(l1^2 - 4 l0 l2);
    # the canonical pole is that triple over a rational k, which divides the
    # form by k^2, so a valid configuration never has a pole on the conic
    l = ProjLine(*coords)
    l0, l1, l2 = l.coords
    raw = (2 * l2, -l1, 2 * l0)
    p = pole(l)
    i = next(i for i, c in enumerate(p.coords) if c)
    k = Fraction(raw[i], p.coords[i])
    assert raw == tuple(k * c for c in p.coords)
    assert conic_form(p) * k * k == -tangency_discriminant(l)
    assert on_conic(p) == is_tangent(l)


def test_is_tangent_exact_and_float():
    assert not is_tangent(chord(ConicParam(0), ConicParam(1)))
    # tangent at 1/3 on floats: the discriminant rounds but stays within tolerance
    floated = ProjLine(*(float(c) for c in tangent_at(ConicParam(Fraction(1, 3))).coords))
    assert is_tangent(floated)
    assert not is_tangent(ProjLine(1.0, -2.0, 1.0 + 1e-6))


def test_polar_pole_frozen():
    assert polar(ProjPoint(1, 0, 1)) == ProjLine(1, 0, 1)
    assert pole(ProjLine(1, 0, 1)) == ProjPoint(1, 0, 1)


points = st.builds(
    lambda a, b, c: (a, b, c), fractions, fractions, fractions
).filter(lambda t: any(t)).map(lambda t: ProjPoint(*t))
lines = st.builds(
    lambda a, b, c: (a, b, c), fractions, fractions, fractions
).filter(lambda t: any(t)).map(lambda t: ProjLine(*t))


@given(points)
def test_polar_pole_round_trip(p):
    assert pole(polar(p)) == p


@given(points)
def test_polar_and_pole_of_rational_triples_are_the_normalized_triples(p):
    # a rational triple skips _normalize; each result must be the one it gives
    x0, x1, x2 = p.coords
    for got, normalized in (
        (polar(p), ProjLine(-x2, 2 * x1, -x0)),
        (pole(ProjLine(x0, x1, x2)), ProjPoint(2 * x2, -x1, 2 * x0)),
    ):
        assert (got._coords, got._pairs, got._D, got.kind) == (
            normalized._coords, normalized._pairs, normalized._D, normalized.kind
        )


@given(points, lines)
def test_polarity_reverses_incidence(p, l):
    assert incident(l, p) == incident(polar(p), pole(l))


def test_line_conic_params_frozen():
    roots = line_conic_params(ProjLine(2, -3, 1))
    assert set(roots.params) == {ConicParam(Fraction(1)), ConicParam(Fraction(2))}
    assert not roots.double
    roots = line_conic_params(ProjLine(1, -2, 1))
    assert roots.params == (ConicParam(Fraction(1)),) and roots.double
    roots = line_conic_params(ProjLine(1, 0, 1))
    values = [t.value for t in roots.params]
    assert values == [QuadExt(0, 1, -1), QuadExt(0, -1, -1)]


@given(all_params, all_params)
def test_line_conic_params_inverts_chord(s, t):
    if s == t:
        return
    roots = line_conic_params(chord(s, t))
    assert set(roots.params) == {s, t}


def test_other_tangent_param_frozen():
    # from the pole of a line, the tangents touch where the line meets the
    # conic (La Hire), so the other tangent is the line's second intersection
    assert other_tangent_param(pole(ProjLine(2, -3, 1)), ConicParam(Fraction(1))) == ConicParam(
        Fraction(2)
    )
    # a point on the conic has one double tangent
    assert other_tangent_param(veronese(ConicParam(Fraction(1))), ConicParam(Fraction(1))) == ConicParam(
        Fraction(1)
    )
    assert other_tangent_param(pole(ProjLine(0, 1, 0)), ConicParam(Fraction(0))) == INFINITY
    assert other_tangent_param(pole(ProjLine(0, 1, 0)), INFINITY) == ConicParam(Fraction(0))
    with pytest.raises(NotIncident):
        other_tangent_param(pole(ProjLine(2, -3, 1)), ConicParam(Fraction(5)))


def test_tangents_from_frozen():
    with pytest.raises(PointOnConic):
        tangents_from(ProjPoint(0, 0, 1))
    roots = tangents_from(ProjPoint(0, 1, 0))
    assert set(roots.params) == {ConicParam(Fraction(0)), INFINITY}
    roots = tangents_from(ProjPoint(1, 0, 1))
    values = [t.value for t in roots.params]
    assert values == [QuadExt(0, 1, -1), QuadExt(0, -1, -1)]


@given(points)
def test_tangents_from_agrees_with_polar_route(p):
    if on_conic(p):
        return
    direct = tangents_from(p)
    via_polar = line_conic_params(polar(p))
    assert set(direct.params) == set(via_polar.params)
    for t in direct.params:
        assert incident(tangent_at(t), p)


@given(points, all_params)
def test_other_tangent_param_vieta(p, t):
    if on_conic(p):
        return
    line = tangent_at(t)
    if not incident(line, p):
        return
    other = other_tangent_param(p, t)
    assert incident(tangent_at(other), p)
    assert set(tangents_from(p).params) == {t, other}


float_coeffs = st.tuples(
    st.floats(0.25, 4.0) | st.floats(-4.0, -0.25),
    st.floats(-4.0, 4.0),
    st.floats(-4.0, 4.0),
).filter(lambda c: c[1] * c[1] - 4 * c[0] * c[2] >= 0.01)


@given(float_coeffs)
def test_float_vieta_keeps_the_affine_formula(coeffs):
    """Float roots keep -b/a - t bit for bit, not the homogeneous pair."""
    a, b, c = coeffs
    p = ProjPoint(a, -b / 2, c)
    x0, x1, _ = p.coords
    for t in tangents_from(p).params:
        assert other_tangent_param(p, t).value == 2 * x1 / x0 - t.value


def test_float_roots_at_infinity_map_back():
    # the root at infinity of a float quadratic is the exact INFINITY
    l, p = ProjLine(1.0, 2.0, 0.0), ProjPoint(0.0, 1.0, 3.0)
    assert line_conic_params(l).params == (INFINITY, ConicParam(-0.5))
    assert tangents_from(p).params == (INFINITY, ConicParam(1.5))
    assert other_tangent_param(p, INFINITY) == ConicParam(1.5)
    assert other_tangent_param(p, ConicParam(1.5)) == INFINITY


def test_other_tangent_param_requires_incidence():
    with pytest.raises(NotIncident):
        other_tangent_param(ProjPoint(5, 1, 7), ConicParam(Fraction(0)))


# Rational coordinates are plain ints and rational parameters pair as (p, q);
# each routine must still answer exactly, as it does from Fraction coordinates.
# The references below are the routines' formulas over Fraction coordinates.


def _no_float(value) -> bool:
    if isinstance(value, ParamRoots):
        return _no_float(value.discriminant) and all(map(_no_float, value.params))
    if isinstance(value, ConicParam):
        return value.is_infinite or _no_float(value.value)
    if isinstance(value, QuadExt):
        return _no_float(value.a) and _no_float(value.b)
    return isinstance(value, (int, Fraction))


def _ref_quadratic(a, b, c):
    disc = b * b - 4 * a * c
    if a == 0:
        return ((INFINITY,) if b == 0 else (INFINITY, ConicParam(-c / b))), disc
    if disc == 0:
        return (ConicParam(-b / (2 * a)),), disc
    root = sqrt_scalar(disc)
    return (ConicParam((-b + root) / (2 * a)), ConicParam((-b - root) / (2 * a))), disc


def _ref_second(l0, l1, l2, s):
    if s.is_infinite:
        return INFINITY if l1 == 0 else ConicParam(-l0 / l1)
    return INFINITY if l2 == 0 else ConicParam(-l1 / l2 - s.value)


def _ref_other_tangent(x0, x1, x2, t):
    if t.is_infinite:
        return INFINITY if x1 == 0 else ConicParam(x2 / (2 * x1))
    return INFINITY if x0 == 0 else ConicParam(2 * x1 / x0 - t.value)


def _fraction_pair(t):
    return (Fraction(1), Fraction(0)) if t.is_infinite else (t.value, Fraction(1))


small_ints = st.integers(-40, 40)
int_triples = st.tuples(small_ints, small_ints, small_ints).filter(any)


@given(int_triples, int_triples)
def test_integer_lines_and_points_answer_exactly(line_coords, point_coords):
    l, p = ProjLine(*line_coords), ProjPoint(*point_coords)
    assert all(type(c) is int for c in l.coords + p.coords)
    l0, l1, l2 = (Fraction(c) for c in l.coords)
    x0, x1, x2 = (Fraction(c) for c in p.coords)

    roots = line_conic_params(l)
    assert _no_float(roots)
    assert (roots.params, roots.discriminant) == _ref_quadratic(l2, l1, l0)
    for s in roots.params:
        # the tangent at s passes through the pole of l (La Hire)
        other = other_tangent_param(pole(l), s)
        assert _no_float(other) and other == _ref_second(l0, l1, l2, s)

    if on_conic(p):
        return
    roots = tangents_from(p)
    assert _no_float(roots)
    assert (roots.params, roots.discriminant) == _ref_quadratic(x0, -2 * x1, x2)
    for t in roots.params:
        other = other_tangent_param(p, t)
        assert _no_float(other) and other == _ref_other_tangent(x0, x1, x2, t)


@st.composite
def one_field_params(draw):
    """Four parameters over one field: rationals, infinity and elements of
    Q(sqrt d) for one drawn non-square d."""
    d = draw(st.sampled_from((-3, -1, 2, 3, 5, 7)))
    ext = st.builds(lambda a, b: ConicParam(QuadExt(a, b, d)), fractions,
                    fractions.filter(bool))
    return draw(st.lists(st.one_of(params, st.just(INFINITY), ext), min_size=4,
                         max_size=4))


@given(st.tuples(small_ints, small_ints, small_ints, small_ints).filter(
    lambda e: e[0] * e[3] != e[1] * e[2]), one_field_params())
def test_mobius_action_and_cross_ratio_answer_exactly(entries, ts):
    g = MobiusMap(*entries)
    a, b, c, d = (Fraction(e) for e in entries)
    for t in ts:
        u, v = _fraction_pair(t)
        num, den = a * u + b * v, c * u + d * v
        image = mobius_apply(g, t)
        assert _no_float(image)
        assert image == (INFINITY if den == 0 else ConicParam(num / den))

    if not g.is_identity_class():
        roots = fixed_points(g)
        assert _no_float(roots)
        ma, mb, mc, md = (Fraction(e) for e in g.mat.entries())
        assert (roots.params, roots.discriminant) == _ref_quadratic(mc, md - ma, -mb)

    if len(set(ts)) == 4:
        pa, pb, pc, pd = map(_fraction_pair, ts)

        def two_det(p, q):
            return p[0] * q[1] - q[0] * p[1]

        ratio = cross_ratio(*ts)
        assert _no_float(ratio)
        assert ratio == (two_det(pa, pc) * two_det(pb, pd)) / (
            two_det(pa, pd) * two_det(pb, pc)
        )

    s, t = ts[0], ts[1]
    if s != t:
        # an extension chord: its rational coordinates are ints as well
        l = chord(s, t)
        assert all(isinstance(x, (int, QuadExt)) for x in l.coords)
        roots = line_conic_params(l)
        assert _no_float(roots) and set(roots.params) == {s, t}
        other = other_tangent_param(pole(l), s)
        assert other == t and _no_float(other)
