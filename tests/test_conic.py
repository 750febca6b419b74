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
    parameter_of,
    polar,
    pole,
    second_intersection,
    tangent_at,
    tangents_from,
    veronese,
)
from porism.errors import (
    EqualParameters,
    NotIncident,
    NotOnConic,
    PointOnConic,
)
from porism.fields import QuadExt
from porism.plane import INFINITY, ConicParam, ProjLine, ProjPoint, incident

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


def test_parameter_of_frozen():
    assert parameter_of(ProjPoint(1, 2, 4)) == ConicParam(Fraction(2))
    assert parameter_of(ProjPoint(0, 0, 1)) == INFINITY
    with pytest.raises(NotOnConic):
        parameter_of(ProjPoint(1, 1, 2))


@given(all_params)
def test_parameter_of_inverts_veronese(t):
    assert parameter_of(veronese(t)) == t


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


def test_second_intersection_frozen():
    assert second_intersection(ProjLine(2, -3, 1), ConicParam(Fraction(1))) == ConicParam(
        Fraction(2)
    )
    assert second_intersection(tangent_at(ConicParam(Fraction(1))), ConicParam(Fraction(1))) == ConicParam(
        Fraction(1)
    )
    assert second_intersection(ProjLine(0, 1, 0), ConicParam(Fraction(0))) == INFINITY
    with pytest.raises(NotIncident):
        second_intersection(ProjLine(2, -3, 1), ConicParam(Fraction(5)))


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


def test_other_tangent_param_requires_incidence():
    with pytest.raises(NotIncident):
        other_tangent_param(ProjPoint(5, 1, 7), ConicParam(Fraction(0)))
