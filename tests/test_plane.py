"""Projective plane primitives: triples, incidence, parameters, Moebius maps."""
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

from porism.conic import chord, tangent_at
from porism.errors import (
    CoincidentLines,
    CoincidentPoints,
    DegenerateTuple,
    IdentityMap,
    MixedBackend,
    SingularMap,
)
from porism.fields import QuadExt, rational_sqrt
from porism.plane import (
    INFINITY,
    ConicParam,
    MobiusMap,
    ProjLine,
    ProjPoint,
    collinear,
    concurrent,
    cross_ratio,
    fixed_points,
    incident,
    is_involution,
    join,
    line_basis,
    meet,
    mobius_apply,
    mobius_compose,
    point_on_line,
)
from porism.plane import _entries, _normalize, _points_on_line

fractions = st.fractions(min_value=-40, max_value=40, max_denominator=10)
params = st.builds(ConicParam, fractions)


def test_normalization_scales_away():
    assert ProjPoint(2, 4, 6) == ProjPoint(1, 2, 3)
    assert ProjPoint(Fraction(1, 2), Fraction(1, 3), 0) == ProjPoint(3, 2, 0)
    assert ProjPoint(-1, -2, -3) == ProjPoint(1, 2, 3)
    assert ProjPoint(2.0, 4.0, 6.0) == ProjPoint(1.0, 2.0, 3.0)


def test_backend_kinds():
    assert ProjPoint(1, 2, 3).kind == "exact"
    assert ProjPoint(1.0, 2.0, 3.0).kind == "float"
    # plain ints are neutral and adopt the surrounding backend
    assert ProjPoint(1, 2.0, 3.0).kind == "float"
    with pytest.raises(MixedBackend):
        ProjPoint(Fraction(1), 2.0, 3)
    with pytest.raises(ValueError):
        ProjPoint(0, 0, 0)
    for bad in ((0, 0, 0), (Fraction(0), 0, 0), (0.0, 0.0, 0.0),
                (float("nan"), 1.0, 0.0), (float("inf"), 0.0, 1.0)):
        with pytest.raises(DegenerateTuple):
            ProjPoint(*bad)
    with pytest.raises(ValueError):
        ProjPoint(float("nan"), 1.0, 0.0)
    for bad in ((True, 0, 1), (1, "2", 3), (Fraction(1), 2, "3")):
        with pytest.raises(TypeError):
            ProjPoint(*bad)
    with pytest.raises(MixedBackend):
        ProjPoint(QuadExt(0, 1, 2), 1.0, 0)
    # ints and Fractions clear denominators into one primitive int triple
    point = ProjPoint(1, Fraction(1, 2), 3)
    assert point.coords == (2, 1, 6)
    assert all(type(c) is int for c in point.coords)


def test_join_meet_frozen():
    p, q = ProjPoint(1, 0, 0), ProjPoint(0, 1, 0)
    l = join(p, q)
    assert l == ProjLine(0, 0, 1)
    assert incident(l, p) and incident(l, q)
    m = meet(ProjLine(1, 0, 0), ProjLine(0, 1, 0))
    assert m == ProjPoint(0, 0, 1)


def test_join_meet_degenerate():
    with pytest.raises(CoincidentPoints):
        join(ProjPoint(1, 2, 3), ProjPoint(2, 4, 6))
    with pytest.raises(CoincidentLines):
        meet(ProjLine(1, 2, 3), ProjLine(1, 2, 3))


points = st.builds(
    lambda a, b, c: (a, b, c), fractions, fractions, fractions
).filter(lambda t: any(t)).map(lambda t: ProjPoint(*t))


@given(points, points)
def test_join_is_incident_to_both(p, q):
    if p == q:
        return
    l = join(p, q)
    assert incident(l, p) and incident(l, q)


@given(points, points, points)
def test_collinear_iff_on_join(p, q, r):
    if p == q:
        return
    assert collinear([p, q, r]) == incident(join(p, q), r)


def test_collinear_concurrent_small_cases():
    assert collinear([ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(1, 1, 0)])
    assert not collinear([ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1)])
    assert concurrent([ProjLine(1, 0, 0), ProjLine(0, 1, 0), ProjLine(1, 1, 0)])
    with pytest.raises(ValueError):
        collinear([ProjPoint(1, 0, 0), ProjPoint(0, 1, 0)])


@given(points)
def test_line_basis_spans(p):
    l = join(p, ProjPoint(1, 1, 1)) if p != ProjPoint(1, 1, 1) else ProjLine(1, -1, 0)
    b1, b2 = line_basis(l)
    assert incident(l, b1) and incident(l, b2)
    assert b1 != b2


small = st.fractions(min_value=-9, max_value=9, max_denominator=5)
surds = st.builds(lambda a, b: QuadExt(a, b, 2), small, small.filter(bool))
small_floats = st.floats(min_value=-9, max_value=9).filter(lambda x: x == 0 or abs(x) > 1e-3)


def _line_and_params(entries, values):
    """(line, params) with the line's entries and params from values, over
    one backend; INFINITY is always a parameter."""
    triple = st.tuples(entries, entries, entries).filter(
        lambda t: any(x != 0 for x in t))
    params = st.lists(st.builds(ConicParam, values), max_size=5)
    return st.tuples(triple.map(lambda t: ProjLine(*t)),
                     params.map(lambda ts: [INFINITY, *ts]))


def _canonical(t):
    return t._coords, t._D, t._pairs, t.kind


@given(st.one_of(
    _line_and_params(small, small),
    _line_and_params(st.one_of(small, surds), st.one_of(small, surds)),
    _line_and_params(small_floats, st.one_of(small, small_floats)),
))
@example((ProjLine(0, 0, 1), [INFINITY, ConicParam(Fraction(0))]))
@example((ProjLine(1, QuadExt(0, 1, 2), 3), [INFINITY, ConicParam(QuadExt(1, 1, 2))]))
def test_points_on_line_match_the_normalized_points(case):
    # one basis for all the params gives the points that the public
    # constructor, through the full _normalize, builds from that basis
    l, ts = case
    p1, p2 = line_basis(l)
    expected = []
    for t in ts:
        u, v = t.pair()
        expected.append(ProjPoint(*(v * x + u * y for x, y in zip(p1.coords, p2.coords))))
    got = _points_on_line(l, ts)
    assert [_canonical(p) for p in got] == [_canonical(p) for p in expected]
    assert _canonical(point_on_line(l, ts[-1])) == _canonical(expected[-1])


def _cross3(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0])


rational_params = st.one_of(st.just(INFINITY), params)


@given(points, points, rational_params, rational_params)
def test_rational_incidence_matches_the_public_constructor(p, q, s, t):
    # the int fast paths of join, meet, chord and tangent_at give the
    # canonical forms of ProjLine(...) / ProjPoint(...) of the same entries
    if p != q:
        assert _canonical(join(p, q)) == _canonical(ProjLine(*_cross3(p.coords, q.coords)))
        l, m = ProjLine(*p.coords), ProjLine(*q.coords)
        assert _canonical(meet(l, m)) == _canonical(ProjPoint(*_cross3(l.coords, m.coords)))
    (u1, v1), (u2, v2) = s.pair(), t.pair()
    if s != t:
        assert _canonical(chord(s, t)) == _canonical(
            ProjLine(u1 * u2, -(u1 * v2 + u2 * v1), v1 * v2))
    assert _canonical(tangent_at(t)) == _canonical(ProjLine(u2 * u2, -2 * u2 * v2, v2 * v2))


@given(fractions)
def test_point_on_line_stays_on_line(t):
    l = ProjLine(2, -3, 5)
    assert incident(l, point_on_line(l, ConicParam(t)))
    assert incident(l, point_on_line(l, INFINITY))


def test_conic_param_basics():
    assert ConicParam(Fraction(1, 2)) == ConicParam(Fraction(2, 4))
    assert INFINITY.is_infinite
    assert INFINITY == ConicParam.infinity()
    assert ConicParam(Fraction(3)).pair() == (Fraction(3), 1)
    assert INFINITY.pair() == (1, 0)
    assert ConicParam(Fraction(3)) != INFINITY


def test_float_conic_params_are_unhashable():
    # float parameters compare within a tolerance, which no hash agrees with
    with pytest.raises(TypeError):
        hash(ConicParam(1.5))
    assert hash(ConicParam(Fraction(3, 2))) == hash(ConicParam(Fraction(6, 4)))
    assert hash(INFINITY) == hash(ConicParam.infinity())
    assert ConicParam(1.5) == ConicParam(1.5 + 1e-12)


def _canonical_by_lead(coords):
    """The canonical form's definition: divide by the first nonzero entry, then
    clear denominators and numerator content."""
    lead = next(c for c in coords if c != 0)
    scaled = [c / lead for c in coords]
    factor = Fraction(
        math.lcm(*(c.denominator for c in scaled)), math.gcd(*(c.numerator for c in scaled))
    )
    return tuple(c * factor for c in scaled)


@given(
    st.lists(
        st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=10**6)),
        min_size=3,
        max_size=4,
    ).filter(any)
)
def test_integer_canonical_form_matches_its_definition(coords):
    canon = _normalize(tuple(coords))[0]
    assert canon == _canonical_by_lead(coords)
    assert all(type(c) is int for c in canon)


def _extension_canonical_by_lead(coords):
    """The canonical form's definition for a tuple with extension entries:
    divide by the first nonzero entry, then multiply by the lcm of the
    denominators over the gcd of the numerators of every nonzero rational
    part and sqrt coefficient."""
    lead = next(c for c in coords if c != 0)
    scaled = [c / lead for c in coords]
    parts = [
        f for c in scaled for f in ((c.a, c.b) if isinstance(c, QuadExt) else (c,)) if f
    ]
    factor = Fraction(
        math.lcm(*(f.denominator for f in parts)), math.gcd(*(f.numerator for f in parts))
    )
    return tuple(c * factor for c in scaled)


def _components(coords):
    """Each entry as (a, b, d), which pins its repr; rationals as (c, 0, None)."""
    return [(c.a, c.b, c.d) if isinstance(c, QuadExt) else (c, 0, None) for c in coords]


def _written_over(c, d):
    """c with its sqrt coefficient rewritten over d (same field)."""
    if not isinstance(c, QuadExt):
        return c
    return QuadExt(c.a, c.b * rational_sqrt(c.d / d), d)


@st.composite
def extension_tuples(draw):
    """3- and 4-tuples over one Q(sqrt d), with at least one extension entry,
    zero entries and negative leads among them; d includes non-squarefree
    and non-integral radicands."""
    d = draw(st.sampled_from([2, 3, 5, -1, -3, 8, 12, Fraction(7, 2), Fraction(-5, 3)]))
    small = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    entry = st.one_of(
        st.just(Fraction(0)),
        small,
        st.builds(lambda a, b: QuadExt(a, b, d), small, small.filter(bool)),
    )
    return tuple(
        draw(
            st.lists(entry, min_size=3, max_size=4).filter(
                lambda cs: any(isinstance(c, QuadExt) for c in cs)
            )
        )
    )


def _canonical_entries(coords):
    """The entries of _normalize's canonical form, derived from its pairs
    when an extension entry is left."""
    canon, _, D, pairs = _normalize(coords)
    return canon if pairs is None else _entries(pairs, D)


@given(extension_tuples(), st.sampled_from([2, 3, Fraction(1, 2)]), st.data())
def test_pair_canonical_form_matches_its_definition(coords, k, data):
    canon = _canonical_entries(coords)
    assert _components(canon) == _components(_extension_canonical_by_lead(coords))
    assert all(type(c) is int for c in canon if not isinstance(c, QuadExt))
    # an entry written over d k^2 is held over the integer radicand of
    # d k^2, which may equal its old one (2/4 = 1/2 is held over 2); entries
    # over two different radicands raise MixedBackend
    ext = [i for i, c in enumerate(coords) if isinstance(c, QuadExt)]
    i = data.draw(st.sampled_from(ext))
    mixed = list(coords)
    mixed[i] = _written_over(coords[i], coords[i].d * k * k)
    if len({c.d for c in mixed if isinstance(c, QuadExt)}) > 1:
        with pytest.raises(MixedBackend):
            _normalize(tuple(mixed))
    else:
        expected = _extension_canonical_by_lead(mixed)
        assert _components(_canonical_entries(tuple(mixed))) == _components(expected)


def test_two_radicands_raise_mixed_backend():
    r2, r8 = QuadExt(0, 1, 2), QuadExt(0, 1, 8)
    with pytest.raises(MixedBackend):
        ProjPoint(1, r2, r8)
    p, q = ProjPoint(1, r2, 0), ProjPoint(0, r8, 1)
    for first, second in ((p, q), (q, p)):
        with pytest.raises(MixedBackend):
            join(first, second)
        with pytest.raises(MixedBackend):
            meet(ProjLine(*first.coords), ProjLine(*second.coords))
        with pytest.raises(MixedBackend):
            incident(ProjLine(*first.coords), second)
    # one value over two radicands gives two triples, unequal as an exact
    # and a float triple are
    assert ProjPoint(2, r8, 0) != ProjPoint(2, 2 * r2, 0)
    assert ProjPoint(1, 2, 0) != ProjPoint(1.0, 2.0, 0.0)


def test_mobius_map_classes():
    g = MobiusMap(1, 2, 3, 4)
    assert g == MobiusMap(2, 4, 6, 8)  # projective equivalence
    assert hash(g) == hash(MobiusMap(-1, -2, -3, -4))
    assert MobiusMap(1, 0, 0, 1).is_identity_class()
    assert MobiusMap(5, 0, 0, 5).is_identity_class()
    assert not g.is_identity_class()
    with pytest.raises(SingularMap):
        MobiusMap(1, 2, 2, 4)  # determinant zero
    with pytest.raises(MixedBackend):
        MobiusMap(1.0, 0, 0, 1)


def test_mobius_apply_frozen():
    g = MobiusMap(2, 1, 0, 1)  # t -> 2t + 1
    assert mobius_apply(g, ConicParam(Fraction(3))) == ConicParam(Fraction(7))
    assert mobius_apply(g, INFINITY) == INFINITY
    h = MobiusMap(0, 1, 1, 0)  # t -> 1/t
    assert mobius_apply(h, ConicParam(Fraction(0))) == INFINITY
    assert mobius_apply(h, INFINITY) == ConicParam(Fraction(0))


mobius_entries = st.tuples(fractions, fractions, fractions, fractions).filter(
    lambda e: e[0] * e[3] - e[1] * e[2] != 0
)


int_pairs = st.tuples(st.integers(-60, 60), st.integers(-60, 60)).filter(any)


@given(mobius_entries, mobius_entries, params, int_pairs)
def test_mobius_compose_applies_right_first(eg, eh, t, pair):
    g, h = MobiusMap(*eg), MobiusMap(*eh)
    assert mobius_apply(mobius_compose(g, h), t) == mobius_apply(g, mobius_apply(h, t))
    # a parameter built from an integer pair, as mobius_apply builds its images
    u, v = pair
    s = ConicParam._from_pair(u, v)
    expected = INFINITY if v == 0 else ConicParam(Fraction(u, v))
    assert s == expected and hash(s) == hash(expected)
    assert mobius_apply(mobius_compose(g, h), s) == mobius_apply(g, mobius_apply(h, s))


small_entries = st.tuples(*[st.integers(-9, 9)] * 4).filter(lambda e: e[0] * e[3] != e[1] * e[2])
scales = st.one_of(
    fractions.filter(bool),
    st.builds(QuadExt, fractions, fractions.filter(bool),
              st.sampled_from([2, 3, -1, Fraction(5, 2)])),
)


@given(small_entries, scales)
def test_equal_maps_have_one_matrix_repr_and_fixed_points(entries, k):
    g, h = MobiusMap(*entries), MobiusMap(*(k * e for e in entries))
    assert g == h and hash(g) == hash(h)
    assert g.mat == h.mat and repr(g) == repr(h)
    assert all(type(x) is int for x in h.mat.entries())
    if not g.is_identity_class():
        assert fixed_points(g) == fixed_points(h)


def test_a_map_is_its_canonical_matrix():
    assert repr(MobiusMap(2, 4, 6, 8)) == "MobiusMap([[1, 2], [3, 4]])"
    assert MobiusMap(Fraction(-1, 2), 0, 0, Fraction(-1, 3)).mat.entries() == (3, 0, 0, 2)


def test_is_involution():
    assert is_involution(MobiusMap(0, 1, 1, 0))
    assert is_involution(MobiusMap(1, 3, 3, -1))
    assert not is_involution(MobiusMap(1, 0, 0, 1))
    assert not is_involution(MobiusMap(2, 1, 0, 1))


def test_fixed_points_cases():
    # c = 0, a != d: infinity plus one affine point
    roots = fixed_points(MobiusMap(2, 1, 0, 1))
    assert roots.params == (INFINITY, ConicParam(Fraction(-1)))
    # translation: infinity doubly fixed
    roots = fixed_points(MobiusMap(1, 1, 0, 1))
    assert roots.params == (INFINITY,)
    assert roots.double
    # involution t -> 1/t fixes +-1
    roots = fixed_points(MobiusMap(0, 1, 1, 0))
    assert roots.params == (ConicParam(Fraction(1)), ConicParam(Fraction(-1)))
    # irrational pair lands in a quadratic extension
    roots = fixed_points(MobiusMap(0, 2, 1, 0))
    values = [t.value for t in roots.params]
    assert values[0] == QuadExt(0, 1, 2) and values[1] == QuadExt(0, -1, 2)
    with pytest.raises(IdentityMap):
        fixed_points(MobiusMap(1, 0, 0, 1))


def test_cross_ratio_frozen():
    a, b, c, d = (ConicParam(Fraction(v)) for v in (0, 1, 2, 3))
    assert cross_ratio(a, b, c, d) == Fraction(4, 3)
    assert cross_ratio(a, b, c, INFINITY) == Fraction(2)
    with pytest.raises(DegenerateTuple):
        cross_ratio(a, a, c, d)


def test_cross_ratio_harmonic_example():
    a = ConicParam(Fraction(1))
    b = ConicParam(Fraction(-1))
    c = ConicParam(Fraction(0))
    assert cross_ratio(a, b, c, INFINITY) == Fraction(-1)


@given(mobius_entries, params, params, params, params)
def test_cross_ratio_mobius_invariant(entries, a, b, c, d):
    if len({a, b, c, d}) < 4:
        return
    g = MobiusMap(*entries)
    images = [mobius_apply(g, t) for t in (a, b, c, d)]
    if len(set(images)) < 4:
        return
    assert cross_ratio(*images) == cross_ratio(a, b, c, d)
