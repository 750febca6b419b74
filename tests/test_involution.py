"""Fregier involutions: products, harmonicity, alignment, cross-chord theorems."""
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from porism.algebra import Mat2
from porism.conic import on_conic, pole, tangent_at, veronese
from porism.errors import (
    CenterOnConic,
    DegenerateConstruction,
    DegenerateHexagon,
    DegeneratePolygon,
    EqualParameters,
    NotInvolution,
    SharedFixedPoint,
)
from porism.fields import QuadExt
from porism.involution import (
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
from porism.plane import (
    INFINITY,
    ConicParam,
    MobiusMap,
    ProjPoint,
    cross_ratio,
    fixed_points,
    incident,
    is_involution,
    join,
    meet,
    mobius_apply,
    point_on_line,
)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=6)
params = st.builds(ConicParam, fractions)


def test_fregier_frozen():
    u = fregier(ProjPoint(1, 0, 1))
    assert u.map == MobiusMap(0, -1, 1, 0)  # t -> -1/t
    assert u(ConicParam(Fraction(2))) == ConicParam(Fraction(-1, 2))
    v = fregier(ProjPoint(0, 1, 0))
    assert v.map == MobiusMap(1, 0, 0, -1)  # t -> -t
    assert v(ConicParam(Fraction(3))) == ConicParam(Fraction(-3))
    with pytest.raises(CenterOnConic):
        fregier(ProjPoint(1, 0, 0))


points = st.builds(
    lambda a, b, c: (a, b, c), fractions, fractions, fractions
).filter(lambda t: any(t)).map(lambda t: ProjPoint(*t))
off_conic = points.filter(lambda p: not on_conic(p))


@given(st.lists(off_conic, min_size=1, max_size=8))
def test_integral_chain_product_matches_the_fraction_product(centers):
    chain = InvolutionChain([fregier(c) for c in centers])

    def fraction_mat(f):
        return Mat2(*(Fraction(x) for x in f.map.mat.entries()))

    mat = fraction_mat(chain.members[0])
    for f in chain.members[1:]:
        mat = fraction_mat(f) * mat
    expected = MobiusMap.from_mat2(mat)
    assert chain.product.mat == expected.mat
    assert all(type(x) is int for x in chain.product.mat.entries())
    assert chain.product == expected
    assert hash(chain.product) == hash(expected)


@given(off_conic, params)
def test_fregier_chords_pass_through_center(center, t):
    u = fregier(center)
    s = u(t)
    if s == t:
        return
    from porism.conic import chord

    assert incident(chord(t, s), center)


@given(off_conic)
def test_fregier_of_a_rational_center_is_the_normalized_map(center):
    # a rational center skips MobiusMap's normalization; the map must be the one it gives
    c0, c1, c2 = center.coords
    assert fregier(center).map.mat.entries() == MobiusMap(c1, -c2, c0, -c1).mat.entries()


@given(off_conic)
def test_fregier_is_involution_and_round_trips(center):
    u = fregier(center)
    assert is_involution(u.map)
    assert center_of(u.map) == center


def test_center_of_frozen():
    assert center_of(MobiusMap(0, 1, 1, 0)) == ProjPoint(1, 0, -1)
    assert center_of(MobiusMap(1, 0, 0, -1)) == ProjPoint(0, 1, 0)
    assert center_of(MobiusMap(0, -1, 1, 0)) == ProjPoint(1, 0, 1)
    with pytest.raises(NotInvolution):
        center_of(MobiusMap(2, 1, 0, 1))


def test_involution_from_fixed_frozen():
    u = involution_from_fixed(ConicParam(Fraction(1)), ConicParam(Fraction(-1)))
    assert u.map == MobiusMap(0, 1, 1, 0)  # t -> 1/t
    v = involution_from_fixed(ConicParam(Fraction(0)), INFINITY)
    assert v.map == MobiusMap(1, 0, 0, -1)  # t -> -t
    # fixed points 0 and 2/x give the matrix [[1,0],[x,-1]]
    x = Fraction(5)
    w = involution_from_fixed(ConicParam(Fraction(0)), ConicParam(2 / x))
    assert w.map == MobiusMap(1, 0, x, -1)
    with pytest.raises(EqualParameters):
        involution_from_fixed(ConicParam(Fraction(2)), ConicParam(Fraction(2)))


@given(params, params)
def test_involution_from_fixed_actually_fixes(t1, t2):
    if t1 == t2:
        return
    u = involution_from_fixed(t1, t2)
    assert u(t1) == t1 and u(t2) == t2
    assert set(fixed_points(u.map).params) == {t1, t2}


def test_harmonic_product_frozen():
    u = involution_from_fixed(ConicParam(Fraction(1)), ConicParam(Fraction(-1)))
    v = involution_from_fixed(ConicParam(Fraction(0)), INFINITY)
    assert harmonic_product_test(u, v)
    w = involution_from_fixed(ConicParam(Fraction(0)), ConicParam(Fraction(1, 3)))
    assert not harmonic_product_test(u, w)
    with pytest.raises(SharedFixedPoint):
        harmonic_product_test(u, u)
    assert share_fixed_point(u, u)
    assert not share_fixed_point(u, v)


def test_harmonic_product_over_sqrt2_frozen():
    # matrices with QuadExt entries: the resultant squares an extension element
    r2 = QuadExt(0, 1, 2)
    u = involution_from_fixed(ConicParam(r2), ConicParam(0))
    w = involution_from_fixed(ConicParam(1), u(ConicParam(1)))  # fixes 1 and 1 + sqrt 2
    assert u(ConicParam(1)) == ConicParam(r2 + 1)
    assert harmonic_product_test(u, w)
    assert not harmonic_product_test(u, involution_from_fixed(ConicParam(1), ConicParam(r2 - 1)))
    shared = involution_from_fixed(ConicParam(r2), ConicParam(1))
    assert share_fixed_point(u, shared) and share_fixed_point(shared, w)
    with pytest.raises(SharedFixedPoint):
        harmonic_product_test(u, shared)
    assert not share_fixed_point(fregier(ProjPoint(1, 0, r2)), fregier(ProjPoint(1, 1, 3)))


@given(params, params, params, params)
def test_harmonic_iff_involutive_product(a, b, c, d):
    if len({a, b, c, d}) < 4:
        return
    u = involution_from_fixed(a, b)
    v = involution_from_fixed(c, d)
    harmonic = cross_ratio(a, b, c, d) == Fraction(-1)
    assert harmonic_product_test(u, v) == harmonic


def _aligned_triple():
    centers = [ProjPoint(1, 0, -1), ProjPoint(1, 1, -1), ProjPoint(1, 2, -1)]
    return InvolutionChain([fregier(c) for c in centers]), centers


def test_aligned_triple_frozen():
    chain, centers = _aligned_triple()
    assert chain.members[0].map == MobiusMap(0, 1, 1, 0)
    assert chain.members[1].map == MobiusMap(1, 1, 1, -1)
    assert chain.members[2].map == MobiusMap(2, 1, 1, -2)
    assert chain.product == MobiusMap(1, 3, 3, -1)
    assert aligned_centers_involutive(chain)
    w_center = center_of(chain.product)
    assert w_center == ProjPoint(3, 1, -3)
    assert incident(join(centers[0], centers[1]), w_center)


def test_single_chain_product_is_member():
    u = fregier(ProjPoint(1, 0, 1))
    assert InvolutionChain([u]).product == u.map


def test_chain_then_reverse_is_identity_class():
    chain, _ = _aligned_triple()
    g = chain.product
    assert mobius_apply(g, mobius_apply(g, ConicParam(Fraction(7)))) == ConicParam(
        Fraction(7)
    )


def test_aligned_even_control_is_generic():
    line = join(ProjPoint(1, 0, -1), ProjPoint(1, 1, -1))
    centers = [point_on_line(line, ConicParam(Fraction(k))) for k in (0, 1, 2, 3)]
    chain = InvolutionChain([fregier(c) for c in centers])
    assert not is_involution(chain.product)


def test_aligned_five_with_remark_construction():
    # three centers on one line, two more on a second line through the
    # partial product's center
    chain, _ = _aligned_triple()
    partial_center = center_of(chain.product)
    second = join(partial_center, ProjPoint(0, 0, 1))
    extra = []
    for k in (1, 2):
        c = point_on_line(second, ConicParam(Fraction(k)))
        assert not on_conic(c)
        extra.append(fregier(c))
    five = InvolutionChain(list(chain.members) + extra)
    assert aligned_centers_involutive(five)


def test_aligned_rejects_even_or_repeated():
    chain, _ = _aligned_triple()
    with pytest.raises(ValueError):
        aligned_centers_involutive(InvolutionChain(chain.members[:2]))
    u = fregier(ProjPoint(1, 0, 1))
    with pytest.raises(ValueError):
        aligned_centers_involutive(InvolutionChain([u, u, u]))


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=3), st.data())
def test_aligned_odd_products_random(extra_pairs, data):
    line = join(ProjPoint(1, 3, 2), ProjPoint(0, 1, -1))
    count = 3 + 2 * extra_pairs
    values = data.draw(
        st.lists(params, min_size=count, max_size=count, unique=True)
    )
    centers = [point_on_line(line, s) for s in values]
    if any(on_conic(c) for c in centers) or len(set(centers)) < count:
        return
    chain = InvolutionChain([fregier(c) for c in centers])
    assert aligned_centers_involutive(chain)
    assert incident(line, center_of(chain.product))


def test_pascal_frozen():
    ts = [ConicParam(Fraction(v)) for v in (0, 1, 2, 3, 4, 5)]
    pts, verdict = pascal_line(*ts)
    assert verdict
    assert pts[0] == ProjPoint(2, 5, 20)
    assert pts[1] == ProjPoint(4, 10, 30)
    assert pts[2] == ProjPoint(2, 5, 14)


def test_pascal_rejects_repeats():
    ts = [ConicParam(Fraction(v)) for v in (0, 1, 2, 3, 4, 4)]
    with pytest.raises(DegenerateHexagon):
        pascal_line(*ts)


@given(st.lists(params, min_size=6, max_size=6, unique=True))
def test_pascal_random_always_collinear(ts):
    try:
        pts, verdict = pascal_line(*ts)
    except DegenerateHexagon:
        return
    assert verdict


def _push_through_aligned(n, seeds, line_pts):
    line = join(*line_pts)
    centers = [point_on_line(line, ConicParam(Fraction(k + 1, 2))) for k in range(n - 1)]
    involutions = [fregier(c) for c in centers]
    xs, ys = [seeds[0]], [seeds[1]]
    for inv in involutions:
        xs.append(inv(xs[-1]))
        ys.append(inv(ys[-1]))
    return xs, ys, centers, line


def test_moebius_small_frozen():
    xs, ys, centers, line = _push_through_aligned(
        3,
        (ConicParam(Fraction(4)), ConicParam(Fraction(-5))),
        (ProjPoint(1, 0, -1), ProjPoint(1, 1, -1)),
    )
    report = moebius_check(xs, ys)
    assert report.hypothesis_met and report.conclusion
    assert report.points[0] == centers[0]
    assert report.points[1] == centers[1]
    assert incident(line, report.points[-1])


def test_moebius_hypothesis_not_met_reported():
    # a generic tuple: the first n - 1 cross points are not collinear, so the
    # theorem is vacuous and the report says so distinctly
    ts = [ConicParam(Fraction(v)) for v in (0, 1, 2, 3)]
    us = [ConicParam(Fraction(v)) for v in (5, 7, 11, 13)]
    report = moebius_check(ts, us)
    assert not report.hypothesis_met
    assert report.conclusion is None


def test_dual_moebius_agrees_with_primal():
    xs, ys, _, _ = _push_through_aligned(
        4,
        (ConicParam(Fraction(4)), ConicParam(Fraction(-5))),
        (ProjPoint(1, 0, -1), ProjPoint(1, 1, -1)),
    )
    report = dual_moebius_check(tuple(xs) + tuple(ys))
    assert report.hypothesis_met and report.conclusion
    assert report.agrees_with_primal
    for diag, point in zip(report.diagonals, report.primal.points):
        assert pole(diag) == point


def _polygon_pair(values):
    ts = tuple(INFINITY if v is None else ConicParam(Fraction(v)) for v in values)
    n = len(ts) // 2
    return ts[:n], ts[n:]


crowded = st.one_of(st.none(), st.integers(-3, 3))  # None is infinity


@given(st.integers(3, 5).flatmap(lambda n: st.lists(crowded, min_size=2 * n, max_size=2 * n)))
@example([0, 1, 2, 3, 1, 4])  # x_2 = y_2
@example([0, 1, 2, 1, 0, 5])  # chord(x_1, x_2) = chord(y_1, y_2)
@example([None, 1, 2, 3, 4, None, 5, 6])
def test_dual_check_reraises_the_primal_degeneracy(values):
    # dual_moebius_check rejects every polygon pair that moebius_check
    # rejects, with the same message
    xs, ys = _polygon_pair(values)
    try:
        moebius_check(xs, ys)
    except DegenerateConstruction as exc:
        with pytest.raises(DegeneratePolygon) as caught:
            dual_moebius_check(xs + ys)
        assert str(caught.value) == str(exc)


distinct_polygons = st.integers(3, 7).flatmap(lambda n: st.lists(
    st.one_of(st.just(INFINITY), params), min_size=2 * n, max_size=2 * n, unique=True))


@settings(max_examples=100, deadline=None)
@given(distinct_polygons)
@example([INFINITY, *(ConicParam(Fraction(k)) for k in range(5))])
def test_distinct_parameters_leave_the_moebius_checks_nothing_to_degenerate(ts):
    # the moebius suite's draw rests on this: once its 2n parameters are
    # pairwise distinct, neither check can raise, so it runs neither
    report = dual_moebius_check(ts)
    assert report.agrees_with_primal


@given(params, params)
def test_closing_center_locus_single(t1, t2):
    if t1 == t2:
        return
    u = involution_from_fixed(t1, t2)
    locus = closing_center_locus(InvolutionChain([u]))
    c = point_on_line(locus, ConicParam(Fraction(2, 3)))
    if on_conic(c):
        return
    v = fregier(c)
    assert is_involution(InvolutionChain([u, v]).product)
    if share_fixed_point(u, v):
        return
    roots = fixed_points(v.map)
    if len(roots.params) != 2:
        return
    assert cross_ratio(t1, t2, roots.params[0], roots.params[1]) == Fraction(-1)


def test_closing_center_locus_aligned_pair_is_their_line():
    c1, c2 = ProjPoint(1, 0, -1), ProjPoint(1, 1, -1)
    chain = InvolutionChain([fregier(c1), fregier(c2)])
    locus = closing_center_locus(chain)
    assert incident(locus, c1) and incident(locus, c2)
