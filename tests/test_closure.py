"""Line configurations, chain walks, the porism test, two-line criterion."""
import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from porism.algebra import Mat2, is_scalar_multiple_of_identity, pn_polynomial
from porism.closure import (
    LineConfiguration,
    ValidityReport,
    _config_maps,
    _line_maps,
    _rational_product,
    _repeats,
    _require_valid,
    _walk_keys,
    TwoLineSystem,
    concurrent_tangent_chain,
    dual_chain,
    generate_closing,
    pole_involutions,
    poles_of,
    porism_holds,
    primal_chain,
    random_configuration,
    two_line_closure,
    validate,
    well_inscribed,
)
from porism.conic import (
    chord,
    conic_form,
    line_conic_params,
    on_conic,
    other_tangent_param,
    polar,
    pole,
    tangent_at,
    tangents_from,
    veronese,
)
from porism.errors import (
    DegenerateStart,
    FieldInsufficient,
    GenerationExhausted,
    IdentityMap,
    InvalidConfiguration,
    MixedBackend,
    NotClosed,
)
from porism.fields import QuadExt
from porism.involution import InvolutionChain, closing_center_locus, fregier
from porism.plane import (
    INFINITY,
    ConicParam,
    MobiusMap,
    ProjLine,
    ProjPoint,
    _pairs_over,
    collinear,
    cross_ratio,
    fixed_points,
    incident,
    is_involution,
    join,
    meet,
    mobius_apply,
    mobius_compose,
    point_on_line,
)
from porism.sampling import _admit, _random_param, _random_point
from porism.scene import SceneDocument
from porism.suites import SPAN
from porism.svg import render_scene

F = Fraction

# the x = 0 normal form: poles (1:0:-1) and (0:1:0), involutions 1/t and -t
X0_CONFIG = LineConfiguration([ProjLine(1, 0, -1), ProjLine(0, 1, 0)])


def test_configuration_guards():
    with pytest.raises(InvalidConfiguration):
        LineConfiguration([ProjLine(1, 0, -1)])
    with pytest.raises(InvalidConfiguration):
        LineConfiguration([ProjLine(1, 0, -1), ProjLine(2, 0, -2)])
    with pytest.raises(MixedBackend):
        LineConfiguration([ProjLine(1, 0, -1), ProjLine(0.0, 1.0, 0.0)])


def test_validate_cases():
    assert X0_CONFIG.report.valid
    assert X0_CONFIG.report.all_params == (
        ConicParam(Fraction(-1)),
        ConicParam(Fraction(1)),
        INFINITY,
        ConicParam(Fraction(0)),
    )
    tangent_member = LineConfiguration([tangent_at(ConicParam(Fraction(0))), ProjLine(1, 0, -1)])
    report = validate(tangent_member)
    assert not report.valid and report.tangent_members == (0,)
    sharing = LineConfiguration(
        [chord(ConicParam(Fraction(1)), ConicParam(Fraction(2))),
         chord(ConicParam(Fraction(1)), ConicParam(Fraction(3)))]
    )
    report = sharing.report
    assert not report.valid
    assert report.repeated_params == (ConicParam(Fraction(1)),)


def _admit_reference(line, gathered):
    """_admit on the public conic parameters of the line: not tangent, and
    both parameters new."""
    roots = line_conic_params(line)
    if roots.double or not gathered.isdisjoint(roots.params):
        return False
    gathered.update(roots.params)
    return True


def _validate_reference(config):
    """validate with every conic parameter counted for repeats."""
    groups = tuple(tuple(line_conic_params(l).params) for l in config.lines)
    tangent = tuple(i for i, l in enumerate(config.lines) if line_conic_params(l).double)
    repeated = tuple(_repeats([p for group in groups for p in group]))
    return ValidityReport(not tangent and not repeated, tangent, repeated, groups)


coefficients = st.integers(-40, 40)
rational_params = st.one_of(
    st.just(INFINITY), st.builds(ConicParam, st.fractions(-6, 6, max_denominator=6))
)
# chords through the conic points at a few shared parameters
shared = st.sampled_from([INFINITY, ConicParam(F(0)), ConicParam(F(1)), ConicParam(F(-1, 2))])
rational_lines = st.one_of(
    st.tuples(coefficients, coefficients, coefficients).filter(any).map(lambda c: ProjLine(*c)),
    st.tuples(shared, rational_params).filter(lambda pair: pair[0] != pair[1])
    .map(lambda pair: chord(*pair)),
    st.builds(tangent_at, rational_params),
)


@st.composite
def line_sequences(draw):
    """Rational lines, some of them drawn again later in the sequence."""
    lines = draw(st.lists(rational_lines, min_size=1, max_size=10))
    again = draw(st.lists(st.integers(0, len(lines) - 1), max_size=3))
    for i in again:
        lines.insert(draw(st.integers(i + 1, len(lines))), lines[i])
    return lines


@settings(max_examples=300, deadline=None)
@given(line_sequences())
def test_integer_admission_and_validation_match_the_parameter_reference(lines):
    gathered, reference = set(), set()
    for line in lines:
        assert _admit(line, gathered) == _admit_reference(line, reference)
    distinct = list(dict.fromkeys(lines))
    if len(distinct) >= 2:
        config = LineConfiguration(distinct)
        report = validate(config)
        assert report == _validate_reference(config)
        assert repr(report) == repr(_validate_reference(config))


@settings(max_examples=300, deadline=None)
@example([tangent_at(ConicParam(F(0))), ProjLine(1, 0, -1)])  # a tangent member
@example([chord(ConicParam(F(1)), ConicParam(F(2))),  # a shared rational parameter
          chord(ConicParam(F(1)), ConicParam(F(3)))])
@example([ProjLine(2, 1, 0), ProjLine(1, 0, -1)])  # l2 = 0: the parameter at infinity
@example([ProjLine(2, 1, 0), ProjLine(0, 1, 0)])  # infinity on both lines
@example([ProjLine(1, 3, 1), ProjLine(1, 1, 1), ProjLine(1, 0, -1)])  # non-square discriminants
@given(line_sequences())
def test_integer_validity_matches_the_report(lines):
    distinct = list(dict.fromkeys(lines))
    assume(len(distinct) >= 2)
    config = LineConfiguration(distinct)
    reference = _validate_reference(config).valid
    assert validate(config).valid == reference
    try:
        _require_valid(config)
        fast = True
    except InvalidConfiguration:
        fast = False
    assert fast == reference
    # a valid configuration is decided without its report
    assert (config._report is None) == fast
    if fast:
        try:
            dual_chain(config, ConicParam(F(1, 7)))
        except DegenerateStart:
            pass
        rational = {(u, 0, v) for u, v in (t.pair() for t in validate(config).all_params)
                    if type(u) is int}
        assert config._forbidden == {0: rational}
    assert config.report == validate(config)
    assert repr(config.report) == repr(validate(config))


def test_validate_refuses_a_member_whose_parameters_leave_its_field():
    # the second polar is over Q(sqrt 2), and its discriminant 48 is no
    # square there: its conic parameters lie in Q(sqrt 2, sqrt 3)
    poles = [ProjPoint(0, 0, SQRT2), ProjPoint(1, -2 + SQRT2, -4 * SQRT2)]
    config = LineConfiguration([polar(p) for p in poles])
    for check in (validate, porism_holds, lambda c: dual_chain(c, ConicParam(F(1)))):
        with pytest.raises(FieldInsufficient, match="member 1"):
            check(config)


def test_validate_refuses_a_member_whose_discriminant_is_no_square_in_its_field():
    # the first line's discriminant 2 - 4 sqrt 2 has norm -28, so it is no
    # square in Q(sqrt 2), and the line has no conic parameters there
    config = LineConfiguration([ProjLine(1, SQRT2, SQRT2), ProjLine(1, 0, -1)])
    for check in (validate, porism_holds, lambda c: dual_chain(c, ConicParam(F(3)))):
        with pytest.raises(FieldInsufficient, match="member 0"):
            check(config)


def _pairwise_repeats(items):
    """_repeats' definition: each value with a later equal one, at its first
    occurrence, in order."""
    repeated = []
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] == items[j] and items[i] not in repeated:
                repeated.append(items[i])
    return repeated


# 1 + sqrt(8) written over d = 2 and over d = 8, its conjugate, and a
# neighbour with the same rational part in another field
exact_params = st.one_of(
    st.builds(ConicParam, st.fractions(min_value=-3, max_value=3, max_denominator=2)),
    st.sampled_from(
        [
            INFINITY,
            ConicParam(QuadExt(1, 2, 2)),
            ConicParam(QuadExt(1, 1, 8)),
            ConicParam(QuadExt(1, -1, 8)),
            ConicParam(QuadExt(1, 1, 3)),
        ]
    ),
)


@given(st.lists(exact_params, max_size=12))
def test_repeats_match_the_pairwise_scan(items):
    fast, slow = _repeats(items), _pairwise_repeats(items)
    assert fast == slow
    assert [repr(x) for x in fast] == [repr(x) for x in slow]


def test_repeats_of_float_values_compare_within_tolerance():
    items = [ConicParam(0.5), INFINITY, ConicParam(-2.0), ConicParam(0.5 + 1e-12), INFINITY]
    assert _repeats(items) == [ConicParam(0.5), INFINITY]
    config = LineConfiguration(
        [chord(ConicParam(Fraction(1)), ConicParam(Fraction(2))),
         chord(ConicParam(Fraction(1)), ConicParam(Fraction(3)))]
    ).as_float()
    assert config.report.repeated_params == (ConicParam(1.0),)
    with pytest.raises(InvalidConfiguration):
        LineConfiguration([ProjLine(1.0, 0.0, -1.0), ProjLine(2.0, 0.0, -2.0 + 1e-12)])


def test_reprs_write_ints_past_the_digit_limit_by_bit_length(digit_limit_640):
    huge = 10**700  # 2326 bits
    assert repr(ProjPoint(huge, -1, 3)) == "ProjPoint(<2326-bit int>:-1:3)"
    assert repr(ConicParam(F(-huge, 3))) == "ConicParam(-<2326-bit int>/3)"
    assert repr(QuadExt(F(1, huge), 3, 2)) == "QuadExt(1/<2326-bit int>, 3, d=2)"
    assert repr(MobiusMap(huge, 0, 0, 1)) == "MobiusMap([[<2326-bit int>, 0], [0, 1]])"
    assert repr(ConicParam(F(2, 3))) == "ConicParam(2/3)"
    # so the typed errors whose messages name such values stay typed
    line = chord(ConicParam(F(huge)), ConicParam(F(0)))
    with pytest.raises(InvalidConfiguration, match="repeated line ProjLine"):
        LineConfiguration([line, line])
    config = LineConfiguration([line, ProjLine(1, 0, -1)])
    with pytest.raises(DegenerateStart, match=r"^ConicParam\(<2326-bit int>\) lies on"):
        dual_chain(config, ConicParam(F(huge)))
    roots = [QuadExt(0, 1, huge + k) for k in (3, 7)]  # non-squares, ending in 3 and 7
    with pytest.raises(MixedBackend, match=r"radicands \[<2326-bit int>, <2326-bit int>\]$"):
        LineConfiguration([ProjLine(1, r, 1) for r in roots])
    with pytest.raises(MixedBackend, match=r"radicands \[<2326-bit int>, <2326-bit int>\]$"):
        ProjLine(1, *roots)
    with pytest.raises(MixedBackend, match="radicands <2326-bit int> and <2326-bit int>$"):
        incident(ProjLine(1, roots[0], 1), ProjPoint(1, roots[1], 1))
    with pytest.raises(MixedBackend, match=r"Q\(sqrt\(<2326-bit int>\)\)$"):
        roots[0] + roots[1]


def test_poles_frozen():
    config = LineConfiguration([ProjLine(1, 0, 1), ProjLine(0, 1, 0)])
    assert poles_of(config)[0] == ProjPoint(1, 0, 1)
    assert poles_of(X0_CONFIG) == (ProjPoint(1, 0, -1), ProjPoint(0, 1, 0))


def test_poles_require_validity():
    bad = LineConfiguration([tangent_at(ConicParam(Fraction(0))), ProjLine(1, 0, -1)])
    with pytest.raises(InvalidConfiguration):
        poles_of(bad)


def test_porism_holds_frozen():
    assert porism_holds(X0_CONFIG)
    chain = pole_involutions(X0_CONFIG)
    assert chain.members[0].map == MobiusMap(0, 1, 1, 0)
    assert chain.members[1].map == MobiusMap(1, 0, 0, -1)
    assert chain.product == MobiusMap(0, -1, 1, 0)  # t -> -1/t


def test_dual_chain_frozen():
    chain = dual_chain(X0_CONFIG, ConicParam(Fraction(3)))
    values = [t.value for t in chain.params]
    assert values == [3, Fraction(1, 3), Fraction(-1, 3), -3, 3]
    assert chain.closed
    assert chain.mode == "dual"
    assert well_inscribed(chain, X0_CONFIG)


def test_dual_chain_builds_the_forbidden_set_once():
    config = LineConfiguration(X0_CONFIG.lines)
    dual_chain(config, ConicParam(Fraction(3)))
    forbidden = config._forbidden
    # per radicand, the int keys (u0, u1, v) of -1, 1, infinity and 0
    assert forbidden == {0: frozenset({(-1, 0, 1), (1, 0, 1), (1, 0, 0), (0, 0, 1)})}
    keys = forbidden[0]
    with pytest.raises(DegenerateStart):
        dual_chain(config, ConicParam(Fraction(1)))
    dual_chain(config, ConicParam(Fraction(5)))
    assert config._forbidden is forbidden  # built once per configuration
    assert forbidden[0] is keys


def test_dual_chain_degenerate_starts():
    with pytest.raises(DegenerateStart):
        dual_chain(X0_CONFIG, ConicParam(Fraction(1)))  # config meets D here
    with pytest.raises(DegenerateStart):
        dual_chain(X0_CONFIG, INFINITY)


SQRT2 = QuadExt(0, 1, 2)
# a valid configuration over Q(sqrt 2) on which the porism fails
SQRT2_CONFIG = LineConfiguration(
    [ProjLine(F(1, 4), SQRT2, 1), ProjLine(F(-7, 4), SQRT2, 1), ProjLine(1, 2 * SQRT2, 1)]
)


def test_dual_chain_over_an_extension_configuration_frozen():
    assert SQRT2_CONFIG.report.valid and not porism_holds(SQRT2_CONFIG)
    chain = dual_chain(SQRT2_CONFIG, ConicParam(F(3)))
    assert [_frozen(t.value) for t in chain.params] == [
        3,
        (F(3, 34), F(-35, 68), 2),
        (27, 4, 2),
        (F(27, 679), F(-684, 679), 2),
        (F(-27, 1394), F(-2083, 2788), 2),
        (F(243, 679), F(-3440, 679), 2),
        (F(-243, 22367), F(-25128, 22367), 2),
    ]
    assert not chain.closed
    assert veronese(chain.params[2]) == ProjPoint(1, QuadExt(27, 4, 2), QuadExt(761, 216, 2))


def test_a_chain_over_an_extension_configuration_renders():
    # the SVG places Q(sqrt 2) lines and chain points through QuadExt.__float__
    doc = SceneDocument.from_configuration(
        SQRT2_CONFIG, chains=[dual_chain(SQRT2_CONFIG, ConicParam(F(3))).params]
    )
    svg = render_scene(doc)
    assert svg.startswith("<svg") and svg.endswith("</svg>\n")
    assert svg.count('class="cfgline"') == 3 and svg.count('class="vertex"') == 7


def test_dual_chain_refuses_a_second_radicand():
    with pytest.raises(MixedBackend):
        dual_chain(SQRT2_CONFIG, ConicParam(QuadExt(1, 1, 3)))


def test_dual_chain_refuses_float_starts_and_configurations():
    config = generate_closing(4, 0)
    with pytest.raises(MixedBackend):
        dual_chain(config, ConicParam(0.3))
    with pytest.raises(MixedBackend):
        dual_chain(config.as_float(), ConicParam(F(3)))
    with pytest.raises(MixedBackend):
        dual_chain(config.as_float(), ConicParam(0.3))


def test_porism_holds_refuses_float_configurations():
    # no float decides a verdict: the float lines of a closing and of an
    # open configuration both raise
    for config in (X0_CONFIG, generate_closing(4, 0), random_configuration(4, 0)):
        with pytest.raises(MixedBackend):
            porism_holds(config.as_float())


def test_a_configuration_over_two_radicands_is_refused():
    # the chords through (1, sqrt 2), (sqrt 3, 2) and (5, 7) lie over the
    # radicands 2 and 3 and Q
    ends = [(1, QuadExt(0, 1, 2)), (QuadExt(0, 1, 3), 2), (5, 7)]
    lines = [chord(ConicParam(s), ConicParam(t)) for s, t in ends]
    assert [l._D for l in lines] == [2, 3, None]
    with pytest.raises(MixedBackend, match=r"radicands \[2, 3\]"):
        LineConfiguration(lines)
    assert LineConfiguration(lines[1:]).report.valid  # one radicand and Q


def _reference_step(a, b, c, key):
    """The key of [[a, b], [c, -a]] applied to a rational key, reduced by
    the full gcd of the image pair."""
    u, _, v = key
    p, q = a * u + b * v, c * u - a * v
    g = math.gcd(p, q)
    if (q or p) < 0:
        g = -g
    return p // g, 0, q // g


big = st.integers(-(2**200), 2**200)


@settings(max_examples=300, deadline=None)
@example(1, 1, -1, (3, 0, 1))  # det = 0
@example(2, -4, 1, (5, 0, 7))  # det = 0
@example(3, 5, 7, (1, 0, 0))  # the infinity key
@example(0, 6, -10, (1, 0, 0))  # infinity with det = 60
@example(6, 0, 9, (0, 0, 1))
@given(st.one_of(big, st.integers(-50, 50)), st.one_of(big, st.integers(-50, 50)),
       st.one_of(big, st.integers(-50, 50)),
       st.one_of(st.just((1, 0, 0)),
                 st.builds(lambda t: (t.numerator, 0, t.denominator),
                           st.fractions(max_denominator=2**64))))
def test_the_det_reduced_step_is_the_full_gcd_step(a, b, c, key):
    # adj(M) (p, q) = det(M) (u, v): gcd(p, q) divides det for a coprime
    # key, and det = 0 falls back to gcd(p, q)
    u, _, v = key
    assume(a * u + b * v or c * u - a * v)  # a singular map's kernel has no image
    det = -(a * a + b * c)
    step = _walk_keys(((a, 0, b, 0, c, 0, det),), 0, key, [0])
    assert step == [key, _reference_step(a, b, c, key)]


def _public_dual_walk(config, start):
    """The dual walk by the public Mobius action on ConicParams, with
    dual_chain's checks: its params, or None where it must raise
    DegenerateStart."""
    members = pole_involutions(config).members
    forbidden = set(config.report.all_params)
    params = [start]
    if start in forbidden:
        return None
    for step in range(2 * config.n):
        nxt = mobius_apply(members[step % config.n].map, params[-1])
        if nxt == params[-1] or nxt in forbidden:
            return None
        if step < 2 * config.n - 1 and nxt in params:
            return None
        params.append(nxt)
    return tuple(params)


def _assert_dual_walks_agree(config, start):
    expected = _public_dual_walk(config, start)
    if expected is None:
        with pytest.raises(DegenerateStart):
            dual_chain(config, start)
        return
    chain = dual_chain(config, start)
    assert chain.params == expected
    assert [repr(t) for t in chain.params] == [repr(t) for t in expected]
    assert chain.closed == (expected[-1] == expected[0])


generators = st.sampled_from([generate_closing, random_configuration])


@settings(max_examples=40, deadline=None)
@given(generators, st.integers(2, 48), st.integers(0, 2**16), st.fractions(max_denominator=30))
def test_dual_chain_is_the_iterated_mobius_action(generator, n, seed, start):
    config = generator(n, seed)
    _assert_dual_walks_agree(config, ConicParam(start))
    # the trace of the maps' product decides as the public product does
    fresh = LineConfiguration(config.lines)
    assert porism_holds(config) == is_involution(pole_involutions(fresh).product)
    # a generator hands over the maps and admitted keys a fresh reading gives
    assert config._maps == _config_maps(fresh)
    assert config._admitted == fresh._admitted


@settings(max_examples=40, deadline=None)
@given(generators, st.integers(2, 6), st.integers(0, 2**16), st.fractions(max_denominator=9),
       st.integers(0, 11))
def test_dual_chain_from_extension_starts(generator, n, seed, point, pick):
    # the edge parameters of a primal walk lie in Q(sqrt d) for most starts
    config = generator(n, seed)
    start = point_on_line(config.lines[0], ConicParam(point))
    try:
        edges = primal_chain(config, start).params
    except DegenerateStart:
        return
    _assert_dual_walks_agree(config, edges[pick % len(edges)])


small = st.integers(-4, 4)
over_sqrt2 = st.builds(lambda a, b: a + b * QuadExt(0, 1, 2), small, small)


@settings(max_examples=60, deadline=None)
@example([(2, SQRT2, 0), (1, 2, 3)], ConicParam(F(1, 3)))  # only c irrational
@example([(2, 3, 2 * SQRT2), (3, 2, 1)], ConicParam(F(5)))  # only b irrational
@example([(2, 4 * SQRT2, 8), (2, SQRT2, 0)], ConicParam(F(5)))
@example([(2, 1 + SQRT2, 2 * SQRT2), (2, 5, 12)], ConicParam(F(5)))  # lead 2 + sqrt 2
@given(st.lists(st.builds(lambda s, t: (2, s + t, 2 * s * t), over_sqrt2, over_sqrt2),
                min_size=2, max_size=5),
       st.one_of(st.builds(lambda a, b: ConicParam(Fraction(a, b)), small, st.integers(1, 4)),
                 st.builds(ConicParam, over_sqrt2.filter(lambda x: isinstance(x, QuadExt)))))
def test_dual_chain_over_extension_configurations(poles, start):
    # each member is the chord through two parameters s, t in Q(sqrt 2), with
    # pole (2 : s + t : 2st): validate refuses a member whose parameters leave
    # Q(sqrt 2), and a member's b or c, or both, may lie in it
    points = [ProjPoint(*x) for x in poles]
    assume(len(set(points)) == len(points))
    config = LineConfiguration([polar(p) for p in points])
    try:
        valid = config.report.valid
    except FieldInsufficient:  # a member's parameters leave Q(sqrt 2)
        valid = False
    assume(valid)
    _assert_dual_walks_agree(config, start)
    assert porism_holds(config) == is_involution(pole_involutions(config).product)


def test_dual_chain_steps_through_infinity_and_degenerate_words():
    for config in [SQRT2_CONFIG] + [random_configuration(3, seed) for seed in range(4)]:
        u = [f.map for f in pole_involutions(config).members]
        # the first step lands on infinity, which no member line meets here
        assert INFINITY not in config.report.all_params
        _assert_dual_walks_agree(config, mobius_apply(u[0], INFINITY))
        # a fixed point of u_2 u_1 returns at the second step
        for t in fixed_points(mobius_compose(u[1], u[0])).params:
            _assert_dual_walks_agree(config, t)
            with pytest.raises(DegenerateStart, match="revisits"):
                dual_chain(config, t)
        # the first step lands on a parameter of the second line, which u_2
        # then fixes, or of the last, whose map is not the next step's
        for p in config.report.params[1] + config.report.params[-1]:
            _assert_dual_walks_agree(config, mobius_apply(u[0], p))
            with pytest.raises(DegenerateStart, match="hit configuration parameter"):
                dual_chain(config, mobius_apply(u[0], p))


def test_dual_chain_start_at_a_parameter_of_the_first_line_lies_on_it():
    # the fixed points of u_1 are the parameters of L_1 (and likewise for
    # every u_k), so no step of a walk from an admitted start is ever fixed
    for config in [X0_CONFIG, SQRT2_CONFIG] + [random_configuration(3, seed) for seed in range(4)]:
        u1 = pole_involutions(config).members[0].map
        params = config.report.params[0]
        assert set(fixed_points(u1).params) == set(params)
        for t in params:
            with pytest.raises(DegenerateStart, match="lies on a configuration line"):
                dual_chain(config, t)


def test_dual_chain_detects_configuration_parameters_over_any_radicand():
    checked = 0
    for seed in range(4):
        config = random_configuration(3, seed)
        for t in config.report.all_params:
            u, _ = t.pair()
            if isinstance(u, QuadExt):
                # u = a + b sqrt(D), written over 4 D
                for same in (t, ConicParam(QuadExt(u.a, u.b / 2, 4 * u.d))):
                    with pytest.raises(DegenerateStart, match="lies on a configuration line"):
                        dual_chain(config, same)
                checked += 1
    assert checked >= 16


def test_dual_chain_open_on_random_config():
    config = random_configuration(3, seed=5)
    assert not porism_holds(config)
    rng = random.Random(1)
    for _ in range(5):
        try:
            chain = dual_chain(config, ConicParam(Fraction(rng.randint(-30, 30), rng.randint(1, 9))))
        except DegenerateStart:
            continue
        assert not chain.closed


def test_well_inscribed_requires_closed():
    config = random_configuration(3, seed=5)
    rng = random.Random(2)
    for _ in range(10):
        try:
            chain = dual_chain(config, ConicParam(Fraction(rng.randint(-30, 30), rng.randint(1, 9))))
        except DegenerateStart:
            continue
        with pytest.raises(NotClosed):
            well_inscribed(chain, config)
        break


def _exact_outside_start(config, rng):
    line = config.lines[0]
    while True:
        p = point_on_line(line, ConicParam(Fraction(rng.randint(-40, 40), rng.randint(1, 10))))
        if conic_form(p) != 0:
            return p


def test_primal_chain_closes_on_x0():
    rng = random.Random(3)
    for _ in range(4):
        start = _exact_outside_start(X0_CONFIG, rng)
        try:
            chain = primal_chain(X0_CONFIG, start)
        except DegenerateStart:
            continue
        assert chain.mode == "primal"
        assert len(chain.vertices) == 5  # A_1 .. A_5 with A_5 = A_1
        assert chain.vertices[-1] == chain.vertices[0]
        assert chain.closed
        assert well_inscribed(chain, X0_CONFIG)


def test_primal_chain_second_branch_also_closes():
    rng = random.Random(4)
    start = _exact_outside_start(X0_CONFIG, rng)
    chain = primal_chain(X0_CONFIG, start, branch="second")
    assert chain.closed


def test_primal_chain_degenerate_starts():
    corner = meet(X0_CONFIG.lines[0], X0_CONFIG.lines[1])
    with pytest.raises(DegenerateStart):
        primal_chain(X0_CONFIG, corner)
    on_d = ProjPoint(1, 1, 1)  # on the conic and on x0 - x2 = 0
    with pytest.raises(DegenerateStart):
        primal_chain(X0_CONFIG, on_d)


def test_primal_chain_float_backend():
    # the start must sit outside the conic or the float walk has no real tangents
    chain = primal_chain(X0_CONFIG.as_float(), ProjPoint(1.0, 2.0, 1.0))
    assert chain.closed
    assert chain.vertices[0].kind == "float"


def test_primal_chain_float_inside_start_raises():
    with pytest.raises(FieldInsufficient, match="float backend's reach"):
        primal_chain(X0_CONFIG.as_float(), ProjPoint(2.0, 0.5, 2.0))


def test_primal_chain_names_the_field_an_exact_start_leaves():
    # the tangent discriminant 20 + 16 sqrt(2) from this start is no square
    # in Q(sqrt 2); no float is involved
    start = point_on_line(SQRT2_CONFIG.lines[0], ConicParam(F(1)))
    with pytest.raises(FieldInsufficient, match=r"outside Q\(sqrt\(2\)\)$"):
        primal_chain(SQRT2_CONFIG, start)


def test_primal_dual_transport():
    config = generate_closing(3, seed=11)
    rng = random.Random(7)
    transported = 0
    while transported < 3:
        start = _exact_outside_start(config, rng)
        try:
            chain = primal_chain(config, start)
        except (DegenerateStart, FieldInsufficient):
            continue
        dual = dual_chain(config, chain.params[-1])
        assert dual.closed == chain.closed
        assert dual.params[1:] == chain.params
        transported += 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_generate_closing_produces_closing_configs(n):
    config = generate_closing(n, seed=100 + n)
    assert config.n == n
    assert config.report.valid
    assert porism_holds(config)
    # the centers are the poles: the last one lies on the closing locus of
    # the first n - 1
    chain = pole_involutions(config)
    head = InvolutionChain(chain.members[:-1])
    assert incident(closing_center_locus(head), chain.members[-1].center)
    rng = random.Random(n)
    closed = 0
    while closed < 5:
        try:
            chain = dual_chain(
                config, ConicParam(Fraction(rng.randint(-40, 40), rng.randint(1, 12)))
            )
        except DegenerateStart:
            continue
        assert chain.closed
        assert well_inscribed(chain, config)
        closed += 1


def test_generate_closing_two_lines_harmonic():
    config = generate_closing(2, seed=23)
    u, v = pole_involutions(config).members
    fu = fixed_points(u.map).params
    fv = fixed_points(v.map).params
    assert cross_ratio(fu[0], fu[1], fv[0], fv[1]) == Fraction(-1)


def test_generate_closing_pole_alignment_by_n():
    # a product of three involutions is involutive exactly when the centers
    # align, so every closing 3-line config has collinear poles; with four
    # lines the fourth pole moves off the line of the first three
    for seed in range(4):
        config = generate_closing(3, seed=seed)
        assert porism_holds(config)
        assert collinear(poles_of(config))
    config = generate_closing(4, seed=2)
    assert porism_holds(config)
    assert not collinear(poles_of(config))


coord = st.integers(-9, 9)


@settings(max_examples=200, deadline=None)
@example([(1, 0, -1), (0, 1, 0), (1, 0, 1)])  # the maps compose to 4 I
@given(st.lists(st.tuples(coord, coord, coord).filter(any), min_size=1, max_size=12))
def test_locus_of_the_integer_product_is_the_closing_center_locus(triples):
    # the maps read off the lines compose as the pole involutions do: the
    # same locus, and a scalar product where closing_center_locus refuses
    gathered, lines = set(), []
    for t in triples:
        line = ProjLine(*t)
        if _admit(line, gathered):
            lines.append(line)
    assume(lines)
    a, b, c, d = _rational_product(_line_maps([_pairs_over(l, 0) for l in lines]))
    chain = InvolutionChain([fregier(pole(l)) for l in lines])
    if b or c or a - d:
        assert ProjLine(b, a - d, -c) == closing_center_locus(chain)
    else:
        with pytest.raises(IdentityMap):
            closing_center_locus(chain)


def test_generate_closing_rejects_a_scalar_product_before_drawing_a_center(monkeypatch):
    # the polars of these poles are the lines (1, 0, -1), (0, 1, 0), (1, 0, 1)
    poles = iter([ProjPoint(1, 0, -1), ProjPoint(0, 1, 0), ProjPoint(1, 0, 1)])
    monkeypatch.setattr("porism.closure._random_point", lambda rng: next(poles))
    drawn = []
    monkeypatch.setattr("porism.closure._random_param",
                        lambda *args: drawn.append(args) or _random_param(*args))
    with pytest.raises(GenerationExhausted, match=r"^no closing configuration after 1 tries$"):
        generate_closing(4, 0, max_tries=1)
    assert drawn == []


@pytest.mark.parametrize("seed", [0, 1])
def test_large_n_closing_and_random_configurations(seed):
    n = 64
    config = generate_closing(n, seed)
    assert config.n == n and config.report.valid
    assert porism_holds(config)
    # line coefficients grow linearly in n: 225-259 bits at n = 64, seeds 0-2
    bits = max(abs(c.numerator).bit_length() for l in config.lines for c in l.coords)
    assert bits <= 6 * n
    rng = random.Random(seed)
    while True:
        try:
            chain = dual_chain(config, ConicParam(Fraction(rng.randint(-40, 40), rng.randint(1, 12))))
        except DegenerateStart:
            continue
        break
    assert chain.closed and well_inscribed(chain, config)
    assert not porism_holds(random_configuration(n, seed))


@settings(max_examples=50, deadline=None)
@given(st.integers(16, 128), st.integers(0, 2**32))
def test_large_n_generators_give_valid_configurations(n, seed):
    closing, opened = generate_closing(n, seed), random_configuration(n, seed)
    assert closing.n == opened.n == n
    assert closing.report.valid and opened.report.valid
    assert porism_holds(LineConfiguration(closing.lines))
    # at most 4.44 n bits over n in [16, 128] at 240 sampled (n, seed) pairs
    bits = max(abs(c).bit_length() for l in closing.lines for c in l.coords)
    assert bits <= 6 * n


def test_generate_closing_at_n_128():
    # a whole-candidate redraw exhausted 400 tries here
    config = generate_closing(128, 0)
    assert config.report.valid and porism_holds(LineConfiguration(config.lines))


def test_generators_at_n_4096():
    # the default budget grows with n: 400 tries, the old default, fell
    # short from about n = 2048 on
    closing, opened = generate_closing(4096, 0), random_configuration(4096, 0)
    assert closing.n == opened.n == 4096
    assert closing.report.valid and opened.report.valid
    assert porism_holds(LineConfiguration(closing.lines)) and not porism_holds(opened)


# outputs that a generator accepting its first candidate gives, so redrawing
# one pole at a time must not change them
GENERATOR_DIGESTS = {
    (generate_closing, 32, 2): "deda1dea6609a5c876f6ad985f66851262c868122d94b710dc911a9529d2ad59",
    (random_configuration, 32, 2): "5a5d61d22424f9f8436526657025b9cdc19f5108d501599554a526920d660e80",
    (generate_closing, 32, 4): "d5a956c0d5261c48bdb091d83e848e03e05e5ff8b37bc11b0843850f899f2568",
    (random_configuration, 32, 4): "e3f114eda04c656cc929abc1c8dc0822bee588a0822f4fe49251c830abc9706d",
    (generate_closing, 32, 14): "dce141eb4a15f4fcf2ad40c6830dabc1a31873cacdaff2f1630ca5fc27b8f031",
    (random_configuration, 32, 14): "6bf2334f38f6e3ac61b1684f4fd9283373e7cd1b879d43fad63f8341e1c6c1e8",
    (generate_closing, 16, 8): "4903c601681191ecefad76737542f26aca1121c21334adec3af9c1e0dc3ea1c9",
    (generate_closing, 1024, 0): "3ab95348d32c389be33eb63e7420153c2a033ae07388d16099e0b05fdbc298e9",
    (random_configuration, 1024, 0): "149e32a740cbf10f640365a8ec96f49a37e058db84c3c394c468e3f3c9d5799f",
}


@pytest.mark.parametrize(
    "generator, n, seed", list(GENERATOR_DIGESTS), ids=lambda x: getattr(x, "__name__", x)
)
def test_generator_outputs_frozen(generator, n, seed):
    digest = hashlib.sha256(repr(generator(n, seed).lines).encode()).hexdigest()
    assert digest == GENERATOR_DIGESTS[generator, n, seed]


# n = 2 ... 64 and seeds 0 ... 9, all lines of each generator in one digest:
# the lines the generators gave when they sampled and admitted through
# Fraction and QuadExt values
ALL_GENERATOR_DIGESTS = {
    generate_closing: "3026e095ce86d9f5848f525ba7d3ecad42535f230db2b73ec8ff7beff7246927",
    random_configuration: "18668852a1d81129ec39c832796533143a227bfa79a44472134fbec0ac33b7b0",
}


@pytest.mark.parametrize("generator", list(ALL_GENERATOR_DIGESTS), ids=lambda g: g.__name__)
def test_generator_outputs_frozen_over_small_n(generator):
    digest = hashlib.sha256()
    for n in range(2, 65):
        for seed in range(10):
            digest.update(repr(generator(n, seed).lines).encode())
    assert digest.hexdigest() == ALL_GENERATOR_DIGESTS[generator]


@pytest.mark.parametrize("generator", [generate_closing, random_configuration],
                         ids=lambda g: g.__name__)
def test_generators_build_no_fraction(generator, no_fraction_built):
    for seed in range(3):
        with no_fraction_built():
            generator(32, seed)


@pytest.mark.parametrize("span", [9, SPAN])
@example(seed=7661)  # the first draw at span 9 is (0 : 0 : 0)
@example(seed=6423)  # and at span 12
@given(st.integers(0, 2**32))
def test_random_point_draws_three_random_fractions(span, seed):
    # the reference draws with the stdlib's randint, so this pins the
    # getrandbits reading of the draws on every interpreter that runs it
    rng, twin = random.Random(seed), random.Random(seed)
    point = _random_point(rng, span)
    while True:
        coords = [F(twin.randint(-span, span), twin.randint(1, span)) for _ in range(3)]
        if any(coords):
            break
    assert point == ProjPoint(*coords)
    assert rng.getstate() == twin.getstate()
    # the CLI's chain start
    assert _random_param(rng, 60, 20) == ConicParam(F(twin.randint(-60, 60), twin.randint(1, 20)))
    assert rng.getstate() == twin.getstate()


def test_random_configuration_generically_open():
    config = random_configuration(4, seed=9)
    assert config.report.valid
    assert not porism_holds(config)


def _pencil(apex, direction_points):
    return [join(apex, q) for q in direction_points]


def _tangent_chain_walk(lines):
    """Walk from the first start on lines[0] that avoids every degeneracy.

    A start can be off the conic and off the other lines and still send the
    walk through the pencil apex (when an edge tangent happens to pass
    through it), so failed walks are skipped rather than pre-filtered.
    """
    for k in range(1, 60):
        p = point_on_line(lines[0], ConicParam(Fraction(k, 7)))
        if conic_form(p) == 0 or any(incident(l, p) for l in lines[1:]):
            continue
        try:
            return concurrent_tangent_chain(lines, p)
        except DegenerateStart:
            continue
    raise AssertionError("no usable start on the first line")


def test_concurrent_tangent_chain_three_lines():
    apex = ProjPoint(5, 1, 2)
    lines = _pencil(apex, [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1)])
    closure = _tangent_chain_walk(lines)
    assert len(closure.vertices) == 6
    assert closure.closing_tangent
    assert closure.discriminant == 0
    # the pencil walk shares primal_chain's branch check
    with pytest.raises(ValueError):
        concurrent_tangent_chain(lines, closure.vertices[0], branch="third")


def test_concurrent_tangent_chain_five_lines():
    apex = ProjPoint(3, 1, -2)
    # direction points chosen off every line through two others and the apex,
    # so the pencil really has five distinct members
    dirs = [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0), ProjPoint(0, 0, 1),
            ProjPoint(1, 1, 0), ProjPoint(1, 0, 1)]
    lines = _pencil(apex, dirs)
    assert len({l.coords for l in lines}) == 5
    closure = _tangent_chain_walk(lines)
    assert closure.closing_tangent
    assert closure.discriminant == 0


def test_non_concurrent_perturbation_not_tangent():
    apex = ProjPoint(5, 1, 2)
    lines = _pencil(apex, [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0)])
    lines.append(ProjLine(7, -1, 3))  # misses the apex
    closure = _tangent_chain_walk(lines)
    assert not closure.closing_tangent
    assert closure.discriminant != 0


def test_concurrent_tangent_chain_rejects_even_or_tiny():
    apex = ProjPoint(5, 1, 2)
    lines = _pencil(apex, [ProjPoint(1, 0, 0), ProjPoint(0, 1, 0),
                           ProjPoint(0, 0, 1), ProjPoint(1, 1, 0)])
    start = point_on_line(lines[0], ConicParam(Fraction(1, 2)))
    with pytest.raises(InvalidConfiguration):
        concurrent_tangent_chain(lines, start)
    with pytest.raises(InvalidConfiguration):
        concurrent_tangent_chain(lines[:2], start)


# Exact walks recorded before the walk ran on integer pairs: a closing
# 3-line configuration from a start with real tangents over Q(sqrt 60), both
# branches, and from a start whose first tangent is the one at infinity; an
# open configuration from a start with imaginary tangents; and a pencil
# through (0 : 1 : 0). A scalar a + b sqrt(d) is written (a, b, d), the
# parameter at infinity None.

FROZEN_REAL_FIRST = (
    [
        (10, -5, 1),
        (2260, (-6480, 214, 60), (6860, -749, 60)),
        (58260540, (-143228650, 3521691, 60), (-105888580, 8217279, 60)),
        (5073049410, (-13937010905, -2442461715, 60), (-4052889539, -976984686, 60)),
        (660033660, (-2638262560, -278523354, 60), (4613683340, 974831739, 60)),
        (368940, (-494770, 9309, 60), (291340, 21721, 60)),
        (10, -5, 1),
    ],
    [
        (F(-1, 2), F(1, 20), 60),
        (F(-1183, 226), F(63, 452), 60),
        (F(16379, 51558), F(-3177, 171860), 60),
        (F(-228757, 39358), F(-371709, 393580), 60),
        (F(-80507, 36894), F(2471, 24596), 60),
        (F(-1, 2), F(-1, 20), 60),
    ],
    True,
)

FROZEN_REAL_SECOND = (
    [
        (10, -5, 1),
        (2260, (-6480, -214, 60), (6860, 749, 60)),
        (58260540, (-143228650, -3521691, 60), (-105888580, -8217279, 60)),
        (5073049410, (-13937010905, 2442461715, 60), (-4052889539, 976984686, 60)),
        (660033660, (-2638262560, 278523354, 60), (4613683340, -974831739, 60)),
        (368940, (-494770, -9309, 60), (291340, -21721, 60)),
        (10, -5, 1),
    ],
    [
        (F(-1, 2), F(-1, 20), 60),
        (F(-1183, 226), F(-63, 452), 60),
        (F(16379, 51558), F(3177, 171860), 60),
        (F(-228757, 39358), F(371709, 393580), 60),
        (F(-80507, 36894), F(-2471, 24596), 60),
        (F(-1, 2), F(1, 20), 60),
    ],
    True,
)

FROZEN_AT_INFINITY_FIRST = (
    [
        (0, 5, 2),
        (0, 2, -7),
        (1560, -1867, 1757),
        (1283100, -543155, 167668),
        (1860495, -4184582, 1622572),
        (11310, -23159, -9716),
        (0, 5, 2),
    ],
    [
        None,
        F(-7, 4),
        F(-251, 390),
        F(-334, 1645),
        F(-4858, 1131),
        F(1, 5),
    ],
    True,
)

FROZEN_AT_INFINITY_SECOND = (
    [
        (0, 5, 2),
        (65, -116, -49),
        (4290, -7877, -1568),
        (3300, -4955, -992),
        (60, -58, -217),
        (0, 3, 7),
        (0, 5, 2),
    ],
    [
        F(1, 5),
        F(-49, 13),
        F(16, 165),
        F(-31, 10),
        F(7, 6),
        None,
    ],
    True,
)

FROZEN_OPEN_IMAGINARY = (
    [
        (8, -5, 21),
        (2464, (1650, 87, -572), (-3740, 290, -572)),
        (61600, (68486, 217, -572), 31680),
        (7400288000, (-1830256370, -1006065, -572), (-1443007104, 7511952, -572)),
        (
            117881527861364480,
            (77469199200610734, 54943757738415, -572),
            (-183825065478081020, 183145859128050, -572),
        ),
        (
            7446309968783026619600,
            (8626325213412870214214, 434522799535875225, -572),
            3829530841088413690080,
        ),
        (
            111370924673481134292340192000,
            (-27686748836422227975389158870, -221798332919687688698625, -572),
            (-20654579896404680297288839104, 1656094219133668075616400, -572),
        ),
    ],
    [
        (F(-5, 8), F(1, 16), -572),
        (F(55, 28), F(5, 616), -572),
        (F(363, 1400), F(-3, 2800), -572),
        (F(-7970431, 10571840), F(3381, 4228736), -572),
        (F(23062481045, 11150521372), F(2958375, 22301042744), -572),
        (F(41512465881, 166949816075), F(-30429, 1907997898), -572),
    ],
    False,
)

FROZEN_PENCIL = (
    [
        (16, 7, -8),
        (2048, (70, 59, 708), 864),
        (1824768, (-222110, 32249, 708), 221184),
        (14598144, (12031838, -728345, 708), -7299072),
        (540672, (382970, -31451, 708), 228096),
        (2112, (350, -41, 708), 256),
    ],
    [
        (F(7, 16), F(1, 32), 708),
        (F(-189, 512), F(27, 1024), 708),
        (F(112, 891), F(8, 891), 708),
        (F(6237, 4096), F(-891, 8192), 708),
        (F(-7, 66), F(-1, 132), 708),
    ],
    True,
)


def _frozen(x):
    return (x.a, x.b, x.d) if isinstance(x, QuadExt) else x


def _frozen_walk(vertices, params, closed):
    return (
        [tuple(_frozen(c) for c in v.coords) for v in vertices],
        [None if t.is_infinite else _frozen(t.value) for t in params],
        closed,
    )


def test_exact_tangent_walks_frozen():
    closing = LineConfiguration(
        [ProjLine(3, 4, -10), ProjLine(14, 7, 2), ProjLine(917, 546, -234)]
    )
    open_config = LineConfiguration(
        [ProjLine(245, 896, 120), ProjLine(45, -40, 12), ProjLine(18, 0, -35)]
    )
    for config, start, branch, expected in [
        (closing, ProjPoint(10, -5, 1), "first", FROZEN_REAL_FIRST),
        (closing, ProjPoint(10, -5, 1), "second", FROZEN_REAL_SECOND),
        (closing, ProjPoint(0, 5, 2), "first", FROZEN_AT_INFINITY_FIRST),
        (closing, ProjPoint(0, 5, 2), "second", FROZEN_AT_INFINITY_SECOND),
        (open_config, ProjPoint(8, -5, 21), "first", FROZEN_OPEN_IMAGINARY),
    ]:
        chain = primal_chain(config, start, branch)
        assert _frozen_walk(chain.vertices, chain.params, chain.closed) == expected
    pencil = concurrent_tangent_chain(
        [ProjLine(1, 0, 2), ProjLine(27, 0, -64), ProjLine(4, 0, -33)], ProjPoint(16, 7, -8)
    )
    assert pencil.closing_line == ProjLine(64, QuadExt(112, 8, 708), QuadExt(226, 7, 708))
    assert _frozen_walk(
        pencil.vertices, pencil.edge_params, pencil.closing_tangent
    ) == FROZEN_PENCIL


def _public_tangent_walk(lines, start, targets, branch):
    """The tangent walk by public constructions alone: tangents_from for the
    first edge, meet(tangent_at(t), line) for each vertex and
    other_tangent_param for each later edge. Its vertices and edge
    params, or None where the walk must raise DegenerateStart."""
    if on_conic(start) or any(incident(l, start) for l in lines[1:]):
        return None
    t = tangents_from(start).params[0 if branch == "first" else 1]
    vertices, params = [start], [t]
    for step, target in enumerate(targets):
        vertex = meet(tangent_at(t), lines[target])
        if vertex == vertices[-1] or on_conic(vertex):
            return None
        vertices.append(vertex)
        if step < len(targets) - 1:
            t = other_tangent_param(vertex, t)
            params.append(t)
    return tuple(vertices), tuple(params)


def _assert_tangent_walks_agree(walk, expected):
    """walk() returns (vertices, params) equal to expected, reprs as well,
    or raises DegenerateStart where expected is None."""
    if expected is None:
        with pytest.raises(DegenerateStart):
            walk()
        return
    got = walk()
    assert got == expected
    assert [repr(x) for part in got for x in part] == [
        repr(x) for part in expected for x in part
    ]


branches = st.sampled_from(["first", "second"])


@settings(max_examples=40, deadline=None)
@given(generators, st.integers(2, 8), st.integers(0, 2**16), st.fractions(max_denominator=9),
       branches)
def test_exact_primal_walk_is_the_public_tangent_walk(generator, n, seed, point, branch):
    config = generator(n, seed)
    start = point_on_line(config.lines[0], ConicParam(point))
    targets = [i % n for i in range(1, 2 * n + 1)]

    def walk():
        chain = primal_chain(config, start, branch)
        assert chain.closed == (chain.vertices[-1] == chain.vertices[0])
        return chain.vertices, chain.params

    _assert_tangent_walks_agree(walk, _public_tangent_walk(config.lines, start, targets, branch))


int_points = st.tuples(small, small, small).filter(any)


@settings(max_examples=40, deadline=None)
@given(int_points, st.sampled_from([3, 5, 7]), st.lists(int_points, min_size=7, max_size=7),
       st.fractions(max_denominator=9), branches)
def test_exact_pencil_walk_is_the_public_tangent_walk(apex, m, others, point, branch):
    apex = ProjPoint(*apex)
    points = [ProjPoint(*x) for x in others[:m]]
    assume(apex not in points)
    lines = [join(apex, p) for p in points]
    assume(not any(line_conic_params(l).double for l in lines))
    start = point_on_line(lines[0], ConicParam(point))
    expected = _public_tangent_walk(lines, start, [i % m for i in range(1, 2 * m)], branch)
    if expected is not None and expected[0][-1] == start:  # back at the start early
        expected = None

    def walk():
        closure = concurrent_tangent_chain(lines, start, branch)
        assert closure.closing_line == join(closure.vertices[-1], start)
        return closure.vertices, closure.edge_params

    _assert_tangent_walks_agree(walk, expected)


def _float_image(x):
    return type(x)(*(float(c) for c in x.coords))


@st.composite
def pencils(draw):
    """3, 5 or 7 lines through one integer apex, none of them tangent."""
    apex = ProjPoint(*draw(int_points))
    m = draw(st.sampled_from([3, 5, 7]))
    points = [ProjPoint(*x) for x in draw(st.lists(int_points, min_size=m, max_size=m))]
    assume(apex not in points)
    lines = [join(apex, p) for p in points]
    assume(not any(line_conic_params(l).double for l in lines))
    return lines


closing_lines = st.builds(lambda n, seed: generate_closing(n, seed).lines,
                          st.integers(2, 8), st.integers(0, 2**16))


@settings(max_examples=80, deadline=None)
# an exact vertex here has the entry (-45040877 + 3356 sqrt(180123244))/2,
# whose terms cancel: its float image must survive that
@example(("pencil", [ProjLine(1, 1, 1)] + [ProjLine(1, 2, 0), ProjLine(1, 0, 2)] * 3),
         Fraction(6710), "first")
# the vertices crowd the apex, 4e-6 apart at the close: the float image of
# the join of the last and first has a tangency discriminant of 1.5e-8
@example(("pencil", [ProjLine(2, 2, 1), ProjLine(0, 1, 0), ProjLine(2, 3, 1)]),
         Fraction(-39860), "second")
@given(st.one_of(st.tuples(st.just("primal"), closing_lines),
                 st.tuples(st.just("pencil"), pencils())),
       st.fractions(max_denominator=9), branches)
def test_float_walks_track_the_exact_walks(case, point, branch):
    # from the float images of the start and lines, a float walk gives the
    # exact verdict, and each vertex lies within 1e-9 of the float image of
    # the exact vertex, up to sign; a case where either side raises
    # DegenerateStart or FieldInsufficient is skipped
    mode, lines = case

    def walk(start, lines):
        if mode == "pencil":
            closure = concurrent_tangent_chain(lines, start, branch)
            return closure.vertices, closure.closing_tangent
        chain = primal_chain(LineConfiguration(lines), start, branch)
        return chain.vertices, chain.closed

    start = point_on_line(lines[0], ConicParam(point))
    try:
        exact, verdict = walk(start, lines)
        got, float_verdict = walk(_float_image(start), [_float_image(l) for l in lines])
    except (DegenerateStart, FieldInsufficient):
        return
    assert float_verdict == verdict
    assert len(got) == len(exact)
    for vertex, twin in zip(got, exact):
        image = _float_image(twin).coords
        gap = min(max(abs(a - s * b) for a, b in zip(vertex.coords, image)) for s in (1, -1))
        assert gap <= 1e-9, (vertex, twin)


def test_exact_walk_builds_no_fraction(no_fraction_built):
    # both branches from the starts of the frozen walks, one of them through
    # t = infinity, and the frozen pencil walk with one line turned off its
    # apex: a concurrent pencil returns the rational discriminant 0
    config = LineConfiguration(
        [ProjLine(3, 4, -10), ProjLine(14, 7, 2), ProjLine(917, 546, -234)]
    )
    pencil = [ProjLine(1, 0, 2), ProjLine(27, 1, -64), ProjLine(4, 0, -33)]
    with no_fraction_built():
        for start in (ProjPoint(10, -5, 1), ProjPoint(0, 5, 2)):
            for branch in ("first", "second"):
                primal_chain(config, start, branch)
        concurrent_tangent_chain(pencil, ProjPoint(16, 7, -8))


def test_two_line_closure_frozen():
    assert two_line_closure(0, 2)
    assert two_line_closure(1, 3)
    assert two_line_closure(-1, 3)
    assert two_line_closure(QuadExt(0, 1, 2), 4)
    assert two_line_closure(QuadExt(0, -1, 2), 4)
    # x = 0 closes at n = 2, so n = 4 is not minimal
    assert not two_line_closure(0, 4)
    with pytest.raises(ValueError):
        two_line_closure(0, 1)


def test_two_line_system_fixed_points():
    system = TwoLineSystem.at(Fraction(5))
    u = MobiusMap.from_mat2(system.mat_u)
    v = MobiusMap.from_mat2(system.mat_v)
    assert set(fixed_points(u).params) == {
        ConicParam(Fraction(1)), ConicParam(Fraction(-1))
    }
    assert set(fixed_points(v).params) == {
        ConicParam(Fraction(0)), ConicParam(Fraction(2, 5))
    }


@given(st.fractions(min_value=-10, max_value=10, max_denominator=6),
       st.integers(min_value=2, max_value=8))
@settings(deadline=None)
def test_two_line_closure_matches_concrete_involutions(x, n):
    # the poles (1:0:-1) and (x:1:0) realize exactly M_u and M_v
    u = fregier(ProjPoint(1, 0, -1)).map
    v = fregier(ProjPoint(x, 1, 0)).map
    system = TwoLineSystem.at(x)
    assert u == MobiusMap.from_mat2(system.mat_u)
    assert v == MobiusMap.from_mat2(system.mat_v)
    step = system.step
    power = Mat2.identity()
    concrete = None
    for k in range(1, n + 1):
        power = step * power
        if is_scalar_multiple_of_identity(power):
            concrete = k
            break
    assert two_line_closure(x, n) == (concrete == n)


@given(st.fractions(min_value=-10, max_value=10, max_denominator=6))
def test_two_line_closure_harmonic_at_two(x):
    # closing at n = 2 means the fixed pairs {1,-1} and {0,2/x} are harmonic,
    # which happens exactly at x = 0
    if x == 0:
        assert two_line_closure(x, 2)
        return
    if abs(x) == 2:
        # 2/x lands on a fixed point of the other involution, so the
        # cross-ratio degenerates; the walk certainly does not close
        assert not two_line_closure(x, 2)
        return
    harmonic = cross_ratio(
        ConicParam(Fraction(1)), ConicParam(Fraction(-1)),
        ConicParam(Fraction(0)), ConicParam(2 / x),
    ) == Fraction(-1)
    assert two_line_closure(x, 2) == harmonic
    assert not harmonic


@given(st.integers(min_value=2, max_value=8),
       st.fractions(min_value=-8, max_value=8, max_denominator=4))
def test_two_line_closure_matches_polynomial_criterion(n, x):
    # P_{n-1}(x) = 0 makes the n-th power scalar; minimal closure needs every
    # intermediate P_k to miss zero as well (P_1(0) = 0 kills x = 0 at n = 4)
    scalar_at_n = pn_polynomial(n - 1)(x) == 0
    step, power = TwoLineSystem.at(x).step, Mat2.identity()
    for _ in range(n):
        power = step * power
    assert is_scalar_multiple_of_identity(power) == scalar_at_n
    if scalar_at_n:
        assert pn_polynomial(n - 2)(x) != 0
    minimal = scalar_at_n and all(
        pn_polynomial(k)(x) != 0 for k in range(1, n - 1)
    )
    assert two_line_closure(x, n) == minimal
